"""Randomised stress tests asserting system-wide invariants.

These drive arbitrary request mixes through every controller variant and
check properties that must hold regardless of scheduling decisions:
everything completes, time never runs backwards, the traced chip
occupancy shows no two array writes overlapping on one chip, and runs
are deterministic.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.timeline import occupancy_from_trace
from repro.core.systems import COMPARATOR_SYSTEM_NAMES, SYSTEM_NAMES, make_system
from repro.memory.controller import MemoryController
from repro.memory.request import make_read, make_write
from repro.sim.engine import Engine
from repro.sim.metrics import MemoryStats
from repro.telemetry import Telemetry

from tests.conftest import ShadowIrlpRecorder

ALL_SYSTEMS = SYSTEM_NAMES + ["write-pausing"]


def _drive(system_name, operations, seed=1, log=False, irlp=None):
    """Run (kind, line, mask, gap) operations through one controller;
    with ``log`` the run is traced and rank 0's chip occupancy returned;
    ``irlp`` replaces the controller's IRLP recorder."""
    engine = Engine()
    config = make_system(system_name)
    telemetry = Telemetry.recording() if log else None
    controller = MemoryController(
        engine, config, channel_id=0, seed=seed, telemetry=telemetry
    )
    if irlp is not None:
        controller.irlp = irlp
    stride = 64 * config.geometry.n_channels
    requests = []
    req_id = 0
    for kind, line, mask, gap in operations:
        req_id += 1
        address = (line % (1 << 20)) * stride
        if kind == "r":
            request = make_read(req_id, address)
        else:
            request = make_write(req_id, address, mask)
        if controller.can_accept(request.kind):
            controller.submit(request)
            requests.append(request)
        engine.run(until=engine.now + gap)
    engine.run(max_events=2_000_000)
    events = None
    if telemetry is not None:
        events = occupancy_from_trace(telemetry.tracer.events(), rank=0)
    return controller, requests, events


def _random_operations(rng, count):
    ops = []
    for _ in range(count):
        if rng.random() < 0.4:
            ops.append(("r", rng.randrange(1 << 14), 0, rng.randrange(0, 800)))
        else:
            mask = rng.randrange(0, 256)
            ops.append(("w", rng.randrange(1 << 14), mask, rng.randrange(0, 400)))
    return ops


@pytest.mark.parametrize("system_name", ALL_SYSTEMS)
def test_all_requests_complete_under_random_load(system_name):
    rng = random.Random(42)
    ops = _random_operations(rng, 250)
    controller, requests, _ = _drive(system_name, ops)
    assert requests, "nothing was accepted"
    incomplete = [r for r in requests if r.completion < 0]
    assert not incomplete, f"{len(incomplete)} requests never completed"
    assert controller.idle


@pytest.mark.parametrize("system_name", ALL_SYSTEMS)
def test_time_monotonicity(system_name):
    rng = random.Random(7)
    ops = _random_operations(rng, 200)
    _controller, requests, _ = _drive(system_name, ops)
    for request in requests:
        assert request.completion >= request.arrival
        if request.start_service >= 0:
            assert request.start_service >= request.arrival
            assert request.completion >= request.start_service


@pytest.mark.parametrize("system_name", ALL_SYSTEMS)
def test_no_overlapping_writes_on_one_chip(system_name):
    """The chip-exclusivity premise: array writes on a chip never overlap."""
    rng = random.Random(3)
    ops = _random_operations(rng, 220)
    _controller, _requests, events = _drive(system_name, ops, log=True)
    writes_by_chip = {}
    for event in events:
        if event.kind == "write" and event.start >= 0:
            writes_by_chip.setdefault(event.chip, []).append(
                (event.start, event.end)
            )
    for chip, intervals in writes_by_chip.items():
        intervals.sort()
        for (s1, e1), (s2, _e2) in zip(intervals, intervals[1:]):
            assert s2 >= e1, f"chip {chip}: write overlap {s1, e1} vs {s2}"


@pytest.mark.parametrize("system_name", ["baseline", "rwow-rde"])
def test_determinism_under_random_load(system_name):
    rng = random.Random(11)
    ops = _random_operations(rng, 150)
    _c1, reqs1, _ = _drive(system_name, ops, seed=5)
    _c2, reqs2, _ = _drive(system_name, ops, seed=5)
    assert [r.completion for r in reqs1] == [r.completion for r in reqs2]


@pytest.mark.parametrize("system_name", ALL_SYSTEMS)
def test_irlp_bounds_under_random_load(system_name):
    rng = random.Random(23)
    ops = _random_operations(rng, 200)
    controller, _requests, _ = _drive(system_name, ops)
    for value in controller.irlp.values():
        assert 0.0 <= value <= 8.0


@pytest.mark.parametrize("system_name", SYSTEM_NAMES + COMPARATOR_SYSTEM_NAMES)
@pytest.mark.parametrize("seed", [23, 42])
def test_folded_irlp_matches_unfolded_windows(system_name, seed):
    """Each window folded mid-run reads what it reads at the end."""
    rng = random.Random(seed)
    ops = _random_operations(rng, 250)
    shadow = ShadowIrlpRecorder()
    _drive(system_name, ops, irlp=shadow)
    assert len(shadow._pending) < len(shadow.windows) // 2  # most folded
    assert shadow.values() == shadow.expected_values()
    assert shadow.spans() == shadow.expected_spans()


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["r", "w"]),
            st.integers(min_value=0, max_value=255),
            st.integers(min_value=0, max_value=255),
            st.integers(min_value=0, max_value=2_000),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=30, deadline=None)
def test_property_pcmap_serves_arbitrary_streams(operations):
    controller, requests, _ = _drive("rwow-rde", operations)
    assert all(r.completion >= 0 for r in requests)
    stats = MemoryStats.from_registry(controller.telemetry.metrics)
    assert stats.reads_completed + stats.writes_completed + \
        stats.forwarded_reads >= len(requests)
