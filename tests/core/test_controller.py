"""Unit tests for the PCMap controller (RoW, WoW, fine-grained writes)."""

import pytest

from repro.core.systems import (
    COMPARATOR_SYSTEM_NAMES,
    PCMAP_SYSTEM_NAMES,
    SYSTEM_NAMES,
    make_system,
)
from repro.memory.controller import MemoryController
from repro.memory.request import ServiceClass, make_read, make_write
from repro.memory.storage import MemoryStorage
from repro.memory.timing import DEFAULT_TIMING
from repro.sim.engine import Engine

from tests.conftest import ControllerHarness, harness


def _functional_harness(system_name: str, **overrides):
    """Harness with a functional backing store attached."""
    h = ControllerHarness(system_name, functional=True, **overrides)
    storage = MemoryStorage(keep_pcc=True)
    h.controller.storage = storage
    h.controller.detector.storage = storage
    return h, storage


def test_factory_builds_pcmap_for_variants():
    """One controller class: a fine write engine exactly on PCMap systems."""
    for name in SYSTEM_NAMES + COMPARATOR_SYSTEM_NAMES:
        controller = MemoryController(Engine(), make_system(name))
        assert (controller.fine is not None) == (name in PCMAP_SYSTEM_NAMES)


def test_fine_write_blocks_only_its_chips():
    h = harness("wow-nr")
    w = h.write(0, 0b1)  # word 0 -> chip 0 (fixed layout)
    h.run_until(100)
    rank = h.controller.ranks[0]
    busy = rank.busy_chips_at(h.engine.now + 50)
    assert 0 in busy
    # Chips 1-7 hold no data work; only the code chips are also busy.
    assert all(c not in busy for c in range(1, 8))
    h.run()
    assert w.completion > 0


def test_silent_write_fast_and_windowed():
    h = harness("rwow-rde")
    req = h.write(0, 0)
    h.run()
    assert req.service_class is ServiceClass.SILENT
    assert req.latency <= DEFAULT_TIMING.array_write_ticks
    irlp = h.controller.irlp
    assert len(irlp.spans()) == 1
    assert irlp.values() == [0.0]


def test_wow_consolidates_disjoint_writes():
    h = harness("wow-nr")
    # Force a drain with chip-disjoint single-word writes.
    for i in range(28):
        h.write(i, 1 << (i % 8))
    h.run()
    assert h.stats.wow_groups > 0
    assert h.stats.wow_member_writes >= 2 * h.stats.wow_groups
    assert h.all_done()


def test_wow_members_overlap_in_time():
    h = harness("wow-nr")
    for i in range(28):
        h.write(i, 1 << (i % 8))
    h.run()
    members = [
        r for r in h.submitted if r.service_class is ServiceClass.WOW_MEMBER
    ]
    assert len(members) >= 2
    # At least one pair of members overlaps in service time.
    overlapping = any(
        a.start_service < b.completion and b.start_service < a.completion
        for a in members
        for b in members
        if a is not b
    )
    assert overlapping


def test_wow_never_groups_conflicting_chips():
    h = harness("wow-nr")
    # All writes dirty the same word -> same chip -> no grouping possible.
    for i in range(28):
        h.write(i, 0b1)
    h.run()
    assert h.stats.wow_groups == 0
    assert h.all_done()


def test_rotation_enables_grouping_of_same_offset_writes():
    h = harness("rwow-rd")
    # Same dirty offset but consecutive lines: rotation spreads the chips.
    for i in range(28):
        h.write(i, 0b1)
    h.run()
    assert h.stats.wow_groups > 0


def test_writes_serialise_without_wow():
    h = harness("row-nr")
    w1 = h.write(0, 0b1)
    w2 = h.write(1, 0b10)  # disjoint chips, but WoW is off
    h.run()
    starts = sorted([w1.start_service, w2.start_service])
    # Second write's data work begins no earlier than the first's data end
    # (write engine token); allow the ECC tail to trail.
    assert starts[1] >= starts[0] + DEFAULT_TIMING.array_write_ticks


def test_row_serves_reads_during_drain():
    h = harness("row-nr")
    for i in range(28):
        h.write(i, 0b1)
    reads = [h.read(1000 + i) for i in range(4)]
    h.run()
    assert h.stats.row_reads > 0
    assert all(r.completion > 0 for r in reads)


def test_row_reconstruction_returns_correct_data():
    h, storage = _functional_harness("row-nr")
    # Pre-materialise the lines so expected values are known.
    expected = {}
    for i in range(1000, 1006):
        line_address = (i * 64 * 4) // 64
        expected[i] = storage.read_line(line_address).words
    for i in range(28):
        h.write(i, 0b1)
    reads = [h.read(i) for i in range(1000, 1006)]
    h.run()
    recon = [r for r in reads if r.service_class is ServiceClass.ROW_OVERLAP]
    assert h.stats.row_reads == len(recon)
    for req in reads:
        assert req.data_words is not None
        line_index = req.address // (64 * 4)
        assert req.data_words == expected[line_index]


def test_row_verify_completion_recorded():
    h = harness("row-nr")
    for i in range(28):
        h.write(i, 0b1)
    reads = [h.read(1000 + i) for i in range(4)]
    h.run()
    recon = [r for r in reads if r.service_class is ServiceClass.ROW_OVERLAP]
    if not recon:
        pytest.skip("no reconstruction happened with this arrival pattern")
    for req in recon:
        assert req.verify_completion >= req.completion
    assert h.stats.verify_count >= len(recon)


def test_rollback_rate_one_forces_rollbacks():
    h = harness("row-nr", row_rollback_rate=1.0)
    seen = []
    for i in range(28):
        h.write(i, 0b1)
    for i in range(4):
        req = make_read(9000 + i, (1000 + i) * 64 * 4)
        req.on_verify = lambda r, rb: seen.append(rb)
        h.controller.submit(req)
        h.submitted.append(req)
    h.run()
    if h.stats.row_reads == 0:
        pytest.skip("no RoW reads with this pattern")
    assert h.stats.rollbacks == h.stats.row_reads
    assert all(seen)


def test_rollback_rate_zero_never_rolls_back():
    h = harness("row-nr", row_rollback_rate=0.0)
    for i in range(28):
        h.write(i, 0b1)
    for i in range(4):
        h.read(1000 + i)
    h.run()
    assert h.stats.rollbacks == 0


def test_ecc_contention_serialises_fixed_layout_groups():
    """Without rotation every member updates ECC chip 8: the group's
    service end stretches (Figure 5(d)), visible as service_end > end."""
    h = harness("wow-nr")
    for i in range(28):
        h.write(i, 1 << (i % 8))
    h.run()
    # Without RoW a window's span ends where its service does.
    grouped = [
        (start, end) for start, end in h.controller.irlp.spans()
        if end - start > int(1.3 * DEFAULT_TIMING.array_write_ticks)
    ]
    assert grouped, "expected ECC-tail-stretched windows in wow-nr"


def test_rde_rotation_raises_irlp_over_fixed():
    def run(name):
        h = harness(name, seed=3)
        for i in range(28):
            h.write(i, 1 << (i % 3))  # clustered offsets 0-2
        h.run()
        # The window values MainMemory.irlp_summary averages.
        values = h.controller.irlp.values()
        return sum(values) / len(values)

    assert run("rwow-rde") > run("rwow-nr")


def test_pcmap_write_data_committed_functionally():
    h, storage = _functional_harness("rwow-rde")
    line_index = 7
    line_address = (line_index * 64 * 4) // 64
    old = storage.read_line(line_address).words
    new = list(old)
    new[5] ^= 0xDEAD
    req = make_write(1234, line_index * 64 * 4, 0, new_words=tuple(new))
    h.controller.submit(req)
    h.submitted.append(req)
    h.run()
    assert req.dirty_mask == 1 << 5
    stored = storage.read_line(line_address)
    assert stored.words[5] == new[5]
    # PCC parity stays consistent after the incremental update.
    from repro.ecc import parity

    assert stored.pcc == parity.compute_parity(stored.words)


def test_status_poll_delays_writes_on_idle_chips():
    """Every fine-grained write pays the DIMM register's ``Status`` poll
    (§IV-D1: 2 memory cycles, 8 ticks) before its chips start work.
    Issued at ``now`` on idle chips, a silent write's compare read starts
    at ``now + status_poll_ticks``; a fine write's data transfer does too,
    and its chips' array work follows one burst later."""
    def idle_at(tick):
        h = harness("wow-nr")
        h.run_until(tick)
        return h, h.controller

    now = 1000
    h, c = idle_at(now)
    poll = c.timing.status_poll_ticks
    assert poll == 8
    silent = h.enqueue(make_write(1, h._address(0), 0))
    c.fine.issue_silent_write(silent, silent.decoded, now)
    assert silent.start_service == now + poll
    assert silent.service_class is ServiceClass.SILENT

    h, c = idle_at(now)
    fine = h.enqueue(make_write(2, h._address(0), 0b101))
    window = c._open_window(-1, -1)
    start, data_end, _end = c.fine.issue_fine_write(
        fine, fine.decoded, now, window=window
    )
    assert start == fine.start_service == now + poll
    assert window.start == now + poll + c.timing.burst_ticks
    assert data_end > window.start


def test_inflight_cap_respected():
    h = harness("rwow-rde", max_inflight_writes=2)
    for i in range(28):
        h.write(i, 1 << (i % 8))
    # Drive the simulation in small steps, checking the invariant.
    for _ in range(200):
        if not h.engine.step():
            break
        assert h.controller.fine.inflight <= 2
    h.run()
    assert h.all_done()
