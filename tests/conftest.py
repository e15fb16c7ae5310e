"""Shared fixtures and helpers for the test suite."""

import random
import zlib
from typing import List

import pytest

from repro.core.systems import make_system
from repro.memory.controller import MemoryController
from repro.memory.request import MemoryRequest, make_read, make_write
from repro.sim.engine import Engine
from repro.sim.metrics import IrlpRecorder, MemoryStats

try:  # Deterministic hypothesis runs: no random example order, no
    # wall-clock deadline flakes; every rerun explores the same cases.
    from hypothesis import settings

    settings.register_profile("repro", derandomize=True, deadline=None)
    settings.load_profile("repro")
except ImportError:  # pragma: no cover - hypothesis is a test extra
    pass


@pytest.fixture
def seeded_rng(request) -> random.Random:
    """Per-test deterministic RNG, seeded from the test's node id.

    Fault and fuzz tests draw randomness from this instead of the global
    ``random`` module, so a failing test replays identically regardless
    of execution order or ``-k`` selection.
    """
    return random.Random(zlib.crc32(request.node.nodeid.encode()))


class ControllerHarness:
    """One channel controller plus its engine, for direct-drive tests.

    Addresses are multiplied by (line size x channels) so everything the
    test submits lands on channel 0 of the default 4-channel geometry.
    """

    def __init__(self, system_name: str = "baseline", seed: int = 1, **overrides):
        self.config = make_system(system_name, **overrides)
        self.engine = Engine()
        self.controller = MemoryController(
            self.engine, self.config, channel_id=0, seed=seed
        )
        self._next_id = 0
        self.submitted: List[MemoryRequest] = []

    def _address(self, line_index: int) -> int:
        # Stride over channels so the single controller owns every line.
        return line_index * 64 * self.config.geometry.n_channels

    def read(self, line_index: int) -> MemoryRequest:
        self._next_id += 1
        req = make_read(self._next_id, self._address(line_index))
        self.controller.submit(req)
        self.submitted.append(req)
        return req

    def write(self, line_index: int, dirty_mask: int) -> MemoryRequest:
        self._next_id += 1
        req = make_write(self._next_id, self._address(line_index), dirty_mask)
        self.controller.submit(req)
        self.submitted.append(req)
        return req

    def enqueue(self, req: MemoryRequest) -> MemoryRequest:
        """Queue ``req`` decoded, as ``submit`` would, but without a kick."""
        controller = self.controller
        req.decoded = controller.mapper.decode(req.address)
        line = req.decoded.line_address
        if req.is_read:
            req.chips = controller.layout.read_chips(line)
            controller.read_q.push(req)
        else:
            req.chips = (
                controller.layout.dirty_chips(line, req.dirty_mask)
                if req.dirty_mask else controller.layout.all_data_chips(line)
            )
            controller.write_q.push(req)
        return req

    def run(self, max_events: int = 100_000) -> None:
        self.engine.run(max_events=max_events)

    def run_until(self, tick: int) -> None:
        self.engine.run(until=tick)

    def all_done(self) -> bool:
        return all(req.completion >= 0 for req in self.submitted)

    @property
    def stats(self) -> MemoryStats:
        """The controller's counts, read from its own metrics registry."""
        return MemoryStats.from_registry(self.controller.telemetry.metrics)


@pytest.fixture
def baseline():
    return ControllerHarness("baseline")


@pytest.fixture
def pcmap():
    return ControllerHarness("rwow-rde")


def harness(system_name: str, **overrides) -> ControllerHarness:
    return ControllerHarness(system_name, **overrides)


class ShadowIrlpRecorder(IrlpRecorder):
    """An IRLP recorder that also keeps every window it opens, unfolded.

    Read at the end of a run, the kept windows give what the recorder's
    folded values and spans must equal (:meth:`expected_values`,
    :meth:`expected_spans`).
    """

    def __init__(self) -> None:
        super().__init__()
        self.windows = []

    def open_window(self, start, end):
        window = super().open_window(start, end)
        self.windows.append(window)
        return window

    def expected_values(self):
        return [w.irlp() for w in self.windows if w.end > w.start]

    def expected_spans(self):
        return [(w.start, w.busy_end) for w in self.windows if w.busy_end > w.start]
