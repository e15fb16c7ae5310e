"""Engine run profiles: events dispatched and wall-clock seconds.

The engine always counts dispatched events (one integer increment per
event — free).  :class:`RunProfile` pairs that with the wall-clock time
the simulator measured around the run and derives events/second, the
number benchmarks print so hot-path regressions are visible in the
``BENCH_*`` trajectories.  Per-callback cost is measured with cProfile
from outside the engine (``repro perf``, ``benchmarks/e2e``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional


@dataclass
class RunProfile:
    """Per-run engine profile attached to a simulation result."""

    events_dispatched: int = 0
    wall_seconds: float = 0.0

    @property
    def events_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_dispatched / self.wall_seconds

    def summary(self) -> str:
        """One-line human summary for benchmark output."""
        return (
            f"engine: {self.events_dispatched} events in "
            f"{self.wall_seconds:.3f} s ({self.events_per_second:,.0f} events/s)"
        )

    def merge(self, other: "RunProfile") -> None:
        """Accumulate another run's profile (benchmark aggregation)."""
        self.events_dispatched += other.events_dispatched
        self.wall_seconds += other.wall_seconds


class WallClock:
    """Tiny perf_counter stopwatch (kept here so callers avoid `time`)."""

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self.elapsed = 0.0

    def __enter__(self) -> "WallClock":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        if self._start is not None:
            self.elapsed = time.perf_counter() - self._start
