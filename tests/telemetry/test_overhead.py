"""Guards on the cost of telemetry when tracing is off.

The emit-site contract is ``if self.tracer.enabled: self.tracer.emit(...)``
— a disabled run must never build or emit a record.  The counting
tracer below would catch any unguarded ``emit`` call; the wall-clock test
bounds the always-on metrics cost with a deliberately generous factor so
it stays robust on loaded CI machines.
"""

import time

from repro.core.systems import make_system
from repro.sim.simulator import SimulationParams, simulate
from repro.telemetry import EventType, NullTracer, Telemetry

PARAMS = SimulationParams(target_requests=150, n_cores=2, seed=2)


class CountingNullTracer(NullTracer):
    """Disabled tracer that records any emit call reaching it."""

    def __init__(self) -> None:
        self.calls = 0

    def emit(self, type: EventType, tick: int, *fields, **named) -> None:
        self.calls += 1

    def emit_reservation(self, *fields, **named) -> None:
        self.calls += 1


def test_disabled_tracer_never_receives_events():
    tracer = CountingNullTracer()
    assert tracer.enabled is False
    telemetry = Telemetry(tracer=tracer)
    result = simulate(make_system("rwow-rde"), "canneal", PARAMS, telemetry)
    assert result.memory.reads_completed > 0
    # Every hot-path emit site must be guarded by `tracer.enabled`.
    assert tracer.calls == 0
    # The always-on registry still populated.
    assert telemetry.metrics.value("reads.completed") > 0


def test_disabled_telemetry_overhead_is_bounded():
    system = make_system("rwow-rde")
    # Warm-up run so imports/JIT-free caches don't skew either side.
    simulate(system, "canneal", PARAMS)

    start = time.perf_counter()
    simulate(system, "canneal", PARAMS)
    plain_seconds = time.perf_counter() - start

    start = time.perf_counter()
    simulate(system, "canneal", PARAMS, Telemetry.disabled())
    disabled_seconds = time.perf_counter() - start

    # Identical code path (the default builds the same disabled bundle);
    # the generous factor only catches a gross regression, not noise.
    assert disabled_seconds < max(plain_seconds, 0.01) * 5
