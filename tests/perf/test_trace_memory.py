"""Machine-independent gate on what tracing keeps: bytes per trace event.

A traced run keeps every record its sinks hold, so what a live
``SystemSimulator`` and its ``ListSink`` retain after ``run()`` grows
with the events traced.  ``tracemalloc`` counts the Python allocations
still live after a ``gc.collect()`` exactly, so the growth between two
run lengths, per added trace event, does not depend on the host.  The
reference config (``rwow-rde`` on canneal, seed 7) read 65.2 B per
added event with one tuple per record (about 229 B a record), and 24.5
with one 40-byte row per record, the ``extra`` dicts of read
completions making most of the rest (CPython 3.11.7).
"""

import gc
import tracemalloc

from repro.core.systems import make_system
from repro.sim.simulator import SimulationParams, SystemSimulator
from repro.telemetry import ListSink, Telemetry

#: Bytes a traced run may retain per added trace event.
CEILING_BYTES_PER_TRACE_EVENT = 32
SHORT, LONG = 1000, 4000


def _retained(requests):
    """Traced bytes a live traced simulator holds after ``run()``, and
    the trace events it emitted."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        telemetry = Telemetry.recording([ListSink()])
        sim = SystemSimulator(
            make_system("rwow-rde"),
            "canneal",
            SimulationParams(target_requests=requests, seed=7),
            telemetry,
        )
        sim.run()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained, telemetry.tracer.emitted


def test_traced_run_bytes_per_trace_event():
    # A short run first, so imports and first-use caches stay out of it.
    _retained(200)
    short, short_events = _retained(SHORT)
    long, long_events = _retained(LONG)
    per_event = (long - short) / (long_events - short_events)
    assert per_event <= CEILING_BYTES_PER_TRACE_EVENT, (
        f"{per_event:.1f} B retained per added trace event "
        f"({short} B for {short_events} events at {SHORT} requests, "
        f"{long} B for {long_events} at {LONG})"
    )
