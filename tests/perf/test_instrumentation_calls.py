"""Machine-independent gates on what the instrumentation channel costs.

The pinned reference run (``rwow-rde`` on canneal, seed 7, 3000
requests: 6150 events / 364931 ticks) is profiled in one process plain,
with the time-series sampler and the metrics dump on, and recording
into a default ``RingBufferSink``.  cProfile counts calls exactly, so the
calls that sampling adds per sample, and that tracing adds per trace
event, do not depend on the host.  Storing each rank reservation as one
record, and probing queues and sums without properties or generator
frames, brought them from 179.5 to 90.0 and from 1.297 to 0.981 on
CPython 3.11.7.  The ceilings are the ones ``repro perf --check``
applies to the suite's payload.
"""

from repro.core.systems import make_rwow_rde
from repro.perf.suites import (
    CALLS_PER_SAMPLE_CEILING,
    CALLS_PER_TRACE_EVENT_CEILING,
    count_calls,
)
from repro.sim.simulator import SimulationParams, simulate
from repro.telemetry import RingBufferSink, Telemetry
from repro.telemetry.timeseries import DEFAULT_CADENCE_TICKS


def _reference_run(telemetry=None, **params):
    result = simulate(
        make_rwow_rde(),
        "canneal",
        SimulationParams(target_requests=3000, seed=7, **params),
        telemetry,
    )
    assert (result.profile.events_dispatched, result.sim_ticks) == (6150, 364931)
    return result


def _added_calls(run_on) -> int:
    """Calls of ``run_on`` minus those of the plain run, both warmed."""
    _reference_run()
    run_on()
    return count_calls(run_on) - count_calls(_reference_run)


def test_reference_run_calls_per_sample():
    samples = []

    def run_on():
        result = _reference_run(
            sample_every_ticks=DEFAULT_CADENCE_TICKS, collect_metrics=True
        )
        samples.append(result.timeseries["total_samples"])

    per_sample = _added_calls(run_on) / samples[-1]
    assert samples[-1] == 364
    assert per_sample <= CALLS_PER_SAMPLE_CEILING, (
        f"{per_sample:.2f} calls per sample on the reference run, "
        f"limit {CALLS_PER_SAMPLE_CEILING}"
    )


def test_reference_run_calls_per_trace_event():
    events = []

    def run_on():
        ring = RingBufferSink()
        _reference_run(Telemetry.recording([ring]))
        events.append(ring.total_seen)

    per_event = _added_calls(run_on) / events[-1]
    assert events[-1] == 55_701
    assert per_event <= CALLS_PER_TRACE_EVENT_CEILING, (
        f"{per_event:.3f} calls per trace event on the reference run, "
        f"limit {CALLS_PER_TRACE_EVENT_CEILING}"
    )
