"""Simulator-wide telemetry: metrics registry, event tracing, profiling.

Three cooperating pieces (docs/TELEMETRY.md has the full guide):

* :class:`MetricsRegistry` — named counters, gauges and fixed-bucket
  histograms.  Plain dict/int operations, cheap enough to stay always-on
  in the single-threaded engine; controllers cache the instrument objects
  they touch on the hot path.
* :class:`Tracer` — structured, typed events (request lifecycle, RoW/WoW
  decisions, rollbacks, write pauses, chip reservations) fanned out to
  sinks: an in-memory ring buffer, a JSONL file, or both.  The default is
  :data:`NULL_TRACER`, whose ``enabled`` flag keeps the tracing-off cost
  of every emit site to a single attribute check.
* :class:`EngineProfiler` / :class:`RunProfile` — events dispatched,
  wall-clock seconds and (opt-in) callback-latency top-N for the event
  engine, so hot-path regressions show up in benchmark output.
* :class:`TimeSeries` / :class:`TimeseriesSampler` — opt-in columnar
  sampling of probes (queue depths, write-engine occupancy, outstanding
  reads, rollbacks, recent IRLP) on a simulated-tick cadence.
* :func:`to_openmetrics` / :func:`lint_openmetrics` /
  :func:`timeseries_to_jsonl` — standard-format exports of registry
  dumps and time series (``repro metrics``, CI artifacts).

:class:`Telemetry` bundles a tracer and a registry and is what the
simulator threads through the controller stack.

The exporters (:mod:`repro.telemetry.chrome`,
:mod:`repro.telemetry.export`) load on first use of their names: a run
records telemetry, and only the command that writes it out needs them.
"""

from repro.telemetry.profiler import EngineProfiler, RunProfile, WallClock
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.timeseries import (
    DEFAULT_CADENCE_TICKS,
    TimeSeries,
    TimeseriesSampler,
)
from repro.telemetry.tracer import (
    EventType,
    JsonlSink,
    ListSink,
    NULL_TRACER,
    NullTracer,
    RingBufferSink,
    Telemetry,
    TraceEvent,
    Tracer,
    read_jsonl,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_CADENCE_TICKS",
    "TimeSeries",
    "TimeseriesSampler",
    "to_openmetrics",
    "lint_openmetrics",
    "timeseries_to_jsonl",
    "EventType",
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Telemetry",
    "RingBufferSink",
    "ListSink",
    "JsonlSink",
    "read_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "EngineProfiler",
    "RunProfile",
    "WallClock",
]


#: Exporter names resolved on first use, by the module that defines them.
_LAZY_EXPORTS = {
    **dict.fromkeys(("to_chrome_trace", "write_chrome_trace"), "chrome"),
    **dict.fromkeys(
        ("lint_openmetrics", "timeseries_to_jsonl", "to_openmetrics"), "export"
    ),
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        from importlib import import_module

        module = import_module(f"{__name__}.{_LAZY_EXPORTS[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
