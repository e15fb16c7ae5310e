"""Tracked microbenchmarks for the simulator's hot paths.

The suite times the layers the hot-path optimisation work targets — the
SECDED codec, the functional backing store, the event-engine dispatch
loop, the synthetic trace generator, and the time-series sampler's and
the tracer's overhead on the timing-only ``rwow-rde``/canneal reference
run — and emits a seed- and git-stamped ``BENCH_perf.json`` (including
the regression sentinel's pinned ``metrics_fingerprint`` section) so
revisions stay comparable.

Entry points: the ``repro perf`` CLI command and the thin wrappers in
``benchmarks/perf/``.  See docs/PERFORMANCE.md for the workflow.
"""

from repro.perf.suites import (
    SCHEMA_VERSION,
    TIMESERIES_OVERHEAD_CEILING,
    BenchReport,
    bench_codec,
    bench_engine_dispatch,
    bench_storage,
    bench_timeseries,
    bench_trace_gen,
    bench_tracing,
    check_payload,
    format_payload,
    run_suite,
    time_call,
)

__all__ = [
    "BenchReport",
    "SCHEMA_VERSION",
    "TIMESERIES_OVERHEAD_CEILING",
    "bench_codec",
    "bench_engine_dispatch",
    "bench_storage",
    "bench_timeseries",
    "bench_trace_gen",
    "bench_tracing",
    "check_payload",
    "format_payload",
    "run_suite",
    "time_call",
]
