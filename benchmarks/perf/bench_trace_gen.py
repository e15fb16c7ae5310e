"""Synthetic trace generator microbenchmark.

Times the on-demand record stream (the one the simulator's cores pull
from) per record on the canneal profile; tracked in BENCH_perf.json.
"""

from repro.perf import bench_trace_gen

from benchmarks.common import write_report
from benchmarks.perf.common import PERF_SEED, report_text


def test_perf_trace_gen(benchmark):
    report = benchmark.pedantic(
        lambda: bench_trace_gen(PERF_SEED), rounds=1, iterations=1
    )
    write_report(
        "perf_trace_gen", report_text(report, "perf: synthetic trace stream")
    )
    assert report.metrics["record_us"] > 0
