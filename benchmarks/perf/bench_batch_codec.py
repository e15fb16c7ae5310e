"""Vectorized batch encoder microbenchmark.

Times ``repro.ecc.batch``'s array encode against the scalar per-word
loop on the same random words; the ratio is the machine-independent
vectorization speedup gated (>=5x) in BENCH_perf.json on numpy builds.
On a scalar-only build the report carries the scalar timing alone.
"""

from repro.ecc import batch
from repro.perf import bench_batch_codec

from benchmarks.common import write_report
from benchmarks.perf.common import PERF_SEED, report_text


def test_perf_batch_codec(benchmark):
    report = benchmark.pedantic(
        lambda: bench_batch_codec(PERF_SEED), rounds=1, iterations=1
    )
    write_report(
        "perf_batch_codec",
        report_text(report, "perf: batch SECDED codec"),
    )
    if batch.HAS_NUMPY:
        assert report.metrics["encode_vs_scalar"] >= 5.0
