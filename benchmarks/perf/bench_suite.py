"""Full perf suite: refreshes the committed BENCH_perf.json.

Runs every microbenchmark at full budget, applies the gross-regression
gate, and only when it passes writes the seed- and git-stamped payload —
including the regression sentinel's pinned ``metrics_fingerprint``
section — to ``benchmarks/results/BENCH_perf.json`` (the file tracked in
version control), so a failing run never replaces the committed one.
"""

import json
import os

from repro.perf import check_payload, format_payload, run_suite
from repro.sim.results_io import atomic_write_text

from benchmarks.common import write_report
from benchmarks.perf.common import PERF_SEED

_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")


def test_perf_suite(benchmark):
    payload = benchmark.pedantic(
        lambda: run_suite(seed=PERF_SEED), rounds=1, iterations=1
    )
    assert check_payload(payload) == []
    path = os.path.normpath(os.path.join(_RESULTS_DIR, "BENCH_perf.json"))
    atomic_write_text(path, json.dumps(payload, indent=1) + "\n")
    write_report("perf_suite", format_payload(payload))
