"""Hot-path microbenchmarks (codec, storage, engine dispatch, trace generation).

Thin pytest wrappers over :mod:`repro.perf`: each module runs one suite
member at full budget, writes its report to ``benchmarks/results/``, and
asserts the machine-independent regression floors.  ``bench_suite``
additionally refreshes the committed ``BENCH_perf.json``.  The same
measurements back the ``repro perf`` CLI command (see docs/PERFORMANCE.md).
"""
