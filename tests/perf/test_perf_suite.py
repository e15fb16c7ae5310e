"""Determinism and schema tests for the perf microbenchmark suite.

The contract: everything except the measured timing values is a pure
function of ``(seed, smoke)``.  Two same-seed invocations must agree on
the JSON schema, the benchmark names and configs, and the metric *keys*
— only the timing values may differ between runs.
"""

import json
from pathlib import Path

from repro import cli
from repro.perf import SCHEMA_VERSION, check_payload, run_suite

#: Top-level keys of the BENCH_perf.json payload, in any order.
TOP_LEVEL_KEYS = {
    "schema", "suite", "seed", "smoke", "code_version",
    "benchmarks", "speedups", "metrics_fingerprint",
}

#: Every speedup is a same-process ratio.
SAME_PROCESS_SPEEDUPS = {"codec.encode_vs_reference", "codec.decode_vs_reference"}

BENCHMARK_NAMES = [
    "codec", "storage", "engine", "trace_gen", "timeseries", "tracing",
]

#: Trace events of the smoke reference run (rwow-rde/canneal, 600
#: requests) at seed 3; the full-budget seed-7 run records 55,701
#: (tests/perf/test_trace_records.py).
SMOKE_TRACE_EVENTS_SEED3 = 16_398


def _run_cli_json(capsys, seed: int) -> dict:
    rc = cli.main(["perf", "--json", "--smoke", "--seed", str(seed)])
    assert rc == 0
    return json.loads(capsys.readouterr().out)


def _shape(payload: dict) -> dict:
    """Everything that must be identical across same-seed runs."""
    return {
        "schema": payload["schema"],
        "suite": payload["suite"],
        "seed": payload["seed"],
        "smoke": payload["smoke"],
        "benchmarks": [
            {
                "name": bench["name"],
                "config": bench["config"],
                "metric_keys": sorted(bench["metrics"]),
            }
            for bench in payload["benchmarks"]
        ],
        "speedup_keys": sorted(payload["speedups"]),
        # The fingerprint carries no timings — it must be value-identical
        # across same-seed runs, not just shape-identical.
        "metrics_fingerprint": payload["metrics_fingerprint"],
    }


def test_perf_cli_json_is_deterministic_modulo_timings(capsys):
    first = _run_cli_json(capsys, seed=3)
    second = _run_cli_json(capsys, seed=3)
    assert _shape(first) == _shape(second)


def test_perf_payload_schema(capsys):
    payload = _run_cli_json(capsys, seed=3)
    assert set(payload) == TOP_LEVEL_KEYS
    assert payload["schema"] == SCHEMA_VERSION
    assert payload["suite"] == "perf"
    assert payload["seed"] == 3
    assert payload["smoke"] is True
    assert isinstance(payload["code_version"], str) and payload["code_version"]
    assert [b["name"] for b in payload["benchmarks"]] == BENCHMARK_NAMES
    by_name = {b["name"]: b for b in payload["benchmarks"]}
    for bench in payload["benchmarks"]:
        assert set(bench) == {"name", "config", "metrics"}
        assert bench["config"], bench["name"]
        for metric, value in bench["metrics"].items():
            assert isinstance(value, (int, float)), (bench["name"], metric)
    # The tracing report times the reference run with the tracer on and
    # off; its event count is deterministic, its ratio recorded but ungated.
    tracing = by_name["tracing"]
    assert tracing["config"]["system"] == "rwow-rde"
    assert tracing["config"]["workload"] == "canneal"
    assert tracing["config"]["seed"] == 3
    assert tracing["config"]["target_requests"] == 600
    assert tracing["metrics"]["events"] == SMOKE_TRACE_EVENTS_SEED3
    assert tracing["metrics"]["overhead_ratio"] > 0
    assert set(by_name["storage"]["metrics"]) == {
        "cold_line_us", "write_line_us", "diff_mask_us",
    }
    assert set(payload["speedups"]) == SAME_PROCESS_SPEEDUPS
    # Smoke suites pin only the smoke-budget legs (the full ones need
    # full-budget runs); the reference configs match the suite seed.
    fingerprint = payload["metrics_fingerprint"]
    assert set(fingerprint) == {"smoke", "frontend_smoke"}
    assert fingerprint["smoke"]["config"]["seed"] == 3
    assert fingerprint["smoke"]["config"]["front_end"] == "none"
    assert fingerprint["smoke"]["metrics"]["engine.sim_ticks"] > 0
    frontend_leg = fingerprint["frontend_smoke"]
    assert frontend_leg["config"]["front_end"] == "dram"
    assert frontend_leg["config"]["seed"] == 3
    assert frontend_leg["metrics"]["frontend.reads"] > 0
    assert frontend_leg["metrics"]["frontend.fills"] > 0
    # The 16 KiB tier evicts, so its write-backs reach PCM's RoW/WoW path.
    for name in ("writes.completed", "wow.groups", "row.reads"):
        assert frontend_leg["metrics"][name] > 0, name


def test_committed_payload_has_the_current_schema():
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "results"
    payload = json.loads((path / "BENCH_perf.json").read_text())
    assert payload["schema"] == SCHEMA_VERSION
    assert set(payload) == TOP_LEVEL_KEYS
    assert set(payload["speedups"]) == SAME_PROCESS_SPEEDUPS


def test_run_suite_passes_its_own_regression_gate():
    payload = run_suite(seed=3, smoke=True)
    assert check_payload(payload) == []


def test_check_payload_flags_gross_regressions():
    bad = {
        "speedups": {
            "codec.encode_vs_reference": 0.5,
            "codec.decode_vs_reference": 9.0,
        },
        "benchmarks": [
            {"name": "codec", "metrics": {"encode_us": 0.0}},
        ],
    }
    failures = check_payload(bad)
    assert any("codec.encode_vs_reference" in f for f in failures)
    assert any("non-positive" in f for f in failures)


def test_check_payload_reports_missing_metrics():
    failures = check_payload({"speedups": {}, "benchmarks": []})
    assert len(failures) == 2
    assert all("missing" in f for f in failures)


def test_check_payload_gates_sampling_overhead_at_full_budget():
    payload = {
        "smoke": False,
        "speedups": {
            "codec.encode_vs_reference": 2.0,
            "codec.decode_vs_reference": 5.0,
        },
        "benchmarks": [
            {"name": "timeseries", "metrics": {"overhead_ratio": 1.5}},
        ],
    }
    failures = check_payload(payload)
    assert any("overhead_ratio" in f for f in failures)
    # Smoke runs are too short for a stable ratio — never gated.
    payload["smoke"] = True
    assert check_payload(payload) == []
