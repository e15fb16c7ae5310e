"""Checks of the end-to-end benchmark itself (about 30 s).

    python3 -m pytest benchmarks/e2e/test_e2e.py -q

Not part of the tier-1 suite, which collects only ``tests/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from compare import verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_reports_every_declared_metric_for_every_workload(tmp_path):
    out = tmp_path / "smoke.json"
    proc = bench("--smoke", "--trace", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    line = last_line(proc)
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == 2 * len(DECLARED["workloads"])
    result = json.loads(out.read_text())["workloads"]
    trace = json.loads(out.with_name("smoke-trace.json").read_text())
    for workload in DECLARED["workloads"]:
        name = workload["name"]
        assert result[name]["failed_run_frac"] == 0
        for metric in DECLARED["end_to_end"]:
            reported = result[name]["end_to_end"][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert reported["value"] > 0
        for metric in DECLARED["per_layer"]:
            printed = line["metrics"][f"{name}/{metric['name']}"]
            assert printed["unit"] == metric["unit"]
        shares = [layer["share"] for layer in trace[name]["layers"].values()]
        assert abs(sum(shares) - 1.0) <= 0.01
        assert all(layer["self_s"] > 0 for layer in trace[name]["layers"].values())


def test_single_workload_prints_exactly_the_end_to_end_metrics():
    proc = bench(
        "--workload", "baseline-sphinx3", "--seed", "3", "--seconds", "0",
        "--trace", "0", "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    line = last_line(proc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in DECLARED["end_to_end"]
    }


def test_planted_fingerprint_mismatch_fails_the_run(tmp_path):
    pinned = json.loads((HERE / "expected_seed7.json").read_text())
    pinned["smoke"]["pcmap-canneal"]["engine.events"] += 1
    planted = tmp_path / "expected.json"
    planted.write_text(json.dumps(pinned))
    out = tmp_path / "planted.json"
    proc = bench(
        "--workload", "pcmap-canneal", "--seed", "7", "--smoke",
        "--expected", str(planted), "--out", str(out),
    )
    assert proc.returncode == 1
    line = last_line(proc)
    assert not line["correct"] and line["failed"] == line["attempted"] >= 1
    result = json.loads(out.read_text())["workloads"]["pcmap-canneal"]
    assert result["failed_run_frac"] > 0
    assert "pinned seed-7 value" in result["problems"][0]


def test_without_the_simulator_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = bench("--workload", "pcmap-canneal", "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(base, [80.0, 81.0, 79.0, 80.5, 79.5], 0.1, True, False)[0] == "regressed"
    assert verdict(base, [99.0, 100.0, 101.0, 100.0, 99.5], 0.1, True, False)[0] == "unchanged"
    assert verdict(base, [60.0, 140.0, 70.0, 130.0, 100.0], 0.1, True, False)[0] == "unresolved"
    faster = [105.0, 106.0, 104.0, 105.5, 104.5]
    assert verdict(base, faster, 0.1, True, True)[0] == "improved"
    # Lower is better: the same numbers read the other way.
    assert verdict(base, faster, 0.1, False, True)[0] == "unchanged"
    # Paired, but the new side wins only 3 of 5 pairs: no gain claimed.
    mixed = [102.0, 103.0, 98.0, 103.0, 99.0]
    assert verdict(base, mixed, 0.1, True, True)[0] == "unchanged"
