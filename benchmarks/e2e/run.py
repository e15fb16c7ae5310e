"""End-to-end benchmark of the PCMap simulator.

    python3 benchmarks/e2e/run.py --seed 7              # six workloads, 5 reps each
    python3 benchmarks/e2e/run.py --seed 7 --trace 1    # + the per-layer traced pass
    python3 benchmarks/e2e/run.py --workload pcmap-canneal --seed 3 --seconds 20
    python3 benchmarks/e2e/run.py --smoke               # short sizes, 1 rep

Workloads run round-robin, and every repetition is a fresh child process
(``child.py``), so each one pays the cold start a user pays.  Host metrics
are medians over the repetitions.  Every repetition is checked: facts the
simulator records twice must agree, all repetitions must produce the same
fingerprint, and at seed 7 it must equal the one pinned in
``expected_seed7.json``.  With ``--trace 1`` each workload then runs once
more under cProfile and the per-layer metrics are reported instead of the
end-to-end ones.  Results go to ``out/``; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from child import LAYERS

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUT_DIR = HERE / "out"
EXPECTED = HERE / "expected_seed7.json"
PINNED_SEED = 7

#: Workload and metric names and units come from BENCHMARK.json, which
#: needs no simulator import: this module must run (and fail cleanly)
#: without the simulator.
DECLARED = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in DECLARED["workloads"])

#: How each end-to-end metric is read off one repetition's record.
END_TO_END = {
    "requests_per_s": lambda r: r["requests"] / r["wall_s"],
    "jobs_per_s": lambda r: r["jobs"] / r["wall_s"],
    "setup_s": lambda r: r["setup_s"],
    "peak_rss_mb": lambda r: r["peak_rss_mb"],
}

#: One invocation ends within 180 s, however many workloads it runs: no
#: untraced repetition starts after DEADLINE_S, and any child still
#: running at HARD_LIMIT_S is killed.
DEADLINE_S = 140.0
HARD_LIMIT_S = 175.0


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quartiles(values: List[float]) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(values: List[float], unit: str) -> dict:
    q1, median, q3 = quartiles(values)
    return {
        "value": median, "unit": unit, "n": len(values),
        "q1": q1, "q3": q3, "samples": values,
    }


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, smoke: bool, profile: bool, timeout: float):
    """Run one repetition in a fresh process; ``(record, error)``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    spawned_at = time.monotonic()
    command = [
        sys.executable, str(HERE / "child.py"), workload, str(seed),
        repr(spawned_at),
    ]
    command += ["--smoke"] * smoke + ["--profile"] * profile
    # A session of its own, so a timed-out sweep's pool workers die too.
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"exit {proc.returncode}: {tail[0]}"
    try:
        return json.loads(stdout.strip().splitlines()[-1]), None
    except (IndexError, json.JSONDecodeError):
        return None, "child printed no record"


class WorkloadRuns:
    """Every repetition of one workload and the checks on each."""

    def __init__(self, name: str, expected: Optional[dict]):
        self.name = name
        self.expected = expected
        self.records: List[dict] = []
        self.traced: Optional[dict] = None
        self.attempted = 0
        self.problems: List[str] = []
        self.failed = 0
        self.spent_s = 0.0
        self.last_s = 0.0

    def add(self, record: Optional[dict], error: Optional[str]) -> None:
        self.attempted += 1
        if record is None:
            self._fail(f"repetition {self.attempted}: {error}")
            return
        problems = list(record["violations"])
        fingerprint = record["fingerprint"]
        if self.expected is not None and fingerprint != self.expected:
            problems.append(
                f"fingerprint {json.dumps(fingerprint, sort_keys=True)} "
                f"differs from the pinned seed-{PINNED_SEED} value"
            )
        reference = self.records[0]["fingerprint"] if self.records else None
        if reference is not None and fingerprint != reference:
            problems.append("fingerprint differs from the first repetition")
        if "profile" in record:
            self.traced = record
        else:
            self.records.append(record)
        if problems:
            self._fail(f"repetition {self.attempted}: " + "; ".join(problems))

    def _fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)
        print(f"FAILED {self.name} {problem}", file=sys.stderr)

    # ------------------------------------------------------------------
    def end_to_end(self) -> Dict[str, dict]:
        return {
            m["name"]: summarize(
                [END_TO_END[m["name"]](r) for r in self.records], m["unit"]
            )
            for m in DECLARED["end_to_end"]
        }

    def trace_report(self) -> dict:
        """The traced repetition by layer.

        Self time covers the whole cold repetition (imports, set-up and
        run); calls per event count the run alone.
        """
        traced = self.traced
        setup, run = traced["profile"]["setup"], traced["profile"]["run"]
        events = traced["counts"]["engine.events"]
        self_s = {
            layer: setup["self_s"][layer] + run["self_s"][layer]
            for layer in LAYERS
        }
        profiled_s = sum(self_s.values())
        untraced_wall = statistics.median(
            r["setup_s"] + r["wall_s"] for r in self.records
        )
        return {
            "profiled_s": profiled_s,
            "tracing_overhead":
                (traced["setup_s"] + traced["wall_s"]) / untraced_wall,
            "calls_per_event": sum(run["calls"].values()) / events,
            "layers": {
                layer: {
                    "self_s": self_s[layer],
                    "share": self_s[layer] / profiled_s,
                    "setup_self_s": setup["self_s"][layer],
                    "run_self_s": run["self_s"][layer],
                    "run_calls": run["calls"][layer],
                    "calls_per_event": run["calls"][layer] / events,
                }
                for layer in LAYERS
            },
            "gc": traced["profile"]["gc"],
            "edges": {"setup": setup["edges"], "run": run["edges"]},
        }

    def simulated(self) -> dict:
        """Deterministic values of the run: equal in every repetition."""
        return {**self.records[0]["sim"], **self.records[0]["counts"]}

    def per_layer(self) -> Dict[str, dict]:
        """Every declared per-layer metric, with its declared unit."""
        report = self.trace_report()
        values = self.simulated()
        for layer, entry in report["layers"].items():
            for key in ("self_s", "share", "calls_per_event"):
                values[f"{layer}.{key}"] = entry[key]
        values["calls_per_event"] = report["calls_per_event"]
        values["gc.pause_s"] = report["gc"]["pause_s"]
        values["gc.collections"] = report["gc"]["collections"]
        values["tracing_overhead"] = report["tracing_overhead"]
        values["engine.events_per_s"] = values["engine.events"] / statistics.median(
            r["wall_s"] for r in self.records
        )
        values["runner.overhead_s"] = statistics.median(
            r["runner_overhead_s"] for r in self.records
        )
        return {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in DECLARED["per_layer"]
        }


def run(args) -> Dict[str, WorkloadRuns]:
    expected = {}
    if args.seed == PINNED_SEED:
        pinned = json.loads(Path(args.expected).read_text())
        expected = pinned["smoke" if args.smoke else "full"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {name: WorkloadRuns(name, expected.get(name)) for name in names}
    min_reps = 1 if args.smoke else (3 if args.seconds else 5)
    started = time.monotonic()

    def elapsed() -> float:
        return time.monotonic() - started

    def repeat(workload: WorkloadRuns, profile: bool) -> None:
        began = time.monotonic()
        workload.add(*spawn(
            workload.name, args.seed, args.smoke, profile,
            HARD_LIMIT_S - elapsed(),
        ))
        workload.last_s = time.monotonic() - began
        workload.spent_s += workload.last_s
        print(
            f"{workload.name}: repetition {workload.attempted} done",
            file=sys.stderr,
        )

    # Another round starts while some workload's budget still fits one
    # more repetition as long as its last one.
    rounds = 0
    while elapsed() < DEADLINE_S and (rounds < min_reps or any(
        w.spent_s + w.last_s <= args.seconds for w in runs.values()
    )):
        for workload in runs.values():
            repeat(workload, profile=False)
        rounds += 1
    if args.trace:
        for workload in runs.values():
            if workload.records:
                repeat(workload, profile=True)
    return runs


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument(
        "--seconds", type=float, default=0.0,
        help="keep repeating each workload until this much time is spent on it",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="short sizes, 1 rep")
    parser.add_argument("--expected", default=str(EXPECTED), help=argparse.SUPPRESS)
    parser.add_argument("--out", help="result file (default: out/<workload>-seed<N>.json)")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: simulator sources not found at {SRC}", file=sys.stderr)
        return 2

    runs = run(args)
    measured = [w for w in runs.values() if w.records]
    if len(measured) != len(runs) or (args.trace and any(
        w.traced is None for w in runs.values()
    )):
        print("error: a workload produced no measurement", file=sys.stderr)
        return 1

    results, traces, metrics = {}, {}, {}
    for w in runs.values():
        end_to_end = w.end_to_end()
        per_layer = w.per_layer() if args.trace else {}
        results[w.name] = {
            "attempted": w.attempted,
            "failed": w.failed,
            "failed_run_frac": w.failed / w.attempted,
            "problems": w.problems,
            "fingerprint": w.records[0]["fingerprint"],
            "simulated": w.simulated(),
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }
        for name, value in (per_layer if args.trace else end_to_end).items():
            key = name if len(runs) == 1 else f"{w.name}/{name}"
            metrics[key] = {"value": value["value"], "unit": value["unit"]}
        if args.trace:
            traces[w.name] = w.trace_report()
        print_workload(w.name, results[w.name])

    stem = f"{args.workload}-seed{args.seed}" + "-smoke" * args.smoke
    out = Path(args.out) if args.out else OUT_DIR / f"{stem}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = {"seed": args.seed, "smoke": args.smoke, "workloads": results}
    out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"results: {out}")
    if args.trace:
        trace_path = out.with_name(out.stem + "-trace.json")
        trace_path.write_text(json.dumps(traces, indent=1) + "\n")
        print(f"trace: {trace_path}")

    attempted = sum(w.attempted for w in runs.values())
    failed = sum(w.failed for w in runs.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def print_workload(name: str, result: dict) -> None:
    print(
        f"{name}: {result['attempted']} runs, "
        f"failed_run_frac {result['failed_run_frac']:.3f}"
    )
    for metric, s in result["end_to_end"].items():
        spread = (s["q3"] - s["q1"]) / s["value"]
        print(
            f"  {metric:<16} {s['value']:>14.6g} {s['unit']:<4} "
            f"(median of {s['n']}, IQR {spread:.1%})"
        )
    for metric, s in result["per_layer"].items():
        print(f"  {metric:<34} {s['value']:>14.6g} {s['unit']}")


if __name__ == "__main__":
    sys.exit(main())
