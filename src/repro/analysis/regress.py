"""Cross-run regression sentinel (``repro regress``).

Pins a *metrics fingerprint* — a curated set of end-of-run metrics from
one deterministic reference simulation (the perf suite's
rwow-rde/canneal run) — into ``benchmarks/results/BENCH_perf.json`` and
diffs fresh runs against it with per-metric tolerance bands.  Counters
and engine fingerprints are integer-deterministic for a given (seed,
budget), so their band is exact; float metrics get a hair of relative
tolerance for arithmetic-order differences.

The fingerprint run samples at the default cadence with metrics
collection on, so it simultaneously pins the acceptance guarantee that
enabled sampling leaves ``events_dispatched``/``sim_ticks`` untouched.

``compare_fingerprints`` returns breach strings (empty = pass);
``selftest`` plants a perturbed baseline and verifies the sentinel
actually fires — a watchdog that cannot bark is worse than none.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.sim.metrics import SimulationResult
from repro.telemetry.timeseries import DEFAULT_CADENCE_TICKS

#: The reference configuration (rwow-rde on canneal, timing-only) that
#: the perf suite's timeseries and tracing benchmarks also run; at full
#: budget it is the 6150-event / 364931-tick reference run.
FINGERPRINT_SEED = 7
FULL_TARGET_REQUESTS = 3000
SMOKE_TARGET_REQUESTS = 600
#: DRAM-tier size of the front-end legs: 16 KiB evicts, so its write-backs
#: reach PCM (a tier that never evicts pins PCM writes, RoW and WoW at 0).
FRONTEND_CAPACITY_MB = 1 / 64

#: Metrics lifted from the registry dump into the fingerprint.  Integer
#: counters/gauges compare exactly; float entries by relative band.
_REGISTRY_METRICS = (
    "engine.events_dispatched",
    "engine.sim_ticks",
    "requests.read.enqueued",
    "requests.write.enqueued",
    "reads.completed",
    "reads.forwarded",
    "reads.delayed_by_write",
    "writes.completed",
    "rollbacks",
    "verifications",
    "wow.groups",
    "row.reads",
    "drain.entries",
)

#: Float tolerance (relative) for non-integer fingerprint metrics.
FLOAT_REL_TOL = 1e-6


#: Front-end summary counters pinned by the frontend fingerprint leg
#: (all integer-deterministic for a given seed/budget).
_FRONTEND_SUMMARY_KEYS = (
    "reads",
    "writes",
    "read_hits",
    "read_misses",
    "write_hits",
    "write_misses",
    "coalesced",
    "fills",
    "write_backs",
    "fill_rollbacks",
)


def fingerprint_params(
    smoke: bool = False,
    seed: int = FINGERPRINT_SEED,
    front_end=None,
):
    """Observability-enabled params of the reference run."""
    from repro.sim.simulator import SimulationParams

    kwargs = {}
    if front_end is not None:
        kwargs["front_end"] = front_end
    return SimulationParams(
        target_requests=(
            SMOKE_TARGET_REQUESTS if smoke else FULL_TARGET_REQUESTS
        ),
        seed=seed,
        sample_every_ticks=DEFAULT_CADENCE_TICKS,
        collect_metrics=True,
        **kwargs,
    )


def fingerprint_from_result(result: SimulationResult, smoke: bool) -> dict:
    """Extract the pinned metric set from a collected reference run."""
    if result.metrics is None:
        raise ValueError("fingerprint needs a run with collect_metrics=True")
    metrics: Dict[str, Union[int, float]] = {}
    for name in _REGISTRY_METRICS:
        entry = result.metrics.get(name)
        if entry is not None:
            metrics[name] = entry["value"]
    latency = result.metrics.get("read.latency_ns")
    if latency is not None:
        for key in ("count", "p50", "p95", "p99", "min", "max"):
            metrics[f"read.latency_ns.{key}"] = latency[key]
    metrics["irlp_average"] = result.irlp_average
    metrics["delayed_read_fraction"] = result.memory.delayed_read_fraction
    if result.frontend is not None:
        for key in _FRONTEND_SUMMARY_KEYS:
            if key in result.frontend:
                metrics[f"frontend.{key}"] = result.frontend[key]
        metrics["frontend.hit_rate"] = result.frontend["hit_rate"]
    return {
        "config": {
            "system": result.system_name,
            "workload": result.workload_name,
            "target_requests": (
                SMOKE_TARGET_REQUESTS if smoke else FULL_TARGET_REQUESTS
            ),
            "seed": result.seed,
            "sample_every_ticks": DEFAULT_CADENCE_TICKS,
            "front_end": (
                result.frontend["kind"] if result.frontend else "none"
            ),
        },
        "metrics": metrics,
    }


def collect_fingerprint(
    smoke: bool = False, seed: int = FINGERPRINT_SEED
) -> dict:
    """Run the reference simulation and fingerprint it."""
    from repro.core.systems import make_rwow_rde
    from repro.sim.simulator import simulate

    result = simulate(
        make_rwow_rde(), "canneal", fingerprint_params(smoke, seed)
    )
    return fingerprint_from_result(result, smoke)


def collect_frontend_fingerprint(
    smoke: bool = False, seed: int = FINGERPRINT_SEED
) -> dict:
    """Fingerprint of the reference run with the timed DRAM tier in front.

    Same system/workload/budget as :func:`collect_fingerprint` but with
    ``front_end=dram`` at :data:`FRONTEND_CAPACITY_MB` (recorded in the
    config), so the pinned metrics additionally carry the tier's
    hit/miss/fill/write-back scoreboard and the PCM writes behind it.
    This is the leg that holds the tier's probe/install/evict path
    behaviourally frozen across revisions.
    """
    from repro.core.systems import make_front_end, make_rwow_rde
    from repro.sim.simulator import simulate

    front_end = make_front_end("dram", capacity_mb=FRONTEND_CAPACITY_MB)
    result = simulate(
        make_rwow_rde(), "canneal", fingerprint_params(smoke, seed, front_end)
    )
    fingerprint = fingerprint_from_result(result, smoke)
    fingerprint["config"]["capacity_mb"] = FRONTEND_CAPACITY_MB
    return fingerprint


def collect_fingerprints(seed: int = FINGERPRINT_SEED) -> dict:
    """Every pinned leg, keyed by budget — what BENCH_perf.json carries.

    ``smoke``/``full`` are the historical direct-path legs;
    ``frontend_smoke``/``frontend_full`` run the same reference
    configuration through the timed DRAM tier.
    """
    return {
        "smoke": collect_fingerprint(smoke=True, seed=seed),
        "full": collect_fingerprint(smoke=False, seed=seed),
        "frontend_smoke": collect_frontend_fingerprint(smoke=True, seed=seed),
        "frontend_full": collect_frontend_fingerprint(smoke=False, seed=seed),
    }


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def compare_fingerprints(
    baseline: dict,
    current: dict,
    float_rel_tol: float = FLOAT_REL_TOL,
) -> List[str]:
    """Diff two fingerprints; returns breach messages (empty = pass).

    Integer-valued baseline metrics must match exactly; float metrics
    get ``float_rel_tol`` of relative headroom.  Metrics missing from
    either side are breaches — a fingerprint that silently shrinks
    stops guarding anything.
    """
    breaches: List[str] = []
    if baseline.get("config") != current.get("config"):
        breaches.append(
            f"config mismatch: baseline {baseline.get('config')!r} "
            f"vs current {current.get('config')!r}"
        )
    base_metrics = baseline.get("metrics", {})
    cur_metrics = current.get("metrics", {})
    for name in sorted(set(base_metrics) | set(cur_metrics)):
        if name not in base_metrics:
            breaches.append(f"{name}: missing from baseline (new metric?)")
            continue
        if name not in cur_metrics:
            breaches.append(f"{name}: missing from current run")
            continue
        expected, actual = base_metrics[name], cur_metrics[name]
        if isinstance(expected, int) and isinstance(actual, int):
            if actual != expected:
                breaches.append(
                    f"{name}: {actual} != pinned {expected} (exact band)"
                )
        else:
            band = abs(float(expected)) * float_rel_tol
            if abs(float(actual) - float(expected)) > band:
                breaches.append(
                    f"{name}: {actual!r} outside ±{float_rel_tol:g} rel "
                    f"of pinned {expected!r}"
                )
    return breaches


def format_comparison(
    baseline: dict, current: dict, breaches: List[str]
) -> str:
    """Human-readable sentinel report."""
    from repro.analysis.report import format_table

    rows = []
    base_metrics = baseline.get("metrics", {})
    cur_metrics = current.get("metrics", {})
    for name in sorted(set(base_metrics) | set(cur_metrics)):
        expected = base_metrics.get(name, "—")
        actual = cur_metrics.get(name, "—")
        status = "ok"
        if any(breach.startswith(f"{name}:") for breach in breaches):
            status = "BREACH"
        rows.append([name, expected, actual, status])
    config = baseline.get("config", {})
    title = (
        f"regression sentinel: {config.get('system')}/"
        f"{config.get('workload')} seed {config.get('seed')} "
        f"({len(breaches)} breach(es))"
    )
    return format_table(["metric", "pinned", "current", "status"], rows, title)


# ----------------------------------------------------------------------
# Baseline file plumbing
# ----------------------------------------------------------------------
def load_baseline(
    path: Union[str, Path], smoke: bool, frontend: bool = False
) -> dict:
    """The pinned fingerprint for one budget/leg from BENCH_perf.json."""
    with open(path) as handle:
        payload = json.load(handle)
    section = payload.get("metrics_fingerprint")
    if not section:
        raise ValueError(
            f"{path} has no metrics_fingerprint section; run "
            f"`repro regress --update` (or regenerate the perf suite)"
        )
    key = ("frontend_" if frontend else "") + ("smoke" if smoke else "full")
    if key not in section:
        raise ValueError(f"{path} metrics_fingerprint lacks {key!r} budget")
    return section[key]


def update_baseline(path: Union[str, Path], seed: int = FINGERPRINT_SEED) -> dict:
    """Re-pin every budget/leg fingerprint in BENCH_perf.json (atomic)."""
    from repro.sim.results_io import atomic_write_text

    path = Path(path)
    payload = json.loads(path.read_text()) if path.exists() else {}
    fingerprints = collect_fingerprints(seed)
    payload["metrics_fingerprint"] = fingerprints
    atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=False))
    return fingerprints


# ----------------------------------------------------------------------
# Selftest: the sentinel must fire on a planted regression
# ----------------------------------------------------------------------
def selftest(current: Optional[dict] = None) -> List[str]:
    """Verify breach detection end to end; returns failures (empty = ok).

    Plants a regression by perturbing a copy of the current fingerprint
    (one counter off by one, one float nudged past the band) and checks
    the comparison flags exactly those — and nothing on the clean pair.
    """
    failures: List[str] = []
    if current is None:
        current = collect_fingerprint(smoke=True)
    clean = compare_fingerprints(current, current)
    if clean:
        failures.append(f"clean self-compare reported breaches: {clean}")

    planted = json.loads(json.dumps(current))
    planted["metrics"]["reads.completed"] += 1
    planted["metrics"]["irlp_average"] *= 1.01
    breaches = compare_fingerprints(planted, current)
    if not any(b.startswith("reads.completed:") for b in breaches):
        failures.append("planted counter regression was not detected")
    if not any(b.startswith("irlp_average:") for b in breaches):
        failures.append("planted float regression was not detected")

    missing = json.loads(json.dumps(current))
    del missing["metrics"]["rollbacks"]
    if not compare_fingerprints(missing, current):
        failures.append("missing-metric drift was not detected")
    return failures
