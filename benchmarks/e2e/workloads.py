"""The six end-to-end workloads and one cold repetition of each.

Imported by ``child.py`` inside a fresh process, so the imports below are
part of the repetition's measured set-up.  Every layer is reached through
its public entry point (``SystemSimulator``, ``run_pairs``, ``Telemetry``,
``make_front_end``); nothing under ``src/`` is instrumented.

Runs are cold: the simulator has no warm-up, and the DRAM tier and the
PCM row buffers start empty.
"""

from __future__ import annotations

import hashlib
import json
import resource
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

from repro.core.systems import SYSTEM_NAMES, make_front_end, make_system
from repro.sim.metrics import MemoryStats
from repro.sim.runner import ResultCache, run_pairs
from repro.sim.simulator import SimulationParams, SystemSimulator
from repro.telemetry import DEFAULT_CADENCE_TICKS, RingBufferSink, Telemetry

#: Scratch space for the sweep's result cache; inside the checkout because
#: the benchmark writes nowhere else.
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Pool size of the sweep-grid workload: the two cores of the reference
#: machine, so the benchmark never runs more than two busy processes.
GRID_JOBS = 2
GRID_TRACES = ("canneal", "freqmine", "sphinx3", "mcf", "lbm", "kvstore")


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``target_requests`` of the run (per job for the sweep grid).
    requests: int
    smoke_requests: int
    system: str = ""
    trace: str = ""
    #: Capacity of a DRAM tier in front of PCM (MB); 0 means no tier.
    tier_mb: float = 0.0
    #: Tracing into a ring buffer, time-series sampling and a metrics dump.
    observed: bool = False


# Why each workload is here (README.md has the full table):
#   pcmap-canneal     the ROADMAP reference config made long enough to time;
#                     RoW, WoW and rollbacks all active.  Its smoke size is
#                     the 3000-request reference run itself.
#   pcmap-freqmine    ~80% writes: WoW grouping, write-candidate scans and
#                     IRLP windows; a policy-chain change shows here.
#   baseline-sphinx3  read-dominated with the PCMap policy chain bypassed:
#                     a policy-chain change must show no gain here.
#   tier-canneal      the only workload where repro.cache runs and where
#                     tier write-backs reach PCM's RoW/WoW path.  A quarter
#                     MB evicts at 10k requests as 1 MB does at 40k: about
#                     one PCM write-back per seven requests.
#   observed-canneal  the instrumentation channel at full load.
#   sweep-grid        the only workload that runs repro.sim.runner.
# Sizes keep one repetition under a second, so that a 20 s run takes the
# median of 11 to 25; host speed on a shared VM drifts too much for the
# median of three longer ones to settle.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("pcmap-canneal", 10_000, 3_000, "rwow-rde", "canneal"),
        Workload("pcmap-freqmine", 8_000, 2_000, "rwow-rde", "freqmine"),
        Workload("baseline-sphinx3", 12_500, 4_000, "baseline", "sphinx3"),
        Workload("tier-canneal", 10_000, 4_000, "rwow-rde", "canneal", tier_mb=0.25),
        Workload("observed-canneal", 5_000, 2_000, "rwow-rde", "canneal", observed=True),
        Workload("sweep-grid", 500, 300),
    )
}


def measure(
    name: str, seed: int, spawned_at: float, smoke: bool,
    on_setup_done: Callable[[], None] = lambda: None,
) -> dict:
    """Run one cold repetition of workload ``name``; return its record.

    ``spawned_at`` is the parent's ``time.monotonic()`` just before it
    started this process, so ``setup_s`` covers interpreter start, the
    imports and building the simulator (or the sweep's job list).
    ``on_setup_done`` runs between set-up and the timed run.
    """
    workload = WORKLOADS[name]
    requests = workload.smoke_requests if smoke else workload.requests
    if name == "sweep-grid":
        record = _measure_grid(seed, requests, spawned_at, on_setup_done)
    else:
        record = _measure_simulator(
            workload, seed, requests, spawned_at, on_setup_done
        )
    record["peak_rss_mb"] = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0
    return record


def _measure_simulator(
    workload: Workload, seed: int, requests: int, spawned_at: float,
    on_setup_done: Callable[[], None],
) -> dict:
    extra: dict = {}
    if workload.tier_mb:
        extra["front_end"] = make_front_end("dram", capacity_mb=workload.tier_mb)
    if workload.observed:
        extra["sample_every_ticks"] = DEFAULT_CADENCE_TICKS
        extra["collect_metrics"] = True
    telemetry = (
        Telemetry.recording([RingBufferSink()]) if workload.observed else None
    )
    params = SimulationParams(target_requests=requests, seed=seed, **extra)
    sim = SystemSimulator(
        make_system(workload.system), workload.trace, params, telemetry
    )
    setup_s = time.monotonic() - spawned_at
    on_setup_done()

    start = time.perf_counter()
    result = sim.run()
    wall_s = time.perf_counter() - start

    stats = result.memory
    cores = sim.multicore.cores
    reads_issued = sum(core.reads_issued for core in cores)
    writes_issued = sum(core.writes_issued for core in cores)
    counts = {
        "engine.events": result.profile.events_dispatched,
        "engine.sim_ticks": result.sim_ticks,
        **_memory_counts(stats),
        "cpu.rollbacks": sum(core.rollback_model.rollbacks for core in cores),
        **_tier_counts(result.frontend or {}),
        "telemetry.trace_events": getattr(sim.telemetry.tracer, "emitted", 0),
        "telemetry.samples": (
            sim.sampler.series.total_samples if sim.sampler is not None else 0
        ),
        "runner.jobs": 0,
    }
    violations = _violations(sim, result, reads_issued, writes_issued)
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "requests": reads_issued + writes_issued,
        "jobs": 1,
        # One simulation has no sweep runner around it: its overhead is
        # the process's wall outside the simulation (set-up, collection).
        "runner_overhead_s": time.monotonic() - spawned_at - wall_s,
        "sim": _sim_metrics([result]),
        "counts": counts,
        "fingerprint": {
            "requests": reads_issued + writes_issued,
            **{k: v for k, v in counts.items() if isinstance(v, int)},
        },
        "violations": violations,
    }


def _memory_counts(stats) -> dict:
    """Per-layer counts of the PCM controllers and the PCMap policy chain."""
    return {
        "memory.reads": stats.reads_completed,
        "memory.writes": stats.writes_completed,
        "memory.delayed_read_frac": stats.delayed_read_fraction,
        "memory.row_buffer_hit_rate": stats.row_buffer_hit_rate,
        "memory.forwarded_reads": stats.forwarded_reads,
        "memory.drain_entries": stats.drain_entries,
        "core.row_reads": stats.row_reads,
        "core.wow_groups": stats.wow_groups,
        "core.wow_member_writes": stats.wow_member_writes,
        "core.verifies": stats.verify_count,
        "core.silent_writes": stats.silent_writes,
    }


def _tier_counts(summary: dict) -> dict:
    """The DRAM tier's scoreboard; zeros on the direct path."""
    names = ("read_hits", "read_misses", "coalesced", "write_backs", "fill_rollbacks")
    counts = {f"cache.{name}": summary.get(name, 0) for name in names}
    counts["cache.hit_rate"] = summary.get("hit_rate", 0.0)
    return counts


def _sim_metrics(results) -> dict:
    """The paper's Fig. 8-11 quantities, averaged over ``results``."""
    n = len(results)
    return {
        "sim_ipc": sum(r.ipc for r in results) / n,
        "sim_read_latency_mean_ns": sum(r.mean_read_latency_ns for r in results) / n,
        "sim_write_throughput_per_us": sum(r.write_throughput for r in results) / n,
        "sim_irlp": sum(r.irlp_average for r in results) / n,
    }


def _violations(sim, result, reads_issued: int, writes_issued: int) -> List[str]:
    """Facts the simulator records twice that disagree (empty when sound).

    The metrics registry and ``MemoryStats`` are written by separate code
    on the same events; the cores and the tier (or the controllers on the
    direct path) count the same requests from both ends.
    """
    stats = result.memory
    registry = sim.telemetry.metrics
    pairs = [
        ("reads.completed", registry.value("reads.completed"), stats.reads_completed),
        ("row.reads", registry.value("row.reads"), stats.row_reads),
        ("wow.groups", registry.value("wow.groups"), stats.wow_groups),
        ("wow.member_writes", registry.value("wow.member_writes"), stats.wow_member_writes),
        ("rollbacks", registry.value("rollbacks"), stats.rollbacks),
        ("verifications", registry.value("verifications"), stats.verify_count),
        ("reads.forwarded", registry.value("reads.forwarded"), stats.forwarded_reads),
        ("drain.entries", registry.value("drain.entries"), stats.drain_entries),
    ]
    cpu_rollbacks = sum(core.rollback_model.rollbacks for core in sim.multicore.cores)
    if result.frontend is None:
        pairs += [
            ("writes issued vs completed", writes_issued, stats.writes_completed),
            ("cpu vs memory rollbacks", cpu_rollbacks, stats.rollbacks),
        ]
    else:
        tier = result.frontend
        pairs += [
            ("tier reads vs reads issued", tier["reads"], reads_issued),
            ("tier writes vs writes issued", tier["writes"], writes_issued),
            ("frontend.hits", registry.value("frontend.hits"), tier["read_hits"] + tier["write_hits"]),
            ("frontend.fills", registry.value("frontend.fills"), tier["fills"]),
            ("frontend.write_backs", registry.value("frontend.write_backs"), tier["write_backs"]),
        ]
    return [f"{label}: {a} != {b}" for label, a, b in pairs if a != b]


def _measure_grid(
    seed: int, requests: int, spawned_at: float,
    on_setup_done: Callable[[], None],
) -> dict:
    pairs = [(trace, system) for trace in GRID_TRACES for system in SYSTEM_NAMES]
    params = SimulationParams(target_requests=requests, seed=seed)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="grid-cache-") as tmp:
        cache = ResultCache(tmp)
        setup_s = time.monotonic() - spawned_at
        on_setup_done()
        start = time.perf_counter()
        results = run_pairs(pairs, params, jobs=GRID_JOBS, cache=cache)
        wall_s = time.perf_counter() - start
        writes = cache.stats.writes

    merged = MemoryStats()
    for result in results:
        merged.merge(result.memory)
    events = sum(r.profile.events_dispatched for r in results)
    job_wall = sum(r.profile.wall_seconds for r in results)
    counts = {
        "engine.events": events,
        "engine.sim_ticks": sum(r.sim_ticks for r in results),
        **_memory_counts(merged),
        # Direct-path jobs only: the cores' rollbacks are the memory's.
        "cpu.rollbacks": sum(r.memory.rollbacks for r in results),
        **_tier_counts({}),
        "telemetry.trace_events": 0,
        "telemetry.samples": 0,
        "runner.jobs": len(results),
    }
    per_job = [
        [
            r.workload_name, r.system_name, r.profile.events_dispatched,
            r.sim_ticks, r.memory.reads_completed, r.memory.writes_completed,
            r.memory.row_reads, r.memory.wow_groups, r.memory.rollbacks,
        ]
        for r in results
    ]
    digest = hashlib.sha256(json.dumps(per_job).encode("utf-8")).hexdigest()
    violations = []
    if [(r.workload_name, r.system_name) for r in results] != pairs:
        violations.append("results are not in job order")
    if writes != len(pairs):
        violations.append(f"fresh cache stored {writes} of {len(pairs)} results")
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "requests": sum(
            r.memory.reads_completed + r.memory.writes_completed for r in results
        ),
        "jobs": len(results),
        "runner_overhead_s": wall_s - job_wall / GRID_JOBS,
        "sim": _sim_metrics(results),
        "counts": counts,
        "fingerprint": {"jobs": len(results), "events": events, "sha256": digest},
        "violations": violations,
    }
