"""Shared fixtures for the campaign suite.

Two kinds of jobs appear in these tests:

* *Real* jobs (``tiny_pairs`` scale) actually simulate — the fault and
  determinism tests need genuine results so the byte-identity oracle
  (:func:`repro.sim.results_io.results_digest`) means something.
* *Fabricated* results (:func:`fake_result`) skip simulation entirely —
  the store and worker tests only exercise the queue protocol, so
  each "execution" just mints a deterministic result from the job seed.

The ``fast_policy`` fixture removes every real-time wait (zero backoff,
short leases) so protocol tests run in milliseconds; tests that *are*
about backoff or expiry construct their own policies with explicit
``now=`` clocks instead of sleeping.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import pytest

from repro.sim.campaign import CampaignStore, LeasePolicy
from repro.sim.metrics import MemoryStats, SimulationResult
from repro.sim.runner.cache import ResultCache
from repro.sim.runner.jobs import SweepJob
from repro.sim.simulator import SimulationParams

#: Small enough that a real simulation finishes in well under a second.
TINY = SimulationParams(target_requests=120, n_cores=2, seed=7)

#: The default two-job campaign used by the end-to-end tests.
TINY_PAIRS: List[Tuple[str, str]] = [("MP3", "baseline"), ("MP3", "rwow-rde")]

#: No waiting in protocol tests: leases are short, retries immediate.
FAST_POLICY = LeasePolicy(
    lease_seconds=5.0,
    heartbeat_seconds=0.1,
    max_attempts=3,
    backoff_base=0.0,
    backoff_cap=0.0,
)


def tiny_jobs(
    pairs: Sequence[Tuple[str, str]] = tuple(TINY_PAIRS),
    params: SimulationParams = TINY,
) -> List[SweepJob]:
    return [SweepJob.build(w, s, params) for w, s in pairs]


def job_pool(n: int) -> List[SweepJob]:
    """``n`` distinct jobs (distinct cache keys) without simulating any."""
    pairs = [
        (w, s)
        for w in ("MP1", "MP2", "MP3")
        for s in ("baseline", "rwow-rde")
    ]
    jobs: List[SweepJob] = []
    seed = 1
    while len(jobs) < n:
        for workload, system in pairs:
            if len(jobs) >= n:
                break
            jobs.append(
                SweepJob.build(
                    workload,
                    system,
                    SimulationParams(target_requests=60, seed=seed),
                )
            )
        seed += 1
    return jobs


def fake_result(job: SweepJob) -> SimulationResult:
    """Deterministic fabricated result — a pure function of the job seed.

    Survives the cache's ``result_to_dict`` round trip, so worker tests
    can treat it exactly like a real simulation payload.
    """
    seed = job.params.seed
    memory = MemoryStats(
        reads_completed=seed % 97 + 1,
        writes_completed=seed % 89 + 1,
        read_latency_ticks=(seed % 97 + 1) * 40,
    )
    return SimulationResult(
        system_name=job.system.name,
        workload_name=job.workload.name,
        sim_ticks=100_000 + seed,
        instructions=50_000 + seed,
        cpu_cycles=20_000 + seed,
        memory=memory,
        irlp_average=float(seed % 8),
        irlp_max=8.0,
        write_service_busy_ticks=10_000 + seed,
        seed=seed,
    )


def worker_env(inject: Optional[str] = None) -> dict:
    """Environment for ``repro worker`` subprocesses.

    Makes the in-repo ``src`` importable regardless of how pytest itself
    was launched, and binds the fault-injection hook when asked.
    """
    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if inject is not None:
        env["REPRO_CAMPAIGN_INJECT"] = inject
    else:
        env.pop("REPRO_CAMPAIGN_INJECT", None)
    return env


def worker_argv(
    store_path, cache_dir, *extra: str
) -> List[str]:
    return [
        sys.executable, "-m", "repro", "worker",
        "--store", str(store_path), "--cache-dir", str(cache_dir),
        *extra,
    ]


@pytest.fixture
def store(tmp_path) -> CampaignStore:
    s = CampaignStore(tmp_path / "campaign.sqlite", policy=FAST_POLICY)
    yield s
    s.close()


@pytest.fixture
def cache(tmp_path) -> ResultCache:
    return ResultCache(tmp_path / "cache")
