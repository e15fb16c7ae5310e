"""Campaign submission, progress and collection over the result cache.

The store records *which* jobs are done; the :class:`ResultCache` holds
*what* they produced, keyed by the same content hash.  Collection is
therefore a pure read: gather whatever results exist, in submission
order — over a finished campaign the list is byte-identical to a serial
``run_pairs`` of the same pairs, because each job's payload is a pure
function of its content-derived seed no matter which worker, host or
attempt computed it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.campaign.lease import LeasePolicy
from repro.sim.campaign.store import CampaignStore
from repro.sim.campaign.worker import Worker
from repro.sim.metrics import SimulationResult
from repro.sim.runner.cache import ResultCache
from repro.sim.runner.executor import SystemLike, WorkloadLike
from repro.sim.runner.jobs import SweepJob, content_hash
from repro.sim.simulator import SimulationParams


def default_campaign_name(jobs: Sequence[SweepJob]) -> str:
    """Deterministic name for an unnamed submission: the job-list hash."""
    return "c-" + content_hash([job.cache_key() for job in jobs])[:12]


def submit_pairs(
    store: CampaignStore,
    pairs: Sequence[Tuple[WorkloadLike, SystemLike]],
    params: Optional[SimulationParams] = None,
    campaign: Optional[str] = None,
) -> str:
    """Build jobs exactly like ``run_pairs`` would and enqueue them.

    Returns the campaign name.  Using the same ``SweepJob.build`` calls
    as the one-shot path is what makes the determinism contract testable:
    the durable campaign and the serial sweep run literally the same jobs.
    """
    jobs = [
        SweepJob.build(workload, system, params) for workload, system in pairs
    ]
    name = campaign or default_campaign_name(jobs)
    store.submit(name, jobs)
    return name


def collect_results(
    store: CampaignStore, cache: ResultCache, campaign: str
) -> Tuple[List[Optional[SimulationResult]], List[int]]:
    """Results in submission order; ``None`` holes where nothing exists.

    Second element lists the indices of ``done`` jobs whose cached result
    is missing or failed the cache's self-verification — the store and
    the cache disagree, and callers (resume, verify) requeue those.
    """
    slots: List[Optional[SimulationResult]] = []
    stale_done: List[int] = []
    for row in store.jobs_in_order(campaign):
        result = cache.get(str(row["key"]))
        slots.append(result)
        if result is None and row["state"] == "done":
            stale_done.append(int(row["job_index"]))
    return slots, stale_done


def verify_campaign_results(
    store: CampaignStore, cache: ResultCache, campaign: str
) -> int:
    """Requeue every ``done`` job whose cached payload is gone or corrupt.

    The cache already self-verifies (key + SHA-256 digest), so a corrupt
    entry reads as missing; the store's "done" claim is then a lie and the
    job recomputes.  Returns how many jobs were requeued.
    """
    _, stale_done = collect_results(store, cache, campaign)
    requeued = 0
    for job_index in stale_done:
        if store.requeue(campaign, job_index):
            requeued += 1
    return requeued


def campaign_progress(
    store: CampaignStore, campaign: str
) -> Dict[str, object]:
    """``repro status`` summary: counts, progress fraction, dead letters."""
    counts = store.counts(campaign)
    total = counts["total"]
    return {
        "campaign": campaign,
        "counts": {k: counts[k] for k in ("queued", "leased", "done", "failed")},
        "total": total,
        "progress": (counts["done"] / total) if total else 0.0,
        "dead_letters": [
            {
                "job_index": row["job_index"],
                "workload": row["workload"],
                "system": row["system"],
                "attempts": row["attempts"],
                "error": row["error"],
            }
            for row in store.dead_letters(campaign)
        ],
    }


def drain(
    store: CampaignStore,
    cache: ResultCache,
    campaign: str,
    worker_id: str = "inline",
) -> List[SimulationResult]:
    """Run an inline worker until ``campaign`` has nothing queued or
    leased, then collect; raises if jobs dead-lettered or a done job's
    cached result is missing.  The worker waits out leases held
    elsewhere, so when it returns every job is done or failed.
    """
    Worker(store, cache, worker_id=worker_id).run(campaign=campaign, once=True)
    counts = store.counts(campaign)
    if counts["failed"]:
        letters = store.dead_letters(campaign)
        raise RuntimeError(
            f"campaign {campaign!r} has {counts['failed']} dead-lettered "
            f"job(s); first error:\n{letters[0]['error']}"
        )
    slots, stale = collect_results(store, cache, campaign)
    if stale or any(result is None for result in slots):
        raise RuntimeError(
            f"campaign {campaign!r} is done but {len(stale)} cached "
            "result(s) are missing; run verify_campaign_results and resume"
        )
    return [result for result in slots if result is not None]


def resume_campaign(
    store: CampaignStore,
    cache: ResultCache,
    campaign: str,
    worker_id: str = "resume",
    reset_dead_letters: bool = False,
) -> List[SimulationResult]:
    """Finish a partially-run campaign in-process and return its results.

    Reclaims expired leases, requeues done-but-resultless jobs (store/
    cache disagreement after corruption) and optionally gives dead
    letters a fresh attempt budget, then drains inline.  Completed jobs
    are pure cache reads — resuming only computes what's missing.
    """
    store.expire_leases()
    verify_campaign_results(store, cache, campaign)
    if reset_dead_letters:
        for row in store.dead_letters(campaign):
            store.requeue(campaign, int(row["job_index"]))
    return drain(store, cache, campaign, worker_id=worker_id)


__all__ = [
    "LeasePolicy",
    "default_campaign_name",
    "submit_pairs",
    "collect_results",
    "verify_campaign_results",
    "campaign_progress",
    "drain",
    "resume_campaign",
]
