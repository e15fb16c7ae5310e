"""Crash-recovery fault harness: real subprocess workers, real SIGKILL.

The headline scenario of durable campaigns: a ``repro worker``
subprocess is killed -9 mid-job (held open by the
``REPRO_CAMPAIGN_INJECT=sleep:...`` hook), its lease expires, the job is
re-leased and recomputed, and the finished campaign's results digest is
byte-identical to a serial ``run_pairs`` of the same pairs.  The other
tests corrupt the SQLite store and a cache entry and check the failure
modes the design promises: loud ``StoreCorruptError`` for the store,
silent requeue-and-recompute for the cache.
"""

from __future__ import annotations

import subprocess
import time

import pytest

from repro.sim.campaign import (
    CampaignStore,
    LeasePolicy,
    StoreCorruptError,
    Worker,
    resume_campaign,
    submit_pairs,
    verify_campaign_results,
)
from repro.sim.results_io import results_digest
from repro.sim.runner import run_pairs
from repro.sim.runner.cache import ResultCache

from tests.campaign.conftest import (
    TINY,
    TINY_PAIRS,
    job_pool,
    worker_argv,
    worker_env,
)

pytestmark = [pytest.mark.campaign, pytest.mark.faults]


@pytest.fixture(scope="module")
def serial_reference():
    return results_digest(run_pairs(TINY_PAIRS, TINY, jobs=1))


def wait_for(predicate, timeout=60.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def test_sigkilled_worker_is_relieved_and_results_match(
    tmp_path, serial_reference
):
    store = CampaignStore(
        tmp_path / "kill.sqlite",
        policy=LeasePolicy(
            lease_seconds=1.0, max_attempts=5,
            backoff_base=0.0, backoff_cap=0.0,
        ),
    )
    cache = ResultCache(tmp_path / "cache")
    campaign = submit_pairs(store, TINY_PAIRS, TINY, campaign="kill")

    # A worker subprocess leases the first job and stalls inside it
    # (inject hook), heartbeating all the while.
    proc = subprocess.Popen(
        worker_argv(
            store.path, cache.directory,
            "--campaign", campaign, "--lease", "1",
        ),
        env=worker_env(inject="sleep:60"),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        assert wait_for(
            lambda: store.counts(campaign)["leased"] >= 1
        ), "worker subprocess never leased a job"
        victim = [
            row for row in store.jobs_in_order(campaign)
            if row["state"] == "leased"
        ][0]
        proc.kill()  # SIGKILL: no cleanup, no heartbeats, mid-job
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()
            proc.wait()

    # Nothing notices the death except the clock: once the lease
    # deadline passes, expiry reclaims the orphaned job.
    assert wait_for(
        lambda: store.expire_leases() >= 1, timeout=10.0
    ), "orphaned lease never expired"
    row = store.job(campaign, int(victim["job_index"]))
    assert row["state"] == "queued"
    assert "expired" in row["error"]
    assert row["attempts"] == 1  # the killed attempt was spent

    # Resume in-process (no inject here): recomputes the hole, and the
    # merge is byte-identical to the serial reference.
    results = resume_campaign(store, cache, campaign, worker_id="rescuer")
    assert results_digest(results) == serial_reference
    assert store.job(campaign, int(victim["job_index"]))["attempts"] == 2
    store.close()


def test_poison_campaign_dead_letters_then_reset_recovers(
    tmp_path, serial_reference
):
    store = CampaignStore(
        tmp_path / "poison.sqlite",
        policy=LeasePolicy(
            lease_seconds=30.0, max_attempts=2,
            backoff_base=0.0, backoff_cap=0.0,
        ),
    )
    cache = ResultCache(tmp_path / "cache")
    campaign = submit_pairs(store, TINY_PAIRS, TINY, campaign="poison")

    # Every execution in this subprocess raises: both jobs must burn
    # the attempt budget they were submitted with and dead-letter; the
    # worker then drains out.
    proc = subprocess.Popen(
        worker_argv(
            store.path, cache.directory, "--campaign", campaign, "--once",
        ),
        env=worker_env(inject="fail:99"),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    proc.wait(timeout=120)
    assert proc.returncode == 0

    counts = store.counts(campaign)
    assert counts["failed"] == len(TINY_PAIRS)
    letters = store.dead_letters(campaign)
    assert all("injected failure" in row["error"] for row in letters)
    assert all(row["attempts"] == 2 for row in letters)

    # Without a reset, resume refuses to pretend the campaign is fine.
    with pytest.raises(RuntimeError, match="dead-letter"):
        resume_campaign(store, cache, campaign)

    # A reset grants fresh attempts; this process has no inject hook, so
    # the recomputation succeeds and matches the serial reference.
    results = resume_campaign(
        store, cache, campaign, reset_dead_letters=True
    )
    assert results_digest(results) == serial_reference
    store.close()


def test_truncated_store_fails_loudly_and_cache_survives(
    tmp_path, serial_reference
):
    store_path = tmp_path / "trunc.sqlite"
    store = CampaignStore(store_path, policy=LeasePolicy(max_attempts=2))
    cache = ResultCache(tmp_path / "cache")
    results = resume_campaign(
        store, cache, submit_pairs(store, TINY_PAIRS, TINY, campaign="trunc")
    )
    assert results_digest(results) == serial_reference
    store.close()

    # Tear the file in half: the header survives, the pages do not.
    data = store_path.read_bytes()
    store_path.write_bytes(data[: len(data) // 2])

    def open_and_audit():
        damaged = CampaignStore(store_path)
        damaged.jobs_in_order("trunc")

    with pytest.raises(StoreCorruptError):
        open_and_audit()

    # Recovery: a fresh store, same pairs — every result is already in
    # the content-addressed cache, so nothing re-simulates.
    hits_before = cache.stats.hits
    fresh = CampaignStore(tmp_path / "fresh.sqlite")
    recovered = resume_campaign(
        fresh, cache, submit_pairs(fresh, TINY_PAIRS, TINY, campaign="trunc")
    )
    assert results_digest(recovered) == serial_reference
    assert cache.stats.hits >= hits_before + len(TINY_PAIRS)
    fresh.close()


def test_corrupt_cache_entry_is_requeued_and_recomputed(
    tmp_path, serial_reference
):
    store = CampaignStore(tmp_path / "cachefault.sqlite")
    cache = ResultCache(tmp_path / "cache")
    campaign = "cachefault"
    results = resume_campaign(
        store, cache, submit_pairs(store, TINY_PAIRS, TINY, campaign=campaign)
    )
    assert results_digest(results) == serial_reference

    # Garble one completed job's cached payload.  The cache self-verifies
    # (key + digest), so the entry reads as a miss — the store's "done"
    # claim is now a lie that verify must surface.
    victim_key = str(store.jobs_in_order(campaign)[0]["key"])
    cache.path_for(victim_key).write_text('{"scrambled": true}')

    requeued = verify_campaign_results(store, cache, campaign)
    assert requeued == 1
    assert store.job(campaign, 0)["state"] == "queued"

    worker = Worker(store, cache, worker_id="recompute")
    worker.run(campaign=campaign, once=True)
    assert worker.executed == 1  # only the damaged cell re-simulated
    recovered = resume_campaign(store, cache, campaign)
    assert results_digest(recovered) == serial_reference
    assert cache.stats.corrupt >= 1
    store.close()


def test_artificial_expiry_mass_reclaims(tmp_path):
    """Expiring every lease at a fake future instant reclaims them all."""
    store = CampaignStore(
        tmp_path / "mass.sqlite",
        policy=LeasePolicy(
            lease_seconds=30.0, max_attempts=3,
            backoff_base=0.0, backoff_cap=0.0,
        ),
    )
    store.submit("mass", job_pool(5))
    leases = [store.lease(f"w{i}", "mass", now=100.0) for i in range(5)]
    assert all(lease is not None for lease in leases)
    assert store.counts("mass")["leased"] == 5
    reclaimed = store.expire_leases(now=200.0)
    assert reclaimed == 5
    counts = store.counts("mass")
    assert counts["queued"] == 5 and counts["leased"] == 0
    # Every reclaim spent an attempt; re-leasing costs a second.
    again = store.lease("w9", "mass", now=200.0)
    assert again.attempts == 2
    store.close()
