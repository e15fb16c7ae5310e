"""CampaignStore state-machine unit tests: every documented transition.

All clocks here are explicit (``now=``), so nothing sleeps: backoff
gates, lease expiry and heartbeat renewal are tested against a fake
timeline, not the wall clock.
"""

from __future__ import annotations

import pickle

import pytest

from repro.sim.campaign import (
    JOB_STATES,
    CampaignStore,
    LeasePolicy,
    StoreCorruptError,
)

from tests.campaign.conftest import FAST_POLICY, job_pool, tiny_jobs

pytestmark = pytest.mark.campaign


def state_partition(store, campaign):
    counts = store.counts(campaign)
    assert sum(counts[s] for s in JOB_STATES) == counts["total"]
    return counts


def test_submit_and_counts(store):
    jobs = job_pool(3)
    counts = store.submit("c1", jobs)
    assert counts == {"queued": 3, "leased": 0, "done": 0, "failed": 0, "total": 3}
    assert store.campaigns() == ["c1"]
    assert store.total("c1") == 3
    rows = store.jobs_in_order("c1")
    assert [r["job_index"] for r in rows] == [0, 1, 2]
    assert [r["key"] for r in rows] == [j.cache_key() for j in jobs]


def test_submit_is_idempotent_but_refuses_different_jobs(store):
    jobs = job_pool(2)
    store.submit("c1", jobs)
    # Same list again: a no-op returning live counts.
    counts = store.submit("c1", list(jobs))
    assert counts["total"] == 2 and counts["queued"] == 2
    # Different list under the same name: refused loudly.
    with pytest.raises(ValueError, match="different jobs"):
        store.submit("c1", job_pool(3))
    with pytest.raises(ValueError):
        store.submit("", jobs)
    with pytest.raises(ValueError):
        store.submit("empty", [])


def test_lease_claims_in_submission_order(store):
    store.submit("c1", job_pool(3))
    first = store.lease("w1", "c1", now=100.0)
    second = store.lease("w2", "c1", now=100.0)
    assert first.job_index == 0 and second.job_index == 1
    assert first.attempts == 1
    assert first.lease_expires == 100.0 + FAST_POLICY.lease_seconds
    assert state_partition(store, "c1")["leased"] == 2
    # The leased rows are not leasable again.
    third = store.lease("w3", "c1", now=100.0)
    assert third.job_index == 2
    assert store.lease("w4", "c1", now=100.0) is None


def test_leased_job_round_trips_its_payload(store):
    jobs = job_pool(1)
    store.submit("c1", jobs)
    leased = store.lease("w1", "c1")
    assert leased.key == jobs[0].cache_key()
    loaded = leased.load()
    assert loaded == jobs[0]


def test_complete_only_for_current_owner_and_only_once(store):
    store.submit("c1", job_pool(1))
    leased = store.lease("w1", "c1")
    assert store.complete("c1", leased.job_index, "impostor") is False
    assert store.complete("c1", leased.job_index, "w1") is True
    # Double-complete refused; the row stays done.
    assert store.complete("c1", leased.job_index, "w1") is False
    counts = state_partition(store, "c1")
    assert counts["done"] == counts["total"] == 1 and counts["leased"] == 0


def test_fail_requeues_with_backoff_then_dead_letters(tmp_path):
    policy = LeasePolicy(
        lease_seconds=10.0, max_attempts=2, backoff_base=4.0, backoff_cap=6.0
    )
    store = CampaignStore(tmp_path / "s.sqlite", policy=policy)
    store.submit("c1", job_pool(1))

    leased = store.lease("w1", "c1", now=100.0)
    assert store.fail("c1", 0, "w1", "boom #1", now=100.0) == "queued"
    row = store.job("c1", 0)
    assert row["state"] == "queued"
    assert row["error"] == "boom #1"           # latest traceback kept on requeue
    assert row["not_before"] == 100.0 + 4.0    # backoff(1) == base

    # The backoff gate holds until not_before passes.
    assert store.lease("w2", "c1", now=101.0) is None
    leased = store.lease("w2", "c1", now=105.0)
    assert leased.attempts == 2

    # Second failure exhausts max_attempts == 2: dead letter.
    assert store.fail("c1", 0, "w2", "boom #2", now=105.0) == "failed"
    row = store.job("c1", 0)
    assert row["state"] == "failed" and row["error"] == "boom #2"
    assert store.dead_letters("c1")[0]["job_index"] == 0
    # Dead letters are terminal: not leasable no matter how late.
    assert store.lease("w3", "c1", now=10_000.0) is None
    # A non-owner fail is a no-op.
    assert store.fail("c1", 0, "w1", "stale", now=105.0) is None
    store.close()


def test_backoff_is_capped_exponential():
    policy = LeasePolicy(backoff_base=0.5, backoff_cap=3.0)
    assert policy.backoff(0) == 0.0
    assert policy.backoff(1) == 0.5
    assert policy.backoff(2) == 1.0
    assert policy.backoff(3) == 2.0
    assert policy.backoff(4) == 3.0   # capped
    assert policy.backoff(50) == 3.0


@pytest.mark.parametrize("timeout", [0.0, -2.0])
def test_policy_rejects_a_timeout_that_kills_every_job(timeout):
    with pytest.raises(ValueError, match="job_timeout"):
        LeasePolicy(job_timeout=timeout)


def test_heartbeat_renews_and_expiry_reclaims(store):
    store.submit("c1", job_pool(2))
    leased = store.lease("w1", "c1", now=100.0)
    assert leased.lease_expires == 105.0
    # Renewal pushes the deadline from `now`, owner-checked.
    assert store.heartbeat("c1", 0, "w1", now=104.0) is True
    assert store.heartbeat("c1", 0, "impostor", now=104.0) is False
    assert store.expire_leases(now=108.0) == 0     # renewed to 109
    # Stop heartbeating: the lease expires and the job requeues.
    assert store.expire_leases(now=110.0) == 1
    row = store.job("c1", 0)
    assert row["state"] == "queued"
    assert "expired" in row["error"]
    # The dead worker's completion is now refused.
    assert store.complete("c1", 0, "w1") is False
    # Re-lease costs a second attempt.
    again = store.lease("w2", "c1", now=110.0)
    assert again.job_index == 0 and again.attempts == 2


def test_expiry_of_exhausted_job_dead_letters(tmp_path):
    policy = LeasePolicy(lease_seconds=5.0, max_attempts=1)
    store = CampaignStore(tmp_path / "s.sqlite", policy=policy)
    store.submit("c1", job_pool(1))
    store.lease("w1", "c1", now=100.0)
    assert store.expire_leases(now=200.0) == 1
    row = store.job("c1", 0)
    assert row["state"] == "failed"
    assert "expired" in row["error"] and "1/1" in row["error"]
    store.close()


def test_requeue_resets_done_and_failed_jobs(store):
    store.submit("c1", job_pool(2))
    leased = store.lease("w1", "c1")
    store.complete("c1", leased.job_index, "w1")
    leased = store.lease("w1", "c1")
    for _ in range(FAST_POLICY.max_attempts):
        store.fail("c1", leased.job_index, "w1", "poison")
        leased = store.lease("w1", "c1") or leased
    assert store.job("c1", 1)["state"] == "failed"

    assert store.requeue("c1", 0) is True      # done -> queued
    assert store.requeue("c1", 1) is True      # failed -> queued
    for index in (0, 1):
        row = store.job("c1", index)
        assert row["state"] == "queued"
        assert row["attempts"] == 0 and row["error"] is None
    # queued rows cannot be requeued again.
    assert store.requeue("c1", 0) is False


def test_pending_counts_gated_and_leased_jobs(store):
    store.submit("c1", job_pool(2))
    assert store.pending("c1") == 2
    leased = store.lease("w1", "c1")
    assert store.pending("c1") == 2            # leased still pending
    store.complete("c1", leased.job_index, "w1")
    assert store.pending("c1") == 1
    assert store.pending() == 1                # across all campaigns
    assert store.pending("other") == 0


def test_campaign_scoping_and_cross_campaign_lease(store):
    store.submit("a", job_pool(1))
    store.submit("b", job_pool(2))
    # Unscoped lease claims in (campaign, job_index) order.
    leased = store.lease("w1")
    assert leased.campaign == "a"
    # Scoped lease ignores other campaigns.
    leased = store.lease("w2", "b")
    assert leased.campaign == "b" and leased.job_index == 0
    with pytest.raises(KeyError):
        store.total("missing")
    with pytest.raises(KeyError):
        store.job("a", 99)


def test_poison_payload_raises_on_load(store):
    store.submit("c1", job_pool(1))
    con = store._connect()
    con.execute(
        "UPDATE jobs SET payload = ? WHERE campaign = 'c1'",
        (pickle.dumps({"not": "a job"}),),
    )
    leased = store.lease("w1", "c1")
    with pytest.raises(TypeError, match="not a SweepJob"):
        leased.load()


def test_zero_byte_file_is_a_fresh_store(tmp_path):
    path = tmp_path / "fresh.sqlite"
    path.touch()
    store = CampaignStore(path, policy=FAST_POLICY)
    store.submit("c1", job_pool(1))
    assert store.total("c1") == 1
    store.close()


def test_corrupt_store_raises_loudly(tmp_path):
    path = tmp_path / "c.sqlite"
    store = CampaignStore(path, policy=FAST_POLICY)
    store.submit("c1", job_pool(2))
    store.close()
    # Clobber the SQLite header: opening must not silently recreate the
    # schema over a damaged campaign.
    data = path.read_bytes()
    path.write_bytes(b"garbage!" + data[8:])
    with pytest.raises(StoreCorruptError):
        CampaignStore(path, policy=FAST_POLICY)


def test_real_jobs_submit_and_lease(store):
    """The real SweepJob payloads (not just the pool) round-trip too."""
    jobs = tiny_jobs()
    store.submit("real", jobs)
    leased = store.lease("w1", "real")
    job = leased.load()
    assert job.workload.name == "MP3"
    assert job.system.name == "baseline"
