"""In-process Worker tests: execute, cache, retry, dead-letter, timeout.

Everything here uses fabricated results (no real simulation) so the
tests exercise the lease/execute/complete choreography, not the
simulator.  The execution callables that cross into a child process are
module-level so they survive any multiprocessing start method.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.sim.campaign import CampaignStore, LeasePolicy, Worker, parse_inject

from tests.campaign.conftest import fake_result, job_pool

pytestmark = pytest.mark.campaign


def _fake_execute(job):
    return fake_result(job)


def _sleepy_execute(job):  # pragma: no cover - killed by the timeout
    time.sleep(30)
    return fake_result(job)


def test_worker_drains_campaign_and_caches_results(store, cache):
    jobs = job_pool(3)
    store.submit("c1", jobs)
    worker = Worker(store, cache, worker_id="w1", execute=_fake_execute)
    completed = worker.run(campaign="c1", once=True)
    assert completed == 3
    assert worker.executed == 3 and worker.failed == 0
    assert store.counts("c1")["done"] == 3
    for job in jobs:
        got = cache.get(job.cache_key())
        assert got is not None
        assert got.seed == job.params.seed


def test_worker_serves_cache_hits_without_executing(store, cache):
    jobs = job_pool(2)
    for job in jobs:
        cache.put(job.cache_key(), fake_result(job))
    store.submit("c1", jobs)
    worker = Worker(store, cache, worker_id="w1", execute=_fake_execute)
    assert worker.run(campaign="c1", once=True) == 2
    assert worker.executed == 0 and worker.cached == 2
    assert store.counts("c1")["done"] == 2


def test_poison_job_dead_letters_with_traceback(store, cache):
    store.submit("c1", job_pool(1))

    def explode(job):
        raise RuntimeError("poison payload: cannot simulate this")

    worker = Worker(store, cache, worker_id="w1", execute=explode)
    worker.run(campaign="c1", once=True)
    # FAST_POLICY.max_attempts == 3: every attempt failed, then terminal.
    assert worker.failed == 3 and worker.completed == 0
    letters = store.dead_letters("c1")
    assert len(letters) == 1
    assert "poison payload: cannot simulate this" in letters[0]["error"]
    assert "Traceback" in letters[0]["error"]
    assert letters[0]["attempts"] == 3


def test_interrupt_mid_job_propagates_and_leaves_the_lease(store, cache):
    """Ctrl-C stops the worker; the job is not failed, its lease lapses."""
    store.submit("c1", job_pool(1))

    def interrupted(job):
        raise KeyboardInterrupt

    threads_before = threading.active_count()
    worker = Worker(store, cache, worker_id="w1", execute=interrupted)
    with pytest.raises(KeyboardInterrupt):
        worker.run(campaign="c1", once=True)
    assert worker.failed == 0
    row = store.job("c1", 0)
    assert row["state"] == "leased" and row["error"] is None
    assert threading.active_count() == threads_before  # heartbeat joined


def test_worker_retries_through_backoff_gate(tmp_path, cache):
    """``once=True`` waits out a retry gate instead of quitting early."""
    store = CampaignStore(
        tmp_path / "s.sqlite",
        policy=LeasePolicy(
            lease_seconds=5.0, max_attempts=3, backoff_base=0.2,
            backoff_cap=0.2,
        ),
    )
    store.submit("c1", job_pool(1))
    calls = []

    def flaky(job):
        calls.append(job)
        if len(calls) == 1:
            raise RuntimeError("transient")
        return fake_result(job)

    worker = Worker(store, cache, worker_id="w1", execute=flaky)
    completed = worker.run(campaign="c1", once=True, poll_seconds=0.05)
    assert completed == 1
    assert len(calls) == 2
    assert store.counts("c1")["done"] == 1
    assert store.job("c1", 0)["attempts"] == 2
    store.close()


def test_injected_failures_then_success(store, cache):
    """The ``fail:n`` hook fails the first n executions, then behaves."""
    store.submit("c1", job_pool(1))
    worker = Worker(
        store,
        cache,
        worker_id="w1",
        execute=_fake_execute,
        inject=parse_inject("fail:2"),
    )
    assert worker.run(campaign="c1", once=True) == 1
    assert worker.failed == 2 and worker.completed == 1


def test_lost_lease_refuses_completion(store, cache):
    store.submit("c1", job_pool(1))
    worker = Worker(store, cache, worker_id="w1", execute=_fake_execute)
    leased = store.lease("w1", "c1")
    # The lease dies while the job "runs"; the worker's completion must
    # be refused, but the cached result survives for whoever re-runs it.
    store.expire_leases(now=leased.lease_expires + 1.0)
    assert worker.run_one(leased) is False
    assert cache.get(leased.key) is not None
    assert store.job("c1", 0)["state"] == "queued"


def test_heartbeat_keeps_slow_job_leased(tmp_path, cache):
    store = CampaignStore(
        tmp_path / "s.sqlite",
        policy=LeasePolicy(
            lease_seconds=0.4, heartbeat_seconds=0.1, max_attempts=2
        ),
    )
    store.submit("c1", job_pool(1))

    def slow(job):
        time.sleep(1.2)  # three lease lifetimes
        return fake_result(job)

    worker = Worker(store, cache, worker_id="w1", execute=slow)
    leased = store.lease("w1", "c1")
    assert worker.run_one(leased) is True
    assert store.counts("c1")["done"] == 1
    store.close()


def test_job_timeout_kills_and_dead_letters(tmp_path, cache):
    store = CampaignStore(
        tmp_path / "s.sqlite",
        policy=LeasePolicy(
            lease_seconds=30.0, max_attempts=2, backoff_base=0.0,
            job_timeout=0.3,
        ),
    )
    store.submit("c1", job_pool(1))
    worker = Worker(store, cache, worker_id="w1", execute=_sleepy_execute)
    started = time.monotonic()
    worker.run(campaign="c1", once=True)
    elapsed = time.monotonic() - started
    assert elapsed < 15.0, "timeout did not kill the hung job"
    letters = store.dead_letters("c1")
    assert len(letters) == 1
    assert "JobTimeoutError" in letters[0]["error"]
    store.close()


def test_parse_inject_specs():
    assert parse_inject(None) is None
    assert parse_inject("") is None
    hook = parse_inject("fail:1")
    with pytest.raises(RuntimeError, match="injected failure"):
        hook(0)
    hook(1)  # past the limit: a no-op
    sleeper = parse_inject("sleep:0.01")
    started = time.monotonic()
    sleeper(0)
    assert time.monotonic() - started >= 0.01
    with pytest.raises(ValueError, match="unknown"):
        parse_inject("explode:5")
    with pytest.raises(ValueError):
        parse_inject("sleep:not-a-number")
