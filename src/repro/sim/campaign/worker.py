"""Campaign worker: lease, heartbeat, execute, complete — or fail loudly.

A worker is a plain loop over the store's lease protocol.  Several can
run at once — threads in one process, ``repro worker`` subprocesses, or
other hosts that mount the same store directory — because every claim
goes through the store's ``BEGIN IMMEDIATE`` lease and every result
lands in the content-addressed :class:`ResultCache` under the job's own
hash, where recomputing an already-cached key is a harmless no-op.

While a job runs, a daemon thread heartbeats the lease; a worker that is
SIGKILLed simply stops heartbeating and the store re-leases its job once
the deadline passes.  Failures are captured as tracebacks and routed
through :meth:`CampaignStore.fail` (bounded retry, then dead-letter).

``REPRO_CAMPAIGN_INJECT`` is the fault-injection hook the test harness
and the CI kill-and-resume leg use: ``sleep:<seconds>`` stalls each job
long enough to kill the worker mid-flight, ``fail:<n>`` raises on the
first *n* executions.  It is read once at worker start and does nothing
when unset.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
import traceback
from typing import IO, Callable, Optional

from repro.sim.campaign.store import CampaignStore, LeasedJob
from repro.sim.metrics import SimulationResult
from repro.sim.runner.cache import ResultCache
from repro.sim.runner.isolate import default_execute, run_job_isolated
from repro.sim.runner.jobs import SweepJob

#: Environment hook injecting faults into every execution (tests/CI only).
INJECT_ENV = "REPRO_CAMPAIGN_INJECT"


def parse_inject(spec: Optional[str]) -> Optional[Callable[[int], None]]:
    """Build the fault hook from an ``INJECT_ENV`` spec (or ``None``).

    ``sleep:2.5`` sleeps before each execution; ``fail:3`` raises on the
    first three executions (then behaves).  Malformed specs raise at
    worker start, not silently mid-campaign.
    """
    if not spec:
        return None
    kind, _, value = spec.partition(":")
    if kind == "sleep":
        seconds = float(value)

        def hook(_n: int) -> None:
            time.sleep(seconds)

        return hook
    if kind == "fail":
        limit = int(value)

        def hook(n: int) -> None:
            if n < limit:
                raise RuntimeError(
                    f"injected failure {n + 1}/{limit} ({INJECT_ENV})"
                )

        return hook
    raise ValueError(f"unknown {INJECT_ENV} spec {spec!r}")


def default_worker_id() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


class Worker:
    """One lease-pulling execution loop over a campaign store."""

    def __init__(
        self,
        store: CampaignStore,
        cache: ResultCache,
        worker_id: Optional[str] = None,
        execute: Optional[Callable[[SweepJob], SimulationResult]] = None,
        inject: Optional[Callable[[int], None]] = None,
    ):
        self.store = store
        self.cache = cache
        self.worker_id = worker_id or default_worker_id()
        self._execute = execute if execute is not None else default_execute
        self._inject = inject
        self.executed = 0
        self.completed = 0
        self.failed = 0
        self.cached = 0

    # ------------------------------------------------------------------
    def run(
        self,
        campaign: Optional[str] = None,
        once: bool = False,
        poll_seconds: float = 0.25,
    ) -> int:
        """Pull and run jobs until drained (``once``) or forever.

        Returns the number of jobs this worker completed.  ``once=True``
        drains: the worker exits when no job is queued or leased any more
        (jobs gated behind a retry backoff, or leased by another worker
        whose lease may yet expire, are waited out) — the loop behind a
        campaign ``repro sweep`` and its helpers.  Without it the worker
        keeps polling for new work until it is stopped.
        """
        while True:
            self.store.expire_leases()
            leased = self.store.lease(self.worker_id, campaign)
            if leased is None:
                if once and self.store.pending(campaign) == 0:
                    break
                time.sleep(poll_seconds)
                continue
            self.run_one(leased)
        return self.completed

    def run_one(self, leased: LeasedJob) -> bool:
        """Execute one leased job end to end; ``True`` when completed.

        Ctrl-C (or an exit) mid-job propagates without failing the job:
        its lease lapses and the job re-leases, as a killed worker's does.
        """
        heartbeat_stop = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(leased, heartbeat_stop),
            daemon=True,
        )
        heartbeat.start()
        try:
            result = self._produce(leased)
        except Exception:
            self.failed += 1
            self.store.fail(
                leased.campaign,
                leased.job_index,
                self.worker_id,
                traceback.format_exc(),
            )
            return False
        finally:
            heartbeat_stop.set()
            heartbeat.join()
        # Cache first, then complete: a crash between the two leaves a
        # re-leasable job whose recompute is a cache hit — never a "done"
        # job with no result behind it.
        self.cache.put(leased.key, result)
        if self.store.complete(
            leased.campaign, leased.job_index, self.worker_id
        ):
            self.completed += 1
            return True
        # Lease lost mid-run (expired and re-leased): the cached result
        # is still valid — content-addressed, deterministic — so the
        # duplicate execution cost is the only waste.
        return False

    # ------------------------------------------------------------------
    def _produce(self, leased: LeasedJob) -> SimulationResult:
        """Cached result, or a fresh (possibly isolated) execution."""
        cached = self.cache.get(leased.key)
        if cached is not None:
            self.cached += 1
            return cached
        job = leased.load()
        # Count the execution *before* the fault hook fires, so a
        # ``fail:n`` spec fails exactly n executions and then behaves
        # (instead of failing the same zeroth execution forever).
        attempt = self.executed
        self.executed += 1
        if self._inject is not None:
            self._inject(attempt)
        timeout = self.store.policy.job_timeout
        if timeout is not None:
            return run_job_isolated(job, timeout, self._execute)
        return self._execute(job)

    def _heartbeat_loop(
        self, leased: LeasedJob, stop: threading.Event
    ) -> None:
        cadence = self.store.policy.effective_heartbeat()
        while not stop.wait(cadence):
            try:
                if not self.store.heartbeat(
                    leased.campaign, leased.job_index, self.worker_id
                ):
                    return  # lease lost; completion will be refused anyway
            except Exception:  # pragma: no cover - best-effort renewal
                return


def run_worker(
    store_path: str,
    cache_dir: str,
    campaign: Optional[str] = None,
    worker_id: Optional[str] = None,
    once: bool = False,
    policy=None,
    poll_seconds: float = 0.25,
) -> int:
    """CLI entry: build a worker from paths and run it (returns completions).

    Faults are injected from ``REPRO_CAMPAIGN_INJECT`` here — the env
    hook only binds on this subprocess path, never on library use.
    """
    store = CampaignStore(store_path, policy=policy)
    worker = Worker(
        store,
        ResultCache(cache_dir),
        worker_id=worker_id,
        inject=parse_inject(os.environ.get(INJECT_ENV)),
    )
    return worker.run(campaign=campaign, once=once, poll_seconds=poll_seconds)


def spawn_worker_process(
    store_path: str,
    cache_dir: str,
    campaign: str,
    lease_seconds: float,
    job_timeout: Optional[float],
    stderr: IO[bytes],
) -> subprocess.Popen:
    """Start one ``repro worker --once`` subprocess draining ``campaign``.

    The subprocess inherits the environment, so ``PYTHONPATH`` and the
    ``REPRO_CAMPAIGN_INJECT`` fault hook propagate; its stderr goes to
    ``stderr``.
    """
    argv = [
        sys.executable, "-m", "repro", "worker",
        "--store", store_path, "--cache-dir", cache_dir,
        "--campaign", campaign, "--once", "--lease", str(lease_seconds),
    ]
    if job_timeout is not None:
        argv += ["--timeout", str(job_timeout)]
    return subprocess.Popen(argv, stderr=stderr)
