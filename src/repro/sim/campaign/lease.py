"""Lease policy: how long a worker owns a job, and how failures back off.

A lease is a time-boxed claim on one queued job.  The owning worker must
heartbeat before ``lease_seconds`` elapse or the store hands the job to
someone else — that is the whole crash-recovery story: a SIGKILLed
worker simply stops heartbeating, and nothing else has to notice.

Attempts count *lease acquisitions*, so a job that keeps crashing its
worker (or keeps timing out) burns through the same bounded budget as
one that raises cleanly; after ``max_attempts`` it dead-letters instead
of looping forever.  Between retries the job is gated behind a capped
exponential backoff so a poison job cannot monopolise the queue.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LeasePolicy:
    """Knobs shared by the store and the workers."""

    #: Seconds a lease stays valid without a heartbeat.
    lease_seconds: float = 30.0
    #: How often a running worker renews its lease (must be well under
    #: ``lease_seconds``; the worker clamps it there anyway).
    heartbeat_seconds: float = 10.0
    #: Lease acquisitions before a job dead-letters (first run included).
    max_attempts: int = 4
    #: First retry delay; doubles per attempt.
    backoff_base: float = 0.5
    #: Ceiling on any single retry delay.
    backoff_cap: float = 30.0
    #: Optional wall-clock cap per job execution (enforced by the worker
    #: via :func:`repro.sim.runner.isolate.run_job_isolated`).
    job_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff delays cannot be negative")
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ValueError(
                f"job_timeout must be positive, got {self.job_timeout}"
            )

    def backoff(self, attempts: int) -> float:
        """Retry delay after the ``attempts``-th lease ended badly."""
        if attempts <= 0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * (2.0 ** (attempts - 1)))

    def effective_heartbeat(self) -> float:
        """Heartbeat cadence that can never outlive the lease."""
        return max(0.05, min(self.heartbeat_seconds, self.lease_seconds / 3.0))
