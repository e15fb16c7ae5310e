"""Durable sweep campaigns: SQLite job queue, leased workers, progress.

The one-shot :mod:`repro.sim.runner` loses all progress on a crash; a
*campaign* persists the same :class:`~repro.sim.runner.jobs.SweepJob`\\ s
in a SQLite store (WAL mode, one row per job) and lets any number of
workers — in-process loops, ``repro worker`` subprocesses, even other
hosts sharing the store directory — pull jobs under lease, heartbeat
while running, and retry or dead-letter failures.  Completed payloads
land in the existing content-addressed :class:`ResultCache`, so a
resumed or multi-worker campaign merges to byte-identical results
against a serial ``run_pairs`` of the same pairs.

Public surface::

    from repro.sim.campaign import (
        CampaignStore, LeasePolicy, LeasedJob, StoreCorruptError,
        Worker, run_worker, parse_inject,
        collect_results, campaign_progress,
        submit_pairs, resume_campaign,
    )

See docs/CAMPAIGNS.md for the queue states, lease protocol and resume
semantics.
"""

from repro.sim.campaign.aggregate import (
    campaign_progress,
    collect_results,
    resume_campaign,
    submit_pairs,
    verify_campaign_results,
)
from repro.sim.campaign.lease import LeasePolicy
from repro.sim.campaign.store import (
    JOB_STATES,
    CampaignStore,
    LeasedJob,
    StoreCorruptError,
)
from repro.sim.campaign.worker import Worker, parse_inject, run_worker

__all__ = [
    "JOB_STATES",
    "CampaignStore",
    "LeasedJob",
    "StoreCorruptError",
    "LeasePolicy",
    "Worker",
    "run_worker",
    "parse_inject",
    "collect_results",
    "campaign_progress",
    "submit_pairs",
    "resume_campaign",
    "verify_campaign_results",
]
