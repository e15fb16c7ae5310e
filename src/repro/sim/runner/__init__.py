"""Parallel sweep runner: job model, on-disk result cache, executor.

Public surface::

    from repro.sim.runner import (
        SweepJob, SweepRunner, ResultCache, run_jobs, run_pairs,
        derive_seed, content_hash,
    )

See DESIGN.md ("Sweep runner") for the job model and cache-key scheme.
"""

from repro.sim.runner.cache import CACHE_SCHEMA, CacheStats, ResultCache
from repro.sim.runner.isolate import (
    JobCrashedError,
    JobExecutionError,
    JobTimeoutError,
    run_job_isolated,
)
from repro.sim.runner.executor import (
    ProgressCallback,
    SweepProgress,
    SweepRunner,
    run_jobs,
    run_pairs,
)
from repro.sim.runner.jobs import (
    SweepJob,
    canonical,
    content_hash,
    derive_seed,
)

__all__ = [
    "CACHE_SCHEMA",
    "CacheStats",
    "ResultCache",
    "JobCrashedError",
    "JobExecutionError",
    "JobTimeoutError",
    "run_job_isolated",
    "ProgressCallback",
    "SweepProgress",
    "SweepRunner",
    "run_jobs",
    "run_pairs",
    "SweepJob",
    "canonical",
    "content_hash",
    "derive_seed",
]
