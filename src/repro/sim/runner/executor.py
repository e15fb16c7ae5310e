"""Multiprocessing sweep executor.

Fans independent :class:`~repro.sim.runner.jobs.SweepJob`\\ s out over a
``ProcessPoolExecutor`` — every (workload, system) run is embarrassingly
parallel because the engine is deterministic per seed and shares no
state across runs.  Guarantees:

* **Bit-identical to serial.**  Job seeds are derived, not drawn, so the
  ``results_io`` payload of every result is byte-for-byte the same for
  ``jobs=1`` and ``jobs=N`` (only wall-clock profile fields differ).
* **Cache before compute.**  With a :class:`ResultCache` attached, each
  job is looked up first; only misses reach the pool, and every fresh
  result is written back (atomically) by the parent process.
* **Telemetry survives the pool.**  Worker processes return their
  :class:`~repro.telemetry.RunProfile` on the pickled result, and the
  runner merges them into :attr:`SweepRunner.profile`, so
  ``telemetry_summary`` still reports the sweep's total engine cost.

Timeouts, retries and durability live in :mod:`repro.sim.campaign`; a
``repro sweep`` given a lease knob runs there as a throwaway campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.core.config import SystemConfig
from repro.sim.metrics import SimulationResult
from repro.sim.runner.cache import ResultCache
from repro.sim.runner.isolate import default_execute
from repro.sim.runner.jobs import SweepJob
from repro.sim.simulator import SimulationParams
from repro.telemetry import RunProfile, WallClock
from repro.trace.workloads import WorkloadProfile


@dataclass(frozen=True)
class SweepProgress:
    """One completed job, as reported to the progress callback."""

    completed: int       #: jobs finished so far (cached + executed)
    total: int
    workload: str
    system: str
    source: str          #: ``"cache"`` or ``"run"``
    seconds: float       #: wall time of this job as seen by the parent

    def describe(self) -> str:
        line = (
            f"[{self.completed:>{len(str(self.total))}}/{self.total}] "
            f"{self.workload} x {self.system}: {self.source}"
        )
        if self.source == "run":
            line += f" ({self.seconds:.1f} s)"
        return line


ProgressCallback = Callable[[SweepProgress], None]

#: (workload, system) with optional per-pair overrides when system is a name.
WorkloadLike = Union[str, WorkloadProfile]
SystemLike = Union[str, SystemConfig]


class SweepRunner:
    """Executes sweep jobs serially or across a process pool."""

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressCallback] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.progress = progress
        #: Merged engine profiles of every job this runner completed
        #: (cache hits contribute the recorded cost of the original run).
        self.profile = RunProfile()

    # ------------------------------------------------------------------
    def run(self, sweep_jobs: Sequence[SweepJob]) -> List[SimulationResult]:
        """Run every job; results are returned in job order."""
        total = len(sweep_jobs)
        results: List[Optional[SimulationResult]] = [None] * total
        completed = 0

        pending: List[int] = []
        for index, job in enumerate(sweep_jobs):
            cached = (
                self.cache.get(job.cache_key())
                if self.cache is not None
                else None
            )
            if cached is not None:
                completed += 1
                results[index] = self._account(
                    cached, job, "cache", 0.0, completed, total
                )
            else:
                pending.append(index)

        if not pending:
            return [r for r in results if r is not None]

        if self.jobs == 1 or len(pending) == 1:
            for index in pending:
                job = sweep_jobs[index]
                with WallClock() as clock:
                    result = default_execute(job)
                completed += 1
                results[index] = self._finish(
                    result, job, clock.elapsed, completed, total
                )
        else:
            # Only a pool run pays for the pool's import.
            from concurrent.futures import ProcessPoolExecutor, as_completed

            workers = min(self.jobs, len(pending))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(default_execute, sweep_jobs[index]): index
                    for index in pending
                }
                for future in as_completed(futures):
                    index = futures[future]
                    job = sweep_jobs[index]
                    result = future.result()
                    wall = (
                        result.profile.wall_seconds
                        if result.profile is not None
                        else 0.0
                    )
                    completed += 1
                    results[index] = self._finish(
                        result, job, wall, completed, total
                    )
        return [r for r in results if r is not None]

    # ------------------------------------------------------------------
    def _finish(
        self,
        result: SimulationResult,
        job: SweepJob,
        seconds: float,
        completed: int,
        total: int,
    ) -> SimulationResult:
        if self.cache is not None:
            self.cache.put(job.cache_key(), result)
        return self._account(result, job, "run", seconds, completed, total)

    def _account(
        self,
        result: SimulationResult,
        job: SweepJob,
        source: str,
        seconds: float,
        completed: int,
        total: int,
    ) -> SimulationResult:
        if result.profile is not None:
            self.profile.merge(result.profile)
        if self.progress is not None:
            self.progress(
                SweepProgress(
                    completed=completed,
                    total=total,
                    workload=job.workload.name,
                    system=job.system.name,
                    source=source,
                    seconds=seconds,
                )
            )
        return result


# ----------------------------------------------------------------------
# Convenience entry points
# ----------------------------------------------------------------------
def run_jobs(
    sweep_jobs: Sequence[SweepJob],
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[SimulationResult]:
    """Run pre-built jobs; results in job order."""
    return SweepRunner(jobs=jobs, cache=cache, progress=progress).run(sweep_jobs)


def run_pairs(
    pairs: Sequence[Tuple[WorkloadLike, SystemLike]],
    params: Optional[SimulationParams] = None,
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[SimulationResult]:
    """Run arbitrary (workload, system) pairs; results in pair order.

    The generic entry point for benchmarks whose sweeps are not plain
    workload x system grids (timing sweeps, rollback-rate ablations):
    callers build each pair's :class:`SystemConfig` themselves and index
    the flat result list positionally.
    """
    sweep_jobs = [
        SweepJob.build(workload, system, params) for workload, system in pairs
    ]
    return run_jobs(sweep_jobs, jobs=jobs, cache=cache, progress=progress)
