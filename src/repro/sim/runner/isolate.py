"""Run one sweep job in a killable child process, with a wall-clock cap.

The plain executor trusts ``simulate`` to return; a hung or crashing job
would wedge a sweep.  The campaign worker, which runs every guarded
``repro sweep``, uses this module as its escape hatch when the lease
policy sets a job timeout: the job runs in its own
``multiprocessing.Process``, the parent polls a pipe with a timeout, and
an overdue or dead child is killed and reported as a typed error the
worker retries, backs off on, or dead-letters.

The child sends ``("ok", result)`` or ``("err", traceback_text)`` over a
one-way pipe *before* the parent joins it, so a large pickled result can
never deadlock against a parent that is already waiting in ``join``.
"""

from __future__ import annotations

import traceback
from typing import TYPE_CHECKING, Callable, Optional

from repro.sim.metrics import SimulationResult
from repro.sim.runner.jobs import SweepJob
from repro.sim.simulator import simulate

if TYPE_CHECKING:
    import multiprocessing


class JobExecutionError(RuntimeError):
    """Base class for isolated-job failures (timeout, crash, exception)."""


class JobTimeoutError(JobExecutionError):
    """The job exceeded its wall-clock budget and was killed."""


class JobCrashedError(JobExecutionError):
    """The child process died without reporting a result (signal, OOM)."""


def default_execute(job: SweepJob) -> SimulationResult:
    """The real thing: one deterministic simulation run."""
    return simulate(job.system, job.workload, job.params)


def _child_main(conn, job: SweepJob, execute: Callable) -> None:
    """Child entry point: run the job, ship the outcome, exit."""
    try:
        result = execute(job)
    except BaseException:
        payload = ("err", traceback.format_exc())
    else:
        payload = ("ok", result)
    try:
        conn.send(payload)
    finally:
        conn.close()


def run_job_isolated(
    job: SweepJob,
    timeout: Optional[float] = None,
    execute: Optional[Callable[[SweepJob], SimulationResult]] = None,
) -> SimulationResult:
    """Run ``job`` in a child process; kill it if ``timeout`` expires.

    Raises :class:`JobTimeoutError` when the child is still alive after
    ``timeout`` seconds, :class:`JobCrashedError` when it died without an
    answer (e.g. SIGKILL), and :class:`JobExecutionError` carrying the
    child's traceback when ``execute`` raised.  Determinism is untouched:
    the child runs exactly :func:`default_execute` on the job's own
    derived seed, so an isolated result is bit-identical to an inline one.
    """
    # Imported here: only a timed campaign job runs in its own process.
    import multiprocessing

    execute = execute if execute is not None else default_execute
    recv, send = multiprocessing.Pipe(duplex=False)
    proc = multiprocessing.Process(
        target=_child_main, args=(send, job, execute), daemon=False
    )
    proc.start()
    send.close()  # parent keeps only the read end
    try:
        if not recv.poll(timeout):
            _reap(proc)
            raise JobTimeoutError(
                f"job {job.describe()} exceeded {timeout:g}s and was killed"
            )
        try:
            status, value = recv.recv()
        except (EOFError, OSError):
            _reap(proc)
            raise JobCrashedError(
                f"job {job.describe()} worker died without a result"
            ) from None
    finally:
        recv.close()
    proc.join()
    if status == "ok":
        return value
    raise JobExecutionError(
        f"job {job.describe()} raised in its worker:\n{value}"
    )


def _reap(proc: "multiprocessing.Process") -> None:
    """Terminate (then kill) a child and wait for it."""
    proc.terminate()
    proc.join(1.0)
    if proc.is_alive():  # pragma: no cover - terminate() normally suffices
        proc.kill()
        proc.join()
