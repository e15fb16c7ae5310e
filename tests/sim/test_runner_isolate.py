"""Isolated-job execution: the campaign worker's killable child process."""

from __future__ import annotations

import os
import time

import pytest

from repro.sim.results_io import results_digest
from repro.sim.runner import (
    JobCrashedError,
    JobExecutionError,
    JobTimeoutError,
    run_job_isolated,
)
from repro.sim.runner.jobs import SweepJob
from repro.sim.simulator import SimulationParams, simulate

TINY = SimulationParams(target_requests=120, n_cores=2, seed=7)


def tiny_job(system="baseline"):
    return SweepJob.build("MP3", system, TINY)


def _hang(job):  # pragma: no cover - killed by the timeout
    time.sleep(60)


def _die(job):  # pragma: no cover - child exits before reporting
    os._exit(3)


def _raise(job):
    raise ValueError("deliberately broken job")


def test_isolated_result_is_bit_identical_to_inline():
    job = tiny_job()
    inline = simulate(job.system, job.workload, job.params)
    isolated = run_job_isolated(job, timeout=300.0)
    assert results_digest([isolated]) == results_digest([inline])


def test_hung_job_times_out_quickly():
    started = time.monotonic()
    with pytest.raises(JobTimeoutError):
        run_job_isolated(tiny_job(), timeout=0.3, execute=_hang)
    assert time.monotonic() - started < 30.0


def test_dead_child_raises_crashed():
    with pytest.raises(JobCrashedError):
        run_job_isolated(tiny_job(), timeout=30.0, execute=_die)


def test_child_exception_carries_its_traceback():
    with pytest.raises(JobExecutionError) as excinfo:
        run_job_isolated(tiny_job(), timeout=30.0, execute=_raise)
    assert not isinstance(excinfo.value, (JobTimeoutError, JobCrashedError))
    assert "deliberately broken job" in str(excinfo.value)
    assert "ValueError" in str(excinfo.value)
