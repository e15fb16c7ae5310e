"""Experiment helpers: run workloads, compare systems, compute deltas.

The benchmark modules under ``benchmarks/`` use these to regenerate every
figure and table; examples and tests use them for smaller runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.core.config import SystemConfig
from repro.core.systems import SYSTEM_NAMES, make_system
from repro.sim.metrics import SimulationResult
from repro.sim.runner.cache import ResultCache
from repro.sim.runner.executor import ProgressCallback, run_jobs
from repro.sim.runner.jobs import SweepJob
from repro.sim.simulator import SimulationParams, simulate
from repro.telemetry import Telemetry
from repro.trace.workloads import WorkloadProfile, get_workload


def run_workload(
    workload: Union[str, WorkloadProfile],
    system: Union[str, SystemConfig],
    params: Optional[SimulationParams] = None,
    telemetry: Optional["Telemetry"] = None,
    **system_overrides,
) -> SimulationResult:
    """Run one workload on one system (by name or config)."""
    if isinstance(system, str):
        system = make_system(system, **system_overrides)
    elif system_overrides:
        raise ValueError("overrides only apply when `system` is a name")
    return simulate(system, workload, params, telemetry)


@dataclass
class SystemComparison:
    """Results of one workload across several systems."""

    workload_name: str
    results: Dict[str, SimulationResult] = field(default_factory=dict)

    @property
    def baseline(self) -> SimulationResult:
        try:
            return self.results["baseline"]
        except KeyError:
            raise ValueError("comparison has no baseline run") from None

    def ipc_improvement(self, system_name: str) -> float:
        """Fractional IPC gain over the baseline (0.15 == +15 %)."""
        base = self.baseline.ipc
        if base == 0:
            return 0.0
        return self.results[system_name].ipc / base - 1.0

    def read_latency_ratio(self, system_name: str) -> float:
        """Effective read latency normalised to the baseline (<1 is better)."""
        base = self.baseline.mean_read_latency_ns
        if base == 0:
            return 1.0
        return self.results[system_name].mean_read_latency_ns / base

    def write_throughput_ratio(self, system_name: str) -> float:
        """Write throughput normalised to the baseline (>1 is better)."""
        base = self.baseline.write_throughput
        if base == 0:
            return 1.0
        return self.results[system_name].write_throughput / base

    def irlp(self, system_name: str) -> float:
        return self.results[system_name].irlp_average


def compare_systems(
    workload: Union[str, WorkloadProfile],
    systems: Optional[Sequence[Union[str, SystemConfig]]] = None,
    params: Optional[SimulationParams] = None,
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
    **system_overrides,
) -> SystemComparison:
    """Run one workload across systems (default: all six of §V)."""
    return sweep_workloads(
        [workload],
        systems,
        params,
        jobs=jobs,
        cache=cache,
        progress=progress,
        **system_overrides,
    )[0]


def sweep_workloads(
    workloads: Iterable[Union[str, WorkloadProfile]],
    systems: Optional[Sequence[Union[str, SystemConfig]]] = None,
    params: Optional[SimulationParams] = None,
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
    **system_overrides,
) -> List[SystemComparison]:
    """Cartesian sweep used by the figure benchmarks.

    Runs through :mod:`repro.sim.runner`: ``jobs`` fans the grid out over
    a process pool (results stay bit-identical to ``jobs=1`` because
    every cell's seed is derived from ``params.seed`` and the cell's
    names, not from execution order), and ``cache`` serves repeat cells
    from the on-disk result cache instead of re-simulating.
    """
    if systems is None:
        systems = SYSTEM_NAMES
    resolved = [
        get_workload(w) if isinstance(w, str) else w for w in workloads
    ]
    if system_overrides and not all(isinstance(s, str) for s in systems):
        raise ValueError("overrides only apply when systems are names")
    sweep_jobs = [
        SweepJob.build(workload, system, params, **system_overrides)
        if isinstance(system, str)
        else SweepJob.build(workload, system, params)
        for workload in resolved
        for system in systems
    ]
    results = run_jobs(sweep_jobs, jobs=jobs, cache=cache, progress=progress)
    comparisons: List[SystemComparison] = []
    flat = iter(results)
    for workload in resolved:
        comparison = SystemComparison(workload_name=workload.name)
        for _ in systems:
            result = next(flat)
            comparison.results[result.system_name] = result
        comparisons.append(comparison)
    return comparisons
