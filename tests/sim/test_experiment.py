"""Unit tests for the experiment helpers."""

import pytest

from repro.core.systems import make_system
from repro.sim.experiment import (
    SystemComparison,
    compare_systems,
    run_workload,
    sweep_workloads,
)
from repro.sim.metrics import MemoryStats, SimulationResult
from repro.sim.simulator import SimulationParams

FAST = SimulationParams(instructions_per_core=4_000, n_cores=2)


def _result(system, ipc_cycles, latency=100, throughput_busy=10_000, writes=10):
    stats = MemoryStats(
        reads_completed=1, read_latency_ticks=latency, writes_completed=writes
    )
    return SimulationResult(
        system_name=system,
        workload_name="w",
        sim_ticks=1000,
        instructions=10_000,
        cpu_cycles=ipc_cycles,
        memory=stats,
        irlp_average=2.0,
        irlp_max=4.0,
        write_service_busy_ticks=throughput_busy,
    )


def test_comparison_ipc_improvement():
    comparison = SystemComparison("w")
    comparison.results["baseline"] = _result("baseline", 10_000)  # ipc 1.0
    comparison.results["rwow-rde"] = _result("rwow-rde", 8_000)   # ipc 1.25
    assert comparison.ipc_improvement("rwow-rde") == pytest.approx(0.25)


def test_comparison_latency_and_throughput_ratios():
    comparison = SystemComparison("w")
    comparison.results["baseline"] = _result("baseline", 10_000, latency=200)
    comparison.results["x"] = _result("x", 10_000, latency=100)
    assert comparison.read_latency_ratio("x") == pytest.approx(0.5)
    comparison.results["y"] = _result("y", 10_000, throughput_busy=5_000)
    assert comparison.write_throughput_ratio("y") == pytest.approx(2.0)


def test_comparison_requires_baseline():
    comparison = SystemComparison("w")
    comparison.results["x"] = _result("x", 10_000)
    with pytest.raises(ValueError):
        _ = comparison.baseline


def test_run_workload_accepts_name_and_config():
    by_name = run_workload("MP3", "baseline", FAST)
    by_config = run_workload("MP3", make_system("baseline"), FAST)
    assert by_name.ipc == by_config.ipc


def test_run_workload_overrides_only_with_names():
    with pytest.raises(ValueError):
        run_workload("MP3", make_system("baseline"), FAST, wow_max_group=2)


def test_compare_systems_subset():
    comparison = compare_systems("MP3", ["baseline", "wow-nr"], FAST)
    assert set(comparison.results) == {"baseline", "wow-nr"}
    assert comparison.workload_name == "MP3"


def test_sweep_workloads_shapes():
    sweeps = sweep_workloads(["MP2", "MP3"], ["baseline"], FAST)
    assert [s.workload_name for s in sweeps] == ["MP2", "MP3"]


def test_sweep_workloads_through_runner_cache(tmp_path):
    from repro.sim.runner import ResultCache

    cache = ResultCache(tmp_path)
    first = sweep_workloads(["MP3"], ["baseline"], FAST, jobs=2, cache=cache)
    assert cache.stats.writes == 1
    second = sweep_workloads(["MP3"], ["baseline"], FAST, cache=cache)
    assert cache.stats.hits == 1
    assert (
        first[0].results["baseline"].ipc == second[0].results["baseline"].ipc
    )


def test_sweep_rejects_overrides_with_config_systems():
    with pytest.raises(ValueError):
        sweep_workloads(
            ["MP3"], [make_system("baseline")], FAST, wow_max_group=2
        )
