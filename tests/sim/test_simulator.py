"""Unit tests for the full-system driver."""

import pytest

from repro.core.systems import make_system
from repro.sim.simulator import SimulationParams, SystemSimulator, simulate
from repro.trace.workloads import get_workload

FAST = SimulationParams(instructions_per_core=4_000, n_cores=2)


def test_simulate_by_workload_name():
    result = simulate(make_system("baseline"), "canneal", FAST)
    assert result.workload_name == "canneal"
    assert result.system_name == "baseline"
    assert result.instructions == 2 * 4_000


def test_simulate_by_profile_object():
    profile = get_workload("MP2")
    result = simulate(make_system("baseline"), profile, FAST)
    assert result.workload_name == "MP2"


def test_rollback_rate_wired_from_workload():
    sim = SystemSimulator(make_system("row-nr"), "canneal", FAST)
    assert sim.system.row_rollback_rate == pytest.approx(0.058)


def test_explicit_rollback_rate_not_overridden():
    system = make_system("row-nr", row_rollback_rate=0.5)
    sim = SystemSimulator(system, "canneal", FAST)
    assert sim.system.row_rollback_rate == 0.5


def test_baseline_does_not_need_rollback_rate():
    sim = SystemSimulator(make_system("baseline"), "canneal", FAST)
    assert sim.system.row_rollback_rate == 0.0


def test_resolve_instructions_fixed():
    params = SimulationParams(instructions_per_core=123)
    assert params.resolve_instructions(get_workload("canneal")) == 123


def test_resolve_instructions_by_target_requests():
    params = SimulationParams(target_requests=8_000, n_cores=8)
    canneal = params.resolve_instructions(get_workload("canneal"))
    gromacs = params.resolve_instructions(get_workload("gromacs"))
    # Lighter workloads get proportionally more instructions.
    assert gromacs > canneal
    mpki = get_workload("canneal").mpki
    assert canneal == pytest.approx(8_000 * 1000 / (mpki * 8), rel=0.01)


def test_resolve_instructions_floor():
    params = SimulationParams(target_requests=1)
    assert params.resolve_instructions(get_workload("canneal")) == 5_000


@pytest.mark.parametrize("field, value", [
    ("n_cores", 0), ("n_cores", -1),
    ("target_requests", 0), ("target_requests", -5),
])
def test_params_reject_empty_runs_naming_the_field(field, value):
    with pytest.raises(ValueError, match=field):
        SimulationParams(**{field: value})


def test_run_twice_is_an_error_free_fresh_build():
    # Each SystemSimulator is single-use; building two is independent.
    a = SystemSimulator(make_system("baseline"), "MP3", FAST).run()
    b = SystemSimulator(make_system("baseline"), "MP3", FAST).run()
    assert a.ipc == b.ipc


def test_result_contains_memory_stats():
    result = simulate(make_system("rwow-rde"), "canneal", FAST)
    assert result.memory.reads_completed > 0
    assert result.cpu_cycles > 0
    assert result.sim_ticks > 0


def test_metrics_and_timeseries_absent_by_default():
    result = simulate(make_system("baseline"), "canneal", FAST)
    assert result.metrics is None
    assert result.timeseries is None


def test_sampling_does_not_perturb_the_simulation():
    """Enabling the sampler must not change any behavioural outcome —
    only the wall clock.  This is the enabled-path half of the
    golden-trace guarantee (both run the same engine loop)."""
    plain = simulate(make_system("rwow-rde"), "canneal", FAST)
    sampled_params = SimulationParams(
        instructions_per_core=4_000, n_cores=2,
        sample_every_ticks=500, collect_metrics=True,
    )
    sampled = simulate(make_system("rwow-rde"), "canneal", sampled_params)
    assert sampled.sim_ticks == plain.sim_ticks
    assert sampled.profile.events_dispatched == plain.profile.events_dispatched
    assert sampled.ipc == plain.ipc
    assert sampled.memory.reads_completed == plain.memory.reads_completed


def test_sampled_run_embeds_metrics_and_timeseries():
    params = SimulationParams(
        instructions_per_core=4_000, n_cores=2,
        sample_every_ticks=500, collect_metrics=True,
    )
    result = simulate(make_system("rwow-rde"), "canneal", params)
    assert result.metrics is not None
    assert result.metrics["reads.completed"]["value"] == (
        result.memory.reads_completed
    )
    # _collect() dumps after _profile(), so the engine fingerprint gauges
    # are part of the embedded metrics.
    assert result.metrics["engine.sim_ticks"]["value"] == result.sim_ticks
    assert result.metrics["engine.events_dispatched"]["value"] == (
        result.profile.events_dispatched
    )
    series = result.timeseries
    assert series is not None
    assert series["cadence_ticks"] == 500
    assert len(series["ticks"]) > 10
    assert series["ticks"] == sorted(series["ticks"])
    names = set(series["columns"])
    assert {"reads.outstanding", "write_engine.inflight",
            "write.windows_open", "rollbacks.cumulative",
            "irlp.recent"} <= names
    assert "ch0.queue.read.depth" in names and "ch3.queue.write.depth" in names
    # Something actually moved during the run.
    assert any(v > 0 for v in series["columns"]["reads.outstanding"])


def test_sampled_run_is_deterministic():
    params = SimulationParams(
        instructions_per_core=4_000, n_cores=2,
        sample_every_ticks=500, collect_metrics=True,
    )
    import json

    a = simulate(make_system("rwow-rde"), "canneal", params)
    b = simulate(make_system("rwow-rde"), "canneal", params)
    assert json.dumps(a.metrics, sort_keys=True) == json.dumps(
        b.metrics, sort_keys=True
    )
    assert json.dumps(a.timeseries, sort_keys=True) == json.dumps(
        b.timeseries, sort_keys=True
    )
