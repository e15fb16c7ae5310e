"""Simulator integration of the DRAM-cache front end.

The timed tier must (a) stay completely out of the default path — the
golden-trace and perf-fingerprint pins elsewhere enforce bit-identity, and
the tests here check nothing is even constructed — and (b) behave as a
deterministic, policy-sensitive filter when switched on.
"""

import pytest

from repro.core.systems import make_front_end, make_system
from repro.sim.results_io import result_from_dict, result_to_dict
from repro.sim.runner import SweepJob
from repro.sim.simulator import SimulationParams, SystemSimulator, simulate

#: Small tier so the seed-7 workload actually exercises evictions.
_TINY_DRAM = dict(size_bytes=16 * 1024)


def _params(policy="lru", **kwargs):
    front_end = make_front_end("dram", policy, **_TINY_DRAM)
    kwargs.setdefault("target_requests", 2_000)
    kwargs.setdefault("seed", 7)
    return SimulationParams(front_end=front_end, **kwargs)


# ---------------------------------------------------------------------------
# Default path: nothing built, nothing reported
# ---------------------------------------------------------------------------
def test_default_params_have_front_end_disabled():
    params = SimulationParams()
    assert params.front_end.kind == "none"
    assert not params.front_end.enabled


def test_none_front_end_builds_no_tier():
    sim = SystemSimulator(make_system("baseline"), "canneal",
                          SimulationParams(target_requests=1_000, seed=7))
    assert sim.frontend is None
    assert sim.multicore.port is sim.memory
    result = sim.run()
    assert result.frontend is None


# ---------------------------------------------------------------------------
# Enabled path
# ---------------------------------------------------------------------------
def test_dram_front_end_interposes_and_reports():
    sim = SystemSimulator(make_system("rwow-rde"), "canneal", _params())
    assert sim.frontend is not None
    assert sim.multicore.port is sim.frontend
    result = sim.run()
    assert result.frontend is not None
    assert result.frontend["kind"] == "dram"
    assert result.frontend["replacement"] == "lru"
    summary = result.frontend
    assert summary["read_hits"] + summary["read_misses"] == summary["reads"]
    assert summary["fills"] > 0
    # The tier filters PCM reads: fills (+ write-backs) are the only PCM
    # traffic.  A few fills may still be in flight when the last core
    # retires, so completed PCM reads are bounded by the fills issued.
    assert result.memory.reads_completed <= summary["fills"]
    assert summary["fills"] - result.memory.reads_completed < 50


def test_policies_produce_differing_deterministic_hit_rates():
    """Acceptance criterion: LRU vs CLOCK vs MAC differ on the same
    seed-7 workload, and each is exactly reproducible."""
    def run(policy):
        result = simulate(make_system("rwow-rde"), "canneal", _params(policy))
        return (
            result.sim_ticks,
            result.frontend["hit_rate"],
            result.frontend["write_backs"],
        )

    first = {p: run(p) for p in ("lru", "clock", "mac")}
    second = {p: run(p) for p in ("lru", "clock", "mac")}
    assert first == second, "front-end runs must be deterministic"
    hit_rates = {first[p][1] for p in first}
    assert len(hit_rates) >= 2, f"policies did not diverge: {first}"


def test_front_end_timeseries_probes_present_only_when_enabled():
    direct = SystemSimulator(
        make_system("baseline"), "canneal",
        SimulationParams(target_requests=500, seed=7,
                         sample_every_ticks=10_000),
    )
    direct.run()
    assert not any(
        name.startswith("frontend.") for name in direct.sampler.series.names
    )

    tiered = SystemSimulator(
        make_system("baseline"), "canneal",
        _params(target_requests=500, sample_every_ticks=10_000),
    )
    tiered.run()
    columns = tiered.sampler.series.names
    for probe in ("frontend.mshr.depth", "frontend.writeback.depth",
                  "frontend.hit_rate"):
        assert probe in columns


# ---------------------------------------------------------------------------
# Persistence and sweep-cache coverage
# ---------------------------------------------------------------------------
def test_result_round_trips_frontend_section():
    result = simulate(make_system("rwow-rde"), "canneal", _params("mac"))
    restored = result_from_dict(result_to_dict(result))
    assert restored.frontend == result.frontend
    assert restored.frontend["replacement"] == "mac"


def test_directpath_result_serialises_without_frontend_key():
    result = simulate(make_system("baseline"), "canneal",
                      SimulationParams(target_requests=500, seed=7))
    payload = result_to_dict(result)
    assert "frontend" not in payload
    assert result_from_dict(payload).frontend is None


def test_sweep_cache_key_covers_front_end_config():
    base = SimulationParams(target_requests=1_000, seed=7)
    keys = {
        SweepJob.build("canneal", "baseline", params).cache_key
        for params in (
            base,
            _params("lru", target_requests=1_000),
            _params("clock", target_requests=1_000),
            _params("mac", target_requests=1_000),
        )
    }
    assert len(keys) == 4, "front-end config must be part of the cache key"


# ---------------------------------------------------------------------------
# systems.py registry
# ---------------------------------------------------------------------------
def test_make_front_end_validates_kind():
    with pytest.raises(ValueError, match="unknown front end"):
        make_front_end("sram")
    assert make_front_end("none").enabled is False
    assert make_front_end("dram", "clock", access_cycles=42).dram.access_cycles == 42
