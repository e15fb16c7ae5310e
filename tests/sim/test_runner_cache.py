"""Unit tests for the on-disk sweep result cache."""

import json

from repro.sim.metrics import MemoryStats, SimulationResult
from repro.sim.results_io import result_to_dict
from repro.sim.runner import ResultCache
from repro.telemetry import RunProfile

KEY = "a" * 64


def _result(profile: bool = True) -> SimulationResult:
    stats = MemoryStats(
        reads_completed=1, read_latency_ticks=120, read_latency_max=120,
        writes_completed=1, dirty_word_histogram=[0, 0, 1, 0, 0, 0, 0, 0, 0],
        chip_word_writes={3: 1},
    )
    return SimulationResult(
        system_name="rwow-rde",
        workload_name="canneal",
        sim_ticks=4242,
        instructions=1000,
        cpu_cycles=900,
        memory=stats,
        irlp_average=2.5,
        irlp_max=6.0,
        write_service_busy_ticks=777,
        seed=123,
        profile=RunProfile(events_dispatched=50, wall_seconds=0.25)
        if profile
        else None,
    )


def test_roundtrip_preserves_payload_and_profile(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get(KEY) is None
    cache.put(KEY, _result())
    loaded = cache.get(KEY)
    assert loaded is not None
    assert result_to_dict(loaded) == result_to_dict(_result())
    # The original run's engine cost rides along for telemetry summaries.
    assert loaded.profile.events_dispatched == 50
    assert loaded.profile.wall_seconds == 0.25
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_missing_profile_is_tolerated(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(KEY, _result(profile=False))
    loaded = cache.get(KEY)
    assert loaded is not None and loaded.profile is None


def test_truncated_entry_is_discarded(tmp_path):
    cache = ResultCache(tmp_path)
    path = cache.put(KEY, _result())
    path.write_text(path.read_text()[:40])  # simulate a crash mid-write
    assert cache.get(KEY) is None
    assert cache.stats.corrupt == 1
    assert not path.exists()  # bad entry removed so it cannot recur


def test_tampered_payload_fails_digest_check(tmp_path):
    cache = ResultCache(tmp_path)
    path = cache.put(KEY, _result())
    entry = json.loads(path.read_text())
    entry["result"]["ipc"] = 99.0
    path.write_text(json.dumps(entry))
    assert cache.get(KEY) is None
    assert cache.stats.corrupt == 1


def test_entry_under_wrong_key_is_rejected(tmp_path):
    cache = ResultCache(tmp_path)
    path = cache.put(KEY, _result())
    other = "b" * 64
    path.rename(cache.path_for(other))
    assert cache.get(other) is None
    assert cache.stats.corrupt == 1


def test_unsupported_envelope_schema_is_rejected(tmp_path):
    cache = ResultCache(tmp_path)
    path = cache.put(KEY, _result())
    entry = json.loads(path.read_text())
    entry["schema"] = 999
    path.write_text(json.dumps(entry))
    assert cache.get(KEY) is None


def test_atomic_put_leaves_no_temp_files(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(KEY, _result())
    names = [p.name for p in tmp_path.iterdir()]
    assert names == [f"{KEY}.json"]


def test_permission_denied_entry_recomputes_and_is_counted(
    tmp_path, monkeypatch, capsys
):
    """An unreadable entry degrades to a miss (the sweep recomputes) but is
    counted in ``stats.errors`` and warned about exactly once."""
    import builtins

    cache = ResultCache(tmp_path)
    path = cache.put(KEY, _result())
    real_open = builtins.open

    def deny_open(file, *args, **kwargs):
        if str(file) == str(path):
            raise PermissionError(13, "Permission denied", str(file))
        return real_open(file, *args, **kwargs)

    def deny_unlink(self, missing_ok=False):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(builtins, "open", deny_open)
    monkeypatch.setattr(type(path), "unlink", deny_unlink)

    assert cache.get(KEY) is None  # degraded to a miss: caller recomputes
    assert cache.stats.misses == 1
    assert cache.stats.errors == 2  # unreadable + undeletable
    assert cache.stats.corrupt == 0  # an I/O error is not corruption
    first = capsys.readouterr().err
    assert "sweep cache" in first and str(path) in first
    assert "errors" in cache.stats.summary()

    assert cache.get(KEY) is None  # still failing: counted again ...
    assert cache.stats.errors == 4
    assert capsys.readouterr().err == ""  # ... but warned only once
