"""Unit tests for result persistence."""

import pytest

from repro.sim.metrics import MemoryStats, SimulationResult
from repro.sim.results_io import (
    load_results,
    result_from_dict,
    result_to_dict,
    save_results,
)


def _result():
    stats = MemoryStats(
        reads_completed=1, read_latency_ticks=100, read_latency_max=100,
        reads_delayed_by_write=1, writes_completed=1,
        dirty_word_histogram=[0, 0, 0, 1, 0, 0, 0, 0, 0],
        chip_word_writes={2: 1, 9: 1},
    )
    return SimulationResult(
        system_name="rwow-rde",
        workload_name="canneal",
        sim_ticks=12345,
        instructions=1000,
        cpu_cycles=800,
        memory=stats,
        irlp_average=3.14,
        irlp_max=7.0,
        write_service_busy_ticks=999,
    )


def test_dict_roundtrip():
    original = _result()
    restored = result_from_dict(result_to_dict(original))
    assert restored.system_name == original.system_name
    assert restored.ipc == original.ipc
    assert restored.memory.chip_word_writes == {2: 1, 9: 1}
    assert restored.memory.dirty_word_histogram == (
        original.memory.dirty_word_histogram
    )


def test_file_roundtrip(tmp_path):
    path = tmp_path / "results.json"
    results = [_result(), _result()]
    assert save_results(path, results) == 2
    loaded = load_results(path)
    assert len(loaded) == 2
    assert loaded[0].irlp_average == pytest.approx(3.14)


def test_schema_version_checked():
    data = result_to_dict(_result())
    data["schema"] = 99
    with pytest.raises(ValueError):
        result_from_dict(data)


def test_load_rejects_non_list(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    with pytest.raises(ValueError):
        load_results(path)


def test_save_results_is_atomic_and_leaves_no_temp_files(tmp_path):
    path = tmp_path / "results.json"
    save_results(path, [_result()])
    save_results(path, [_result(), _result()])  # overwrite in place
    assert [p.name for p in tmp_path.iterdir()] == ["results.json"]
    assert len(load_results(path)) == 2


def test_atomic_write_text_creates_parents(tmp_path):
    from repro.sim.results_io import atomic_write_text

    path = tmp_path / "deep" / "nested" / "out.txt"
    atomic_write_text(path, "hello")
    assert path.read_text() == "hello"
    assert [p.name for p in path.parent.iterdir()] == ["out.txt"]


@pytest.mark.parametrize("existing_mode, expected_mode", [
    pytest.param(None, 0o644, id="new-file"),
    pytest.param(0o644, 0o644, id="replace-0644"),
    pytest.param(0o600, 0o600, id="replace-0600"),
])
def test_atomic_write_text_keeps_normal_permissions(
    tmp_path, existing_mode, expected_mode
):
    """Under umask 022 a new file is 0644 and a replaced file keeps its
    mode — the temp file must not leak mkstemp's 0600."""
    import os
    import stat

    from repro.sim.results_io import atomic_write_text

    path = tmp_path / "out.json"
    old_umask = os.umask(0o022)
    try:
        if existing_mode is not None:
            path.write_text("old")
            os.chmod(path, existing_mode)
        atomic_write_text(path, "new")
    finally:
        os.umask(old_umask)
    assert path.read_text() == "new"
    assert stat.S_IMODE(path.stat().st_mode) == expected_mode
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_convenience_fields_present():
    data = result_to_dict(_result())
    assert "ipc" in data and "write_throughput" in data


def test_attribution_header_stamped():
    data = result_to_dict(_result())
    # Seed defaults to -1 for hand-built results, but the key is present.
    assert data["seed"] == -1
    assert isinstance(data["code_version"], str) and data["code_version"]
    restored = result_from_dict(data)
    assert restored.seed == -1


def test_seed_round_trips():
    result = _result()
    result.seed = 42
    assert result_from_dict(result_to_dict(result)).seed == 42


def test_code_version_memoised():
    from repro.sim.results_io import code_version

    assert code_version() == code_version()


def test_seed_absent_in_old_files_defaults():
    data = result_to_dict(_result())
    del data["seed"]
    assert result_from_dict(data).seed == -1
