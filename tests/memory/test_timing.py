"""Unit tests for timing parameters (Table I)."""

import pytest

from repro.memory.timing import DEFAULT_TIMING, TimingParams, WriteLatencyMode


def test_default_clock_is_400mhz():
    assert DEFAULT_TIMING.cycle_ticks == 25  # 2.5 ns at 0.1 ns ticks


def test_cycles_helper():
    assert DEFAULT_TIMING.cycles(4) == 100


def test_burst_of_eight_is_four_cycles():
    assert DEFAULT_TIMING.burst_ticks == DEFAULT_TIMING.cycles(4)


def test_array_latencies_from_paper():
    assert DEFAULT_TIMING.array_read_ticks == 600    # 60 ns
    assert DEFAULT_TIMING.array_write_ticks == 1200  # 120 ns


def test_default_write_to_read_ratio_is_two():
    ratio = DEFAULT_TIMING.array_write_ns / DEFAULT_TIMING.array_read_ns
    assert ratio == pytest.approx(2.0)


def test_with_write_to_read_ratio_holds_write_constant():
    for ratio in (2.0, 4.0, 6.0, 8.0):
        timing = DEFAULT_TIMING.with_write_to_read_ratio(ratio)
        assert timing.array_write_ns == DEFAULT_TIMING.array_write_ns
        assert timing.array_write_ns / timing.array_read_ns == pytest.approx(ratio)


def test_with_write_to_read_ratio_rejects_nonpositive():
    with pytest.raises(ValueError):
        DEFAULT_TIMING.with_write_to_read_ratio(0)


def test_symmetric_variant_equalises_latencies():
    symmetric = DEFAULT_TIMING.symmetric()
    assert symmetric.array_write_ticks == symmetric.array_read_ticks
    assert symmetric.array_write_set_ticks == symmetric.array_read_ticks
    assert symmetric.array_write_ns == pytest.approx(symmetric.array_read_ns)


def test_ecc_update_cheaper_than_word_write():
    assert 0 < DEFAULT_TIMING.ecc_update_ticks < DEFAULT_TIMING.array_write_ticks


def test_read_write_io_ticks():
    t = DEFAULT_TIMING
    assert t.read_io_ticks == t.cycles(t.tCL) + t.burst_ticks
    assert t.write_io_ticks == t.cycles(t.tWL) + t.burst_ticks


def test_status_poll_matches_paper():
    # 2 memory cycles = 0.8 ns (paper §IV-D1)
    assert DEFAULT_TIMING.status_poll_ticks == 8


def test_set_reset_asymmetry():
    timing = TimingParams(write_mode=WriteLatencyMode.SET_RESET)
    assert timing.array_write_set_ticks == 1200   # 120 ns SET
    assert timing.array_write_reset_ticks == 500  # 50 ns RESET


def test_timing_params_frozen():
    with pytest.raises(AttributeError):
        DEFAULT_TIMING.tCL = 7  # type: ignore[misc]
