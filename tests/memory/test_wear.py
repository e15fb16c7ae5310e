"""Unit + property tests for Start-Gap wear levelling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.wear import StartGapRemapper


def _mapping(remapper):
    """Physical slot of every logical line."""
    return [remapper.physical_line(line) for line in range(remapper.n_lines)]


def _is_permutation(remapper):
    mapping = _mapping(remapper)
    return len(set(mapping)) == len(mapping)


def test_initial_mapping_is_identity():
    remapper = StartGapRemapper(n_lines=8)
    assert _mapping(remapper) == list(range(8))


def test_parameters_validated():
    with pytest.raises(ValueError):
        StartGapRemapper(n_lines=1)
    with pytest.raises(ValueError):
        StartGapRemapper(n_lines=8, gap_interval=0)


def test_logical_line_bounds():
    remapper = StartGapRemapper(n_lines=8)
    with pytest.raises(ValueError):
        remapper.physical_line(8)


def test_gap_moves_after_interval():
    remapper = StartGapRemapper(n_lines=8, gap_interval=4)
    for _ in range(4):
        remapper.on_write(0)
    assert remapper.stats.gap_moves == 1
    assert remapper.gap == 7


def test_mapping_stays_permutation_through_full_rotation():
    remapper = StartGapRemapper(n_lines=8, gap_interval=1)
    for i in range(200):
        remapper.on_write(i % 8)
        assert _is_permutation(remapper), f"broken after write {i}"


def test_start_advances_when_gap_wraps():
    remapper = StartGapRemapper(n_lines=4, gap_interval=1)
    # Gap positions: 4 -> 3 -> 2 -> 1 -> 0 -> wrap (start++).
    for _ in range(5):
        remapper.on_write(0)
    assert remapper.start == 1
    assert remapper.gap == 4


def test_hot_line_migrates_across_physical_slots():
    remapper = StartGapRemapper(n_lines=8, gap_interval=2)
    touched = set()
    for _ in range(200):
        touched.add(remapper.on_write(3))  # single hot logical line
    assert len(touched) >= 6  # the hot line visited most physical slots


def test_wear_levelling_reduces_max_line_writes():
    hot_writes = 600

    def run(gap_interval):
        remapper = StartGapRemapper(n_lines=16, gap_interval=gap_interval)
        for _ in range(hot_writes):
            remapper.on_write(5)
        return remapper.stats.max_line_writes()

    levelled = run(gap_interval=4)
    unlevelled = run(gap_interval=10 ** 9)
    assert levelled < unlevelled / 2


@given(
    st.integers(min_value=2, max_value=64),
    st.integers(min_value=1, max_value=16),
    st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200),
)
@settings(max_examples=100)
def test_property_mapping_always_injective(n_lines, interval, writes):
    remapper = StartGapRemapper(n_lines=n_lines, gap_interval=interval)
    for logical in writes:
        remapper.on_write(logical % n_lines)
    assert _is_permutation(remapper)


def test_stats_imbalance():
    remapper = StartGapRemapper(n_lines=8, gap_interval=10 ** 9)
    for _ in range(10):
        remapper.on_write(0)
    remapper.on_write(1)
    assert remapper.stats.total_writes == 11
    assert remapper.stats.max_line_writes() == 10
    assert remapper.stats.imbalance() > 1.5
