"""Unit + property tests for the word/ECC/PCC rotation layouts."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.rotation import (
    DataRotatedLayout,
    FixedLayout,
    FullyRotatedLayout,
    make_layout,
)
from repro.memory.address import BASELINE_GEOMETRY, PCMAP_GEOMETRY

LINES = st.integers(min_value=0, max_value=1 << 27)
WORDS = st.integers(min_value=0, max_value=7)


def test_fixed_layout_identity_mapping():
    layout = FixedLayout(PCMAP_GEOMETRY)
    for word in range(8):
        assert layout.data_chip(12345, word) == word
    assert layout.ecc_chip(12345) == 8
    assert layout.pcc_chip(12345) == 9


def test_fixed_layout_without_pcc():
    layout = FixedLayout(BASELINE_GEOMETRY)
    assert layout.pcc_chip(0) is None


def test_data_rotation_matches_figure6():
    """Figure 6: line X+k maps word w to chip (w + k) mod 8."""
    layout = DataRotatedLayout(PCMAP_GEOMETRY)
    base = 8 * 1000  # a line whose offset is 0
    for k in range(8):
        for word in range(8):
            assert layout.data_chip(base + k, word) == (word + k) % 8


def test_data_rotation_keeps_codes_pinned():
    layout = DataRotatedLayout(PCMAP_GEOMETRY)
    for line in range(20):
        assert layout.ecc_chip(line) == 8
        assert layout.pcc_chip(line) == 9


def test_full_rotation_shifts_all_slots():
    layout = FullyRotatedLayout(PCMAP_GEOMETRY)
    line = 10 * 77  # offset 0
    assert layout.data_chip(line, 0) == 0
    assert layout.ecc_chip(line) == 8
    assert layout.pcc_chip(line) == 9
    # Next line: everything shifts by one, ECC wraps through chip 9 -> 0.
    assert layout.data_chip(line + 1, 0) == 1
    assert layout.ecc_chip(line + 1) == 9
    assert layout.pcc_chip(line + 1) == 0


def test_full_rotation_requires_pcc():
    with pytest.raises(ValueError):
        FullyRotatedLayout(BASELINE_GEOMETRY)


@given(LINES)
@settings(max_examples=200)
def test_property_data_chips_distinct_per_line(line):
    for layout in (
        FixedLayout(PCMAP_GEOMETRY),
        DataRotatedLayout(PCMAP_GEOMETRY),
        FullyRotatedLayout(PCMAP_GEOMETRY),
    ):
        chips = layout.all_data_chips(line)
        assert len(set(chips)) == 8


@given(LINES)
@settings(max_examples=200)
def test_property_code_chips_disjoint_from_data(line):
    for layout in (
        FixedLayout(PCMAP_GEOMETRY),
        DataRotatedLayout(PCMAP_GEOMETRY),
        FullyRotatedLayout(PCMAP_GEOMETRY),
    ):
        data = set(layout.all_data_chips(line))
        assert layout.ecc_chip(line) not in data
        assert layout.pcc_chip(line) not in data
        assert layout.ecc_chip(line) != layout.pcc_chip(line)


@given(LINES, WORDS)
@settings(max_examples=200)
def test_property_word_of_chip_inverts_data_chip(line, word):
    for layout in (
        DataRotatedLayout(PCMAP_GEOMETRY),
        FullyRotatedLayout(PCMAP_GEOMETRY),
    ):
        chip = layout.data_chip(line, word)
        assert layout.all_data_chips(line).index(chip) == word


def test_word_of_chip_none_for_code_chip():
    layout = FixedLayout(PCMAP_GEOMETRY)
    assert 8 not in layout.all_data_chips(0)
    assert 9 not in layout.all_data_chips(0)


def test_dirty_chips_follow_mask():
    layout = DataRotatedLayout(PCMAP_GEOMETRY)
    line = 8 * 5 + 2  # offset 2
    chips = layout.dirty_chips(line, 0b0000_0101)  # words 0, 2
    assert chips == (2, 4)


def test_read_chips_include_ecc():
    layout = FixedLayout(PCMAP_GEOMETRY)
    assert layout.read_chips(0) == (0, 1, 2, 3, 4, 5, 6, 7, 8)


@given(LINES)
@settings(max_examples=100)
def test_property_full_rotation_covers_all_chips_over_cycle(line):
    layout = FullyRotatedLayout(PCMAP_GEOMETRY)
    # Over 10 consecutive lines the ECC word visits all 10 chips.
    ecc_chips = {layout.ecc_chip(line + k) for k in range(10)}
    assert ecc_chips == set(range(10))


def test_make_layout_factory():
    assert isinstance(make_layout(PCMAP_GEOMETRY, False, False), FixedLayout)
    assert isinstance(make_layout(PCMAP_GEOMETRY, True, False), DataRotatedLayout)
    assert isinstance(make_layout(PCMAP_GEOMETRY, True, True), FullyRotatedLayout)
    assert isinstance(make_layout(PCMAP_GEOMETRY, False, True), FullyRotatedLayout)


def test_rotation_decorrelates_same_offset_writes():
    """The clustering argument of §IV-C2 in miniature: consecutive lines
    dirty at the same word offset hit *different* chips once rotated."""
    fixed = FixedLayout(PCMAP_GEOMETRY)
    rotated = DataRotatedLayout(PCMAP_GEOMETRY)
    fixed_chips = {fixed.data_chip(line, 3) for line in range(8)}
    rotated_chips = {rotated.data_chip(line, 3) for line in range(8)}
    assert fixed_chips == {3}
    assert rotated_chips == set(range(8))
