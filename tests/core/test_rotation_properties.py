"""Hypothesis property tests for the word-to-chip rotation layouts.

The layouts are pure periodic functions of the line address; these
properties pin exactly the algebra the schedulers rely on:

* the word -> chip map is a bijection at every rotation offset (no two
  words share a chip, every data word has a home),
* ``dirty_chips`` agrees with the naive reference bit-loop for every
  (address, mask) pair,
* ``all_data_chips`` inverts ``data_chip``, and the chips it leaves
  out are exactly the ECC/PCC chips,
* the ECC and PCC slots never collide with a data word's chip.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.rotation import (
    DataRotatedLayout,
    FixedLayout,
    FullyRotatedLayout,
    make_layout,
)
from repro.core.systems import make_system
from repro.memory.request import WORDS_PER_LINE


def layouts():
    geometry_9 = make_system("baseline").geometry       # 9 chips, no PCC
    geometry_10 = make_system("rwow-rde").geometry      # 10 chips with PCC
    return [
        FixedLayout(geometry_9),
        FixedLayout(geometry_10),
        DataRotatedLayout(geometry_9),
        DataRotatedLayout(geometry_10),
        FullyRotatedLayout(geometry_10),
    ]


LAYOUTS = layouts()

lines = st.integers(min_value=0, max_value=1 << 34)
masks = st.integers(min_value=0, max_value=(1 << WORDS_PER_LINE) - 1)
words = st.integers(min_value=0, max_value=WORDS_PER_LINE - 1)


@given(line=lines)
def test_data_map_is_bijective_per_offset(line):
    for layout in LAYOUTS:
        chips = [layout.data_chip(line, w) for w in range(WORDS_PER_LINE)]
        assert len(set(chips)) == WORDS_PER_LINE, layout
        assert all(0 <= chip < layout.n_chips for chip in chips)
        assert tuple(chips) == layout.all_data_chips(line)


@given(line=lines)
def test_ecc_and_pcc_chips_never_collide_with_data(line):
    for layout in LAYOUTS:
        data = set(layout.all_data_chips(line))
        assert layout.ecc_chip(line) not in data, layout
        pcc = layout.pcc_chip(line)
        if pcc is not None:
            assert pcc not in data
            assert pcc != layout.ecc_chip(line)


@given(line=lines, mask=masks)
def test_dirty_chips_matches_reference_bit_loop(line, mask):
    for layout in LAYOUTS:
        reference = tuple(
            layout.data_chip(line, w)
            for w in range(WORDS_PER_LINE)
            if (mask >> w) & 1
        )
        assert layout.dirty_chips(line, mask) == reference, layout


def test_dirty_chips_all_256_masks_exhaustive():
    # The hypothesis test samples; this nails every mask at every offset
    # of the largest period (10) plus one wrap-around.
    for layout in LAYOUTS:
        for line in range(11):
            for mask in range(1 << WORDS_PER_LINE):
                expected = tuple(
                    layout.data_chip(line, w)
                    for w in range(WORDS_PER_LINE)
                    if (mask >> w) & 1
                )
                assert layout.dirty_chips(line, mask) == expected


@given(line=lines, word=words)
def test_word_of_chip_inverts_data_chip(line, word):
    for layout in LAYOUTS:
        chip = layout.data_chip(line, word)
        assert layout.all_data_chips(line).index(chip) == word, layout


@given(line=lines)
def test_word_of_chip_none_exactly_on_non_data_chips(line):
    for layout in LAYOUTS:
        data = set(layout.all_data_chips(line))
        code = {layout.ecc_chip(line), layout.pcc_chip(line)} - {None}
        for chip in range(layout.n_chips):
            assert (chip in data) != (chip in code), (layout, chip)
        # Every data home is an in-range chip.
        assert data <= set(range(layout.n_chips))


@given(line=lines)
def test_rotation_is_periodic(line):
    for layout in LAYOUTS:
        shifted = line + layout._period
        assert layout.all_data_chips(line) == layout.all_data_chips(shifted)
        assert layout.ecc_chip(line) == layout.ecc_chip(shifted)
        assert layout.pcc_chip(line) == layout.pcc_chip(shifted)


@given(line=lines)
def test_read_chips_is_data_plus_ecc(line):
    for layout in LAYOUTS:
        assert layout.read_chips(line) == (
            layout.all_data_chips(line) + (layout.ecc_chip(line),)
        )


def test_make_layout_dispatch():
    geometry = make_system("rwow-rde").geometry
    assert isinstance(make_layout(geometry, False, False), FixedLayout)
    assert isinstance(make_layout(geometry, True, False), DataRotatedLayout)
    assert isinstance(make_layout(geometry, True, True), FullyRotatedLayout)
    # rotate_ecc implies full rotation regardless of rotate_data.
    assert isinstance(make_layout(geometry, False, True), FullyRotatedLayout)
