"""Unit + property tests for PCC parity and erasure reconstruction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ecc import parity

WORD = st.integers(min_value=0, max_value=(1 << 64) - 1)
LINE = st.lists(WORD, min_size=8, max_size=8)


def test_parity_of_zero_line_is_zero():
    assert parity.compute_parity([0] * 8) == 0


def test_parity_is_xor():
    words = [1 << i for i in range(8)]
    assert parity.compute_parity(words) == 0xFF


def test_parity_wrong_length_rejected():
    with pytest.raises(ValueError):
        parity.compute_parity([0] * 7)


def test_parity_out_of_range_word_rejected():
    with pytest.raises(ValueError):
        parity.compute_parity([1 << 64] + [0] * 7)


@given(LINE)
@settings(max_examples=200)
def test_property_reconstruct_any_missing_word(words):
    pcc = parity.compute_parity(words)
    for missing in range(8):
        partial = list(words)
        partial[missing] = None
        rebuilt = parity.reconstruct_word(partial, pcc)
        assert list(rebuilt) == words


@given(LINE, st.integers(min_value=0, max_value=7), WORD)
@settings(max_examples=200)
def test_property_incremental_update_matches_recompute(words, index, new_word):
    # RoW's step two updates the PCC word as ``parity ^ old ^ new``.
    pcc = parity.compute_parity(words)
    updated = pcc ^ words[index] ^ new_word
    new_words = list(words)
    new_words[index] = new_word
    assert updated == parity.compute_parity(new_words)


def test_reconstruct_requires_exactly_one_missing():
    words = [1, 2, 3, 4, 5, 6, 7, 8]
    pcc = parity.compute_parity(words)
    with pytest.raises(ValueError):
        parity.reconstruct_word(words, pcc)  # nothing missing
    partial = [None, None] + words[2:]
    with pytest.raises(ValueError):
        parity.reconstruct_word(partial, pcc)  # two missing


def test_reconstruct_wrong_length():
    with pytest.raises(ValueError):
        parity.reconstruct_word([None] + [0] * 6, 0)


def test_reconstruct_bad_parity_value():
    partial = [None] + [0] * 7
    with pytest.raises(ValueError):
        parity.reconstruct_word(partial, 1 << 64)
