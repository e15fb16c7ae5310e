"""Unit + property tests for the Hamming(72,64) SECDED code."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.ecc import hamming
from repro.ecc.hamming import DecodeStatus

WORDS = st.integers(min_value=0, max_value=(1 << 64) - 1)
POSITIONS = st.integers(min_value=0, max_value=71)


def test_encode_zero_word():
    assert hamming.encode(0) == 0


def test_clean_roundtrip_simple():
    data = 0xDEADBEEF_12345678
    check = hamming.encode(data)
    result = hamming.decode(data, check)
    assert result.status is DecodeStatus.CLEAN
    assert result.data == data
    assert result.ok


def test_encode_rejects_out_of_range():
    with pytest.raises(ValueError):
        hamming.encode(1 << 64)
    with pytest.raises(ValueError):
        hamming.encode(-1)


def test_decode_rejects_bad_check_byte():
    with pytest.raises(ValueError):
        hamming.decode(0, 0x100)


@given(WORDS)
@settings(max_examples=200)
def test_property_clean_roundtrip(data):
    check = hamming.encode(data)
    result = hamming.decode(data, check)
    assert result.status is DecodeStatus.CLEAN
    assert result.data == data


@given(WORDS, POSITIONS)
@settings(max_examples=200)
def test_property_single_bit_error_corrected(data, position):
    check = hamming.encode(data)
    bad_data, bad_check = hamming.inject_error(data, check, (position,))
    result = hamming.decode(bad_data, bad_check)
    assert result.ok
    assert result.data == data
    assert result.status in (
        DecodeStatus.CORRECTED_DATA,
        DecodeStatus.CORRECTED_CHECK,
    )


@given(WORDS, st.lists(POSITIONS, min_size=2, max_size=2, unique=True))
@settings(max_examples=200)
def test_property_double_bit_error_detected(data, positions):
    check = hamming.encode(data)
    bad_data, bad_check = hamming.inject_error(data, check, tuple(positions))
    result = hamming.decode(bad_data, bad_check)
    assert result.status is DecodeStatus.DOUBLE_ERROR
    assert not result.ok


def test_every_data_bit_position_corrects():
    data = 0xA5A5_A5A5_5A5A_5A5A
    check = hamming.encode(data)
    corrected_data_positions = 0
    for position in range(72):
        bad_data, bad_check = hamming.inject_error(data, check, (position,))
        result = hamming.decode(bad_data, bad_check)
        assert result.data == data, f"position {position} failed"
        if result.status is DecodeStatus.CORRECTED_DATA:
            corrected_data_positions += 1
    assert corrected_data_positions == 64  # the 64 data-bit positions


def test_flipped_data_bit_changes_data_then_fixed():
    data = 0x1
    check = hamming.encode(data)
    bad_data, bad_check = hamming.inject_error(data, check, (3,))
    assert bad_data != data  # position 3 is a data bit
    result = hamming.decode(bad_data, bad_check)
    assert result.status is DecodeStatus.CORRECTED_DATA
    assert result.data == data


def test_overall_parity_bit_flip_reported_as_check_fix():
    data = 0xFFFF_0000_FFFF_0000
    check = hamming.encode(data)
    bad_data, bad_check = hamming.inject_error(data, check, (0,))
    assert bad_data == data
    result = hamming.decode(bad_data, bad_check)
    assert result.status is DecodeStatus.CORRECTED_CHECK
    assert result.flipped_position == 0


def test_inject_error_position_out_of_range():
    with pytest.raises(ValueError):
        hamming.inject_error(0, 0, (72,))


def test_inject_error_twice_same_position_is_identity():
    data = 0x1234_5678_9ABC_DEF0
    check = hamming.encode(data)
    d1, c1 = hamming.inject_error(data, check, (17,))
    d2, c2 = hamming.inject_error(d1, c1, (17,))
    assert (d2, c2) == (data, check)


def test_encode_line_produces_eight_checks():
    words = tuple(range(8))
    checks = hamming.encode_line(words)
    assert len(checks) == 8
    assert checks == tuple(hamming.encode(w) for w in words)


def test_decode_line_roundtrip():
    words = tuple((w * 0x9E3779B97F4A7C15) & ((1 << 64) - 1) for w in range(8))
    checks = hamming.encode_line(words)
    results = [hamming.decode(w, c) for w, c in zip(words, checks)]
    assert tuple(r.data for r in results) == words
    assert all(r.status is DecodeStatus.CLEAN for r in results)


def test_decode_line_corrects_one_word():
    words = tuple(range(100, 108))
    checks = hamming.encode_line(words)
    corrupted = list(words)
    corrupted[5] ^= 1 << 30
    results = [hamming.decode(w, c) for w, c in zip(corrupted, checks)]
    assert tuple(r.data for r in results) == words
    assert results[5].status is DecodeStatus.CORRECTED_DATA


# ----------------------------------------------------------------------
# Exhaustive corruption classes over the 72 stored bits
# ----------------------------------------------------------------------
def _flip(word: int, check: int, position: int):
    """Flip one of the 72 stored bits (0..63 data, 64..71 check byte)."""
    if position < 64:
        return word ^ (1 << position), check
    return word, check ^ (1 << (position - 64))


def _corrupt(word: int, check: int, positions):
    for position in positions:
        word, check = _flip(word, check, position)
    return word, check


CORRUPTION_SEEDS = [0, (1 << 64) - 1, 0xDEADBEEFCAFEBABE, 0x0123456789ABCDEF]


@pytest.mark.parametrize("seed_word", CORRUPTION_SEEDS)
def test_every_single_bit_error_corrects(seed_word):
    """All 72 one-bit flips: data flips correct back to the original,
    check flips leave data intact, and the table-driven decoder agrees
    with the bit-loop reference on every one."""
    check = hamming.encode(seed_word)
    for position in range(72):
        word, bad_check = _corrupt(seed_word, check, (position,))
        result = hamming.decode(word, bad_check)
        assert result == hamming._decode_reference(word, bad_check)
        if position < 64:
            assert result.status is DecodeStatus.CORRECTED_DATA
            assert result.data == seed_word
        else:
            assert result.status is DecodeStatus.CORRECTED_CHECK
            assert result.data == word  # data untouched
        assert result.flipped_position >= 0


@pytest.mark.parametrize("seed_word", CORRUPTION_SEEDS[:2])
def test_every_double_bit_error_detects(seed_word):
    """All C(72,2) = 2556 two-bit flips are flagged DOUBLE_ERROR, and the
    table-driven decoder agrees with the bit-loop reference on every one."""
    check = hamming.encode(seed_word)
    for pair in itertools.combinations(range(72), 2):
        word, bad_check = _corrupt(seed_word, check, pair)
        result = hamming.decode(word, bad_check)
        assert result.status is DecodeStatus.DOUBLE_ERROR, pair
        assert result == hamming._decode_reference(word, bad_check)


@given(WORDS, WORDS)
@settings(max_examples=100)
def test_property_distinct_words_rarely_share_codewords(a, b):
    # Not a strict code property, but encode must be a function: equal
    # inputs give equal checks, and decode(a, encode(a)) never reports an
    # error.
    if a == b:
        assert hamming.encode(a) == hamming.encode(b)
    assert hamming.decode(a, hamming.encode(a)).status is DecodeStatus.CLEAN

# ----------------------------------------------------------------------
# Table-driven fast path vs the bit-loop reference (the tables' spec)
# ----------------------------------------------------------------------
def test_tables_match_reference_on_every_byte_slice():
    # The tables are built by linearity from the single-bit words; every
    # entry must still be the reference encoder's check byte.
    for byte in range(8):
        for value in range(256):
            assert hamming._ENC_TABLE[byte][value] == (
                hamming._encode_reference(value << (8 * byte))
            ), (byte, value)


@given(WORDS)
@settings(max_examples=300)
def test_property_encode_matches_reference(data):
    assert hamming.encode(data) == hamming._encode_reference(data)


@given(WORDS, st.integers(min_value=0, max_value=0xFF))
@settings(max_examples=300)
def test_property_decode_matches_reference_any_check(data, check):
    # Arbitrary (data, check) pairs reach every decode branch, including
    # the out-of-codeword syndromes 72..127.
    fast = hamming.decode(data, check)
    reference = hamming._decode_reference(data, check)
    assert fast == reference


@given(WORDS, POSITIONS)
@settings(max_examples=200)
def test_property_decode_matches_reference_single_error(data, position):
    check = hamming.encode(data)
    bad_data, bad_check = hamming.inject_error(data, check, (position,))
    assert hamming.decode(bad_data, bad_check) == hamming._decode_reference(
        bad_data, bad_check
    )


@given(WORDS, st.lists(POSITIONS, min_size=2, max_size=2, unique=True))
@settings(max_examples=200)
def test_property_decode_matches_reference_double_error(data, positions):
    check = hamming.encode(data)
    bad_data, bad_check = hamming.inject_error(data, check, tuple(positions))
    assert hamming.decode(bad_data, bad_check) == hamming._decode_reference(
        bad_data, bad_check
    )


def test_syndrome_table_marks_check_positions():
    # Positions 1, 2, 4, ... 64 carry check bits (-1); all other nonzero
    # positions map back to their data-bit index.
    table = hamming._SYNDROME_TO_DATA_BIT
    for position in range(1, 72):
        if position in (1, 2, 4, 8, 16, 32, 64):
            assert table[position] == -1
        else:
            assert table[position] >= 0
