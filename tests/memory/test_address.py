"""Unit + property tests for address mapping."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.address import (
    AddressMapper,
    BASELINE_GEOMETRY,
    MemoryGeometry,
    PCMAP_GEOMETRY,
)
from repro.memory.request import LINE_BYTES

MAPPER = AddressMapper(BASELINE_GEOMETRY)

LINE_ADDRESSES = st.integers(
    min_value=0, max_value=BASELINE_GEOMETRY.capacity_bytes // LINE_BYTES - 1
).map(lambda line: line * LINE_BYTES)


def test_geometry_defaults_match_table1():
    geo = BASELINE_GEOMETRY
    assert geo.n_channels == 4
    assert geo.ranks_per_channel == 1
    assert geo.banks_per_rank == 8
    assert geo.row_bytes == 8192
    assert geo.capacity_bytes == 8 * 1024 ** 3
    assert geo.data_chips == 8


def test_baseline_has_nine_chips_pcmap_ten():
    assert BASELINE_GEOMETRY.chips_per_rank == 9
    assert PCMAP_GEOMETRY.chips_per_rank == 10


def test_ecc_and_pcc_chip_indices():
    assert BASELINE_GEOMETRY.ecc_chip_index == 8
    assert PCMAP_GEOMETRY.ecc_chip_index == 8
    assert PCMAP_GEOMETRY.pcc_chip_index == 9
    with pytest.raises(ValueError):
        BASELINE_GEOMETRY.pcc_chip_index


def test_lines_per_row():
    assert BASELINE_GEOMETRY.lines_per_row == 128


def test_consecutive_lines_interleave_channels():
    channels = [
        MAPPER.decode(line * LINE_BYTES).channel for line in range(8)
    ]
    assert channels == [0, 1, 2, 3, 0, 1, 2, 3]


def test_decode_rejects_unaligned():
    with pytest.raises(ValueError):
        MAPPER.decode(7)


def test_decode_rejects_out_of_capacity():
    with pytest.raises(ValueError):
        MAPPER.decode(BASELINE_GEOMETRY.capacity_bytes)


def test_encode_rejects_out_of_range_fields():
    with pytest.raises(ValueError):
        MAPPER.encode(channel=4, rank=0, bank=0, row=0, column=0)
    with pytest.raises(ValueError):
        MAPPER.encode(channel=0, rank=0, bank=8, row=0, column=0)
    with pytest.raises(ValueError):
        MAPPER.encode(channel=0, rank=0, bank=0, row=0, column=128)


@given(LINE_ADDRESSES)
@settings(max_examples=300)
def test_property_decode_encode_roundtrip(address):
    decoded = MAPPER.decode(address)
    rebuilt = MAPPER.encode(
        decoded.channel, decoded.rank, decoded.bank, decoded.row, decoded.column
    )
    assert rebuilt == address


@given(LINE_ADDRESSES)
@settings(max_examples=300)
def test_property_fields_in_range(address):
    decoded = MAPPER.decode(address)
    geo = BASELINE_GEOMETRY
    assert 0 <= decoded.channel < geo.n_channels
    assert 0 <= decoded.rank < geo.ranks_per_channel
    assert 0 <= decoded.bank < geo.banks_per_rank
    assert 0 <= decoded.column < geo.lines_per_row
    assert decoded.row >= 0
    assert decoded.line_address == address // LINE_BYTES


def test_same_row_lines_share_bank_and_row():
    # Lines that differ only in column should land in the same row/bank.
    a = MAPPER.decode(MAPPER.encode(0, 0, 3, 17, 5))
    b = MAPPER.decode(MAPPER.encode(0, 0, 3, 17, 6))
    assert (a.bank, a.row) == (b.bank, b.row)
    assert a.column + 1 == b.column


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        MemoryGeometry(row_bytes=100)  # not a multiple of the line size
    with pytest.raises(ValueError):
        MemoryGeometry(n_channels=0)
