"""Hamming(72,64) SECDED code.

An ECC DIMM protects every 64-bit data word with 8 check bits stored on a
ninth chip (paper §II-A).  The code used here is the classic extended
Hamming construction: a Hamming(71,64) single-error-correcting code plus an
overall parity bit, yielding Single-Error-Correct / Double-Error-Detect
behaviour over the 72-bit codeword.

Codeword layout (bit positions within the 72-bit word):

* position 0                      — overall parity over positions 1..71
* positions 1, 2, 4, 8, 16, 32, 64 — Hamming check bits
* the remaining 64 positions      — data bits, in ascending order

The module works on plain Python integers (a 64-bit data word and an 8-bit
check byte), which keeps it dependency-free and easy to property-test.

Every check bit — including the overall parity — is a parity over a fixed
subset of the data bits, so the whole 8-bit check byte is a GF(2)-linear
function of the data word.  ``encode`` therefore reduces to eight table
lookups XORed together: one precomputed 256-entry contribution table per
data byte (``encode(x) == XOR over byte slices of encode(slice)`` because
``encode(0) == 0``).  The straightforward bit-loop construction is kept as
``_encode_reference``/``_decode_reference`` — both to build the tables
from first principles and to property-test the fast path against it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

_CODEWORD_BITS = 72
_PARITY_POSITIONS = (1, 2, 4, 8, 16, 32, 64)
_OVERALL_POSITION = 0

#: Codeword positions (ascending) that carry data bits.
_DATA_POSITIONS: Tuple[int, ...] = tuple(
    pos
    for pos in range(1, _CODEWORD_BITS)
    if pos not in _PARITY_POSITIONS
)
assert len(_DATA_POSITIONS) == 64

#: For each Hamming check bit (indexed by its position-exponent), the mask
#: of *data-bit indices* it covers.
_COVER_MASKS: List[int] = []
for _p in _PARITY_POSITIONS:
    _mask = 0
    for _i, _pos in enumerate(_DATA_POSITIONS):
        if _pos & _p:
            _mask |= 1 << _i
    _COVER_MASKS.append(_mask)

#: Mask of all 64 data bits.
_DATA_MASK = (1 << 64) - 1


def _parity(value: int) -> int:
    """Parity (0/1) of the set bits of ``value``."""
    return value.bit_count() & 1


class DecodeStatus(enum.Enum):
    """Outcome of a SECDED decode."""

    CLEAN = "clean"                  #: no error detected
    CORRECTED_DATA = "corrected"     #: single-bit error in a data bit, fixed
    CORRECTED_CHECK = "check_fixed"  #: single-bit error in a check bit
    DOUBLE_ERROR = "double"          #: uncorrectable double-bit error


@dataclass(frozen=True)
class DecodeResult:
    """Result of decoding a (data, check) pair."""

    data: int                 #: corrected 64-bit data word
    status: DecodeStatus      #: what the decoder concluded
    flipped_position: int     #: codeword position corrected (-1 if none)

    @property
    def ok(self) -> bool:
        """True when the data word is trustworthy after decode."""
        return self.status is not DecodeStatus.DOUBLE_ERROR


# ----------------------------------------------------------------------
# Reference implementation (bit loops over the cover masks).  The tables
# below are generated from it, and the property tests hold the fast path
# bit-identical to it.
# ----------------------------------------------------------------------
def _encode_reference(data: int) -> int:
    """Bit-loop SECDED encode; the specification the tables are built from."""
    if not 0 <= data <= _DATA_MASK:
        raise ValueError(f"data word out of 64-bit range: {data:#x}")
    check = 0
    for i, mask in enumerate(_COVER_MASKS):
        check |= _parity(data & mask) << i
    # Overall parity covers data bits and the seven Hamming bits.
    overall = _parity(data) ^ _parity(check)
    check |= overall << 7
    return check


def _decode_reference(data: int, check: int) -> DecodeResult:
    """Loop-based SECDED decode mirroring the original implementation."""
    if not 0 <= data <= _DATA_MASK:
        raise ValueError(f"data word out of 64-bit range: {data:#x}")
    if not 0 <= check <= 0xFF:
        raise ValueError(f"check byte out of range: {check:#x}")

    expected = _encode_reference(data)
    syndrome = 0
    for i in range(7):
        if ((expected ^ check) >> i) & 1:
            syndrome |= _PARITY_POSITIONS[i]
    # Overall parity over the *received* codeword.
    codeword = _assemble_codeword(data, check)
    parity_mismatch = _parity(codeword)

    if syndrome == 0 and not parity_mismatch:
        return DecodeResult(data, DecodeStatus.CLEAN, -1)
    if syndrome == 0 and parity_mismatch:
        # The overall parity bit itself flipped; data is intact.
        return DecodeResult(data, DecodeStatus.CORRECTED_CHECK, _OVERALL_POSITION)
    if parity_mismatch:
        # Single-bit error at codeword position `syndrome`.
        if syndrome >= _CODEWORD_BITS:
            # Syndrome points outside the codeword: treat as detected
            # uncorrectable corruption.
            return DecodeResult(data, DecodeStatus.DOUBLE_ERROR, -1)
        if syndrome in _PARITY_POSITIONS:
            return DecodeResult(data, DecodeStatus.CORRECTED_CHECK, syndrome)
        bit_index = _DATA_POSITIONS.index(syndrome)
        return DecodeResult(
            data ^ (1 << bit_index), DecodeStatus.CORRECTED_DATA, syndrome
        )
    return DecodeResult(data, DecodeStatus.DOUBLE_ERROR, -1)


# ----------------------------------------------------------------------
# Byte-sliced contribution tables (8 x 256).  ``_ENC_TABLE[b][v]`` is the
# full check byte of the word with byte value ``v`` in byte position
# ``b``; linearity makes encode an XOR of eight lookups.
# ----------------------------------------------------------------------
def _byte_table(byte: int) -> Tuple[int, ...]:
    """Check bytes of every value of one byte slice, by linearity.

    Only the eight single-bit words go through the reference encoder;
    every other entry is an earlier entry XOR one of those, which keeps
    building all eight tables at import to a few thousand XORs.
    """
    bits = [_encode_reference(1 << (8 * byte + i)) for i in range(8)]
    table = [0] * 256
    for value in range(1, 256):
        low = value & -value
        table[value] = table[value ^ low] ^ bits[low.bit_length() - 1]
    return tuple(table)


_ENC_TABLE: Tuple[Tuple[int, ...], ...] = tuple(
    _byte_table(byte) for byte in range(8)
)

#: Syndrome (a codeword position in 1..71) -> data-bit index, or -1 when
#: the position carries a check bit.  Index 0 is unused (syndrome 0 is
#: handled before the lookup).
_SYNDROME_TO_DATA_BIT: Tuple[int, ...] = tuple(
    _DATA_POSITIONS.index(pos) if pos in _DATA_POSITIONS else -1
    for pos in range(_CODEWORD_BITS)
)


def encode(data: int) -> int:
    """Compute the 8 SECDED check bits for a 64-bit data word.

    Returns a byte whose bits 0..6 are the Hamming check bits for
    positions 1, 2, 4, 8, 16, 32, 64 and whose bit 7 is the overall
    parity of the full codeword.
    """
    if not 0 <= data <= _DATA_MASK:
        raise ValueError(f"data word out of 64-bit range: {data:#x}")
    t = _ENC_TABLE
    return (
        t[0][data & 0xFF]
        ^ t[1][(data >> 8) & 0xFF]
        ^ t[2][(data >> 16) & 0xFF]
        ^ t[3][(data >> 24) & 0xFF]
        ^ t[4][(data >> 32) & 0xFF]
        ^ t[5][(data >> 40) & 0xFF]
        ^ t[6][(data >> 48) & 0xFF]
        ^ t[7][(data >> 56) & 0xFF]
    )


def _assemble_codeword(data: int, check: int) -> int:
    """Interleave data and check bits into a 72-bit codeword integer."""
    word = 0
    for i, pos in enumerate(_DATA_POSITIONS):
        word |= ((data >> i) & 1) << pos
    for i, pos in enumerate(_PARITY_POSITIONS):
        word |= ((check >> i) & 1) << pos
    word |= ((check >> 7) & 1) << _OVERALL_POSITION
    return word


def _extract_data(codeword: int) -> int:
    """Pull the 64 data bits back out of a 72-bit codeword integer."""
    data = 0
    for i, pos in enumerate(_DATA_POSITIONS):
        data |= ((codeword >> pos) & 1) << i
    return data


def decode(data: int, check: int) -> DecodeResult:
    """Check (and if possible correct) a 64-bit data word.

    ``check`` is the stored 8-bit SECDED byte.  Implements the standard
    extended-Hamming decision table:

    * syndrome 0, parity OK        -> clean
    * syndrome 0, parity mismatch  -> overall-parity bit was flipped
    * syndrome S, parity mismatch  -> single-bit error at position S, fixed
    * syndrome S, parity OK        -> double error, uncorrectable

    Bits 0..6 of ``expected ^ check`` already *are* the syndrome: check
    bit ``i`` sits at codeword position ``2**i``, so ORing the positions
    of mismatched check bits equals the 7-bit XOR difference itself.  The
    received codeword's overall parity is the parity of data plus check
    bits (assembly only permutes them), so no codeword is materialised.
    """
    if not 0 <= data <= _DATA_MASK:
        raise ValueError(f"data word out of 64-bit range: {data:#x}")
    if not 0 <= check <= 0xFF:
        raise ValueError(f"check byte out of range: {check:#x}")

    syndrome = (encode(data) ^ check) & 0x7F
    parity_mismatch = (data.bit_count() + check.bit_count()) & 1

    if not parity_mismatch:
        if syndrome == 0:
            return DecodeResult(data, DecodeStatus.CLEAN, -1)
        return DecodeResult(data, DecodeStatus.DOUBLE_ERROR, -1)
    if syndrome == 0:
        # The overall parity bit itself flipped; data is intact.
        return DecodeResult(data, DecodeStatus.CORRECTED_CHECK, _OVERALL_POSITION)
    # Single-bit error at codeword position `syndrome`.  A 7-bit syndrome
    # can reach 72..127, which points outside the codeword: treat as
    # detected uncorrectable corruption.
    if syndrome >= _CODEWORD_BITS:
        return DecodeResult(data, DecodeStatus.DOUBLE_ERROR, -1)
    bit_index = _SYNDROME_TO_DATA_BIT[syndrome]
    if bit_index < 0:
        return DecodeResult(data, DecodeStatus.CORRECTED_CHECK, syndrome)
    return DecodeResult(
        data ^ (1 << bit_index), DecodeStatus.CORRECTED_DATA, syndrome
    )


def inject_error(data: int, check: int, positions: Tuple[int, ...]) -> Tuple[int, int]:
    """Flip codeword bits at the given positions; returns (data', check').

    Positions follow the codeword layout documented in the module header.
    Used by fault-injection tests.
    """
    codeword = _assemble_codeword(data, check)
    for pos in positions:
        if not 0 <= pos < _CODEWORD_BITS:
            raise ValueError(f"position out of range: {pos}")
        codeword ^= 1 << pos
    new_data = _extract_data(codeword)
    new_check = 0
    for i, pos in enumerate(_PARITY_POSITIONS):
        new_check |= ((codeword >> pos) & 1) << i
    new_check |= ((codeword >> _OVERALL_POSITION) & 1) << 7
    return new_data, new_check


def encode_line(words: Tuple[int, ...]) -> Tuple[int, ...]:
    """Encode each 64-bit word of a cache line; returns the check bytes.

    A 64-byte line is eight words, so the eight returned check bytes fill
    exactly the 8-byte ECC word stored on the ECC chip (paper §II-A).
    """
    return tuple(map(encode, words))
