"""Unit tests for the functional backing store."""

from repro.ecc import hamming, parity
from repro.memory.storage import MemoryStorage, _cold_pattern


def test_cold_pattern_deterministic():
    assert _cold_pattern(42) == _cold_pattern(42)
    assert _cold_pattern(42) != _cold_pattern(43)


def test_cold_read_has_consistent_codes():
    storage = MemoryStorage()
    line = storage.read_line(7)
    assert line.checks == hamming.encode_line(line.words)
    assert line.pcc == parity.compute_parity(line.words)


def test_diff_mask_detects_changes_and_silent_words():
    storage = MemoryStorage()
    old = storage.read_line(5).words
    new = list(old)
    new[2] ^= 0xFF
    new[6] ^= 1
    mask = storage.diff_mask(5, tuple(new))
    assert mask == (1 << 2) | (1 << 6)


def test_write_line_updates_only_dirty_words():
    storage = MemoryStorage()
    old = storage.read_line(9).words
    new = tuple(w ^ 0xABC for w in old)
    # Only word 4 flagged dirty: other words must stay old despite new
    # values being different (the mask is authoritative).
    storage.write_line(9, new, dirty_mask=1 << 4)
    line = storage.read_line(9)
    assert line.words[4] == new[4]
    for w in range(8):
        if w != 4:
            assert line.words[w] == old[w]


def test_write_line_maintains_codes():
    storage = MemoryStorage()
    old = storage.read_line(11).words
    new = list(old)
    new[0] = 0x1234
    new[7] = 0x5678
    storage.write_line(11, tuple(new))
    line = storage.read_line(11)
    assert line.checks == hamming.encode_line(line.words)
    assert line.pcc == parity.compute_parity(line.words)


def test_write_line_derives_mask_when_none():
    storage = MemoryStorage()
    old = storage.read_line(13).words
    new = list(old)
    new[1] ^= 0b11
    mask = storage.write_line(13, tuple(new))
    assert mask == 1 << 1


def test_corrupt_bit_breaks_secded_until_corrected():
    storage = MemoryStorage()
    line_addr = 21
    storage.read_line(line_addr)
    storage.corrupt_bit(line_addr, word=3, bit=17)
    line = storage.read_line(line_addr)
    result = hamming.decode(line.words[3], line.checks[3])
    assert result.status is hamming.DecodeStatus.CORRECTED_DATA
    assert result.data == line.words[3] ^ (1 << 17)


def test_len_and_contains_track_materialised_lines():
    storage = MemoryStorage()
    assert len(storage) == 0
    assert 5 not in storage
    storage.read_line(5)
    assert len(storage) == 1
    assert 5 in storage


def test_no_pcc_mode():
    storage = MemoryStorage(keep_pcc=False)
    line = storage.read_line(1)
    assert line.pcc == 0
