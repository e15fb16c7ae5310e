"""Unit tests for cache line state."""

import pytest

from repro.cache.cacheline import CacheLine, line_base, word_index


def test_new_line_is_clean():
    line = CacheLine(tag=1)
    assert not line.dirty
    assert line.dirty_mask == 0


def test_mark_dirty_sets_word_bit():
    line = CacheLine(tag=1)
    line.mark_dirty(3)
    line.mark_dirty(3)
    line.mark_dirty(7)
    assert line.dirty_mask == (1 << 3) | (1 << 7)
    assert line.dirty


def test_mark_dirty_bounds():
    line = CacheLine(tag=1)
    with pytest.raises(ValueError):
        line.mark_dirty(8)


def test_write_word_updates_payload_and_mask():
    line = CacheLine(tag=1, words=tuple([0] * 8))
    line.write_word(2, 0xABCD)
    assert line.words[2] == 0xABCD
    assert line.dirty_mask == 1 << 2


def test_write_word_same_value_still_marks_dirty():
    """Silent stores look dirty in the cache; memory detects them later."""
    line = CacheLine(tag=1, words=tuple([7] * 8))
    line.write_word(0, 7)
    assert line.dirty_mask == 1


def test_write_word_requires_payload():
    line = CacheLine(tag=1)
    with pytest.raises(ValueError):
        line.write_word(0, 1)


def test_write_word_value_range():
    line = CacheLine(tag=1, words=tuple([0] * 8))
    with pytest.raises(ValueError):
        line.write_word(0, 1 << 64)


def test_word_index_and_line_base():
    assert word_index(0) == 0
    assert word_index(8) == 1
    assert word_index(63) == 7
    assert word_index(64) == 0
    assert line_base(130) == 128


def test_touch_updates_lru_timestamp():
    line = CacheLine(tag=1)
    line.touch(42)
    assert line.last_use == 42
