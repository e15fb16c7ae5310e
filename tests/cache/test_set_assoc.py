"""Unit tests for the set-associative cache."""

import pytest

from repro.cache.set_assoc import ArraySetCache

LINE = 64


def _small_cache(sets=4, assoc=2, **kwargs):
    return ArraySetCache(LINE * sets * assoc, assoc, **kwargs)


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArraySetCache(100, 2)


def test_miss_then_hit():
    cache = _small_cache()
    hit, _ = cache.access(0, is_write=False)
    assert not hit
    hit, _ = cache.access(0, is_write=False)
    assert hit
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_same_line_different_bytes_hit():
    cache = _small_cache()
    cache.access(0, False)
    hit, _ = cache.access(63, False)
    assert hit


def test_lru_eviction_order():
    cache = _small_cache(sets=1, assoc=2)
    cache.access(0 * LINE, True)       # A (dirty, so its eviction shows)
    cache.access(1 * LINE, True)       # B (dirty)
    cache.access(0 * LINE, False)      # touch A -> B is LRU
    _hit, evicted = cache.access(2 * LINE, False)  # C evicts B
    assert evicted is not None
    assert evicted.address == 1 * LINE
    assert cache.contains(0) and cache.contains(2 * LINE)
    assert not cache.contains(1 * LINE)


def test_clean_eviction_returns_none_and_counts():
    cache = _small_cache(sets=1, assoc=1)
    cache.access(0, False)
    _hit, evicted = cache.access(LINE, False)
    assert evicted is None
    assert cache.stats.evictions == 1
    assert cache.stats.clean_evictions == 1
    assert cache.stats.dirty_evictions == 0


def test_dirty_eviction_carries_word_mask():
    cache = _small_cache(sets=1, assoc=1)
    cache.access(0 + 8 * 2, True)   # dirty word 2
    cache.access(0 + 8 * 5, True)   # dirty word 5 (hit)
    _hit, evicted = cache.access(LINE, False)
    assert evicted is not None
    assert evicted.dirty_mask == (1 << 2) | (1 << 5)
    assert cache.stats.dirty_evictions == 1


def test_eviction_address_reconstruction():
    cache = _small_cache(sets=4, assoc=1)
    target = 13 * LINE
    cache.access(target, True)
    conflicting = target + 4 * LINE  # same set, different tag
    _hit, evicted = cache.access(conflicting, False)
    assert evicted is not None
    assert evicted.address == target


def test_track_words_stores_values():
    cache = _small_cache(track_words=True)
    cache.access(8 * 3, True, value=0x1234)
    line = cache.line_state(0)
    assert line is not None
    assert line.words[3] == 0x1234
    assert line.dirty_mask == 1 << 3


def test_install_without_access():
    cache = _small_cache()
    evicted = cache.install(0)
    assert evicted is None
    assert cache.contains(0)
    assert cache.stats.misses == 0  # install is not an access


def test_invalidate_dirty_returns_eviction():
    cache = _small_cache()
    cache.access(0, True)
    eviction = cache.invalidate(0)
    assert eviction is not None and eviction.dirty
    assert not cache.contains(0)


def test_invalidate_clean_returns_none():
    cache = _small_cache()
    cache.access(0, False)
    assert cache.invalidate(0) is None
    assert not cache.contains(0)


def test_hit_rate():
    cache = _small_cache()
    cache.access(0, False)
    cache.access(0, False)
    cache.access(0, False)
    cache.access(LINE, False)
    assert cache.stats.hit_rate == pytest.approx(0.5)
    assert cache.stats.accesses == 4


def test_resident_lines():
    cache = _small_cache()
    for i in range(5):
        cache.access(i * LINE, False)
    assert cache.resident_lines() == 5
