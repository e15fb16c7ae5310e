"""Unit tests for the columnar set-associative cache's own contracts.

Slab indices from ``probe``, snapshot ``line_state``, no stale hits from
vacated tag slots and functional payloads.
"""

import pytest

from repro.cache.dram_cache import DramCache, DramCacheConfig
from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cache.set_assoc import ArraySetCache

LINE = 64


def _small_cache(sets=4, assoc=2, **kwargs):
    return ArraySetCache(LINE * sets * assoc, assoc, **kwargs)


# ----------------------------------------------------------------------
# Geometry / construction
# ----------------------------------------------------------------------
def test_geometry_validation():
    with pytest.raises(ValueError):
        ArraySetCache(100, 2)


def test_custom_policy_instance_is_rejected():
    """Policies are chosen by name only; there is no extension point."""

    class Weird:
        name = "weird"
        hit_code = 0
        fill_state = 0

        @staticmethod
        def victim(last_use, policy, hands, set_index, base, count):
            return 0

    with pytest.raises(ValueError, match="unknown replacement policy"):
        ArraySetCache(LINE * 8, 2, policy=Weird())


def test_every_level_builds_the_columnar_cache():
    dram = DramCache(DramCacheConfig(size_bytes=LINE * 16, associativity=4))
    assert isinstance(dram.cache, ArraySetCache)
    hierarchy = CacheHierarchy(n_cores=2, config=HierarchyConfig(
        l1_size=LINE * 4, l2_size=LINE * 16,
        dram_cache=DramCacheConfig(size_bytes=LINE * 64, associativity=2),
        replacement="mac",
    ))
    levels = hierarchy.l1s + [hierarchy.l2, hierarchy.dram.cache]
    assert all(isinstance(level, ArraySetCache) for level in levels)
    assert {level.policy.name for level in levels} == {"mac"}


# ----------------------------------------------------------------------
# Probe / line_state / merge_dirty contracts
# ----------------------------------------------------------------------
def test_probe_returns_slab_index_possibly_zero():
    cache = _small_cache(sets=1, assoc=2)
    assert cache.probe(0) is None           # miss: no allocation
    assert cache.stats.misses == 1
    cache.install(0)
    idx = cache.probe(0)
    # The first fill of set 0 lands at slab index 0 — the reason callers
    # must test `is not None`, never truthiness.
    assert idx == 0
    assert cache.stats.hits == 1


def test_probe_merges_dirty_mask_on_hit():
    cache = _small_cache(sets=1, assoc=2)
    cache.install(0)
    cache.probe(0, dirty_mask=0b101)
    state = cache.line_state(0)
    assert state is not None and state.dirty_mask == 0b101


def test_line_state_is_a_snapshot_not_a_writethrough():
    cache = _small_cache(sets=1, assoc=2)
    cache.install(0)
    state = cache.line_state(0)
    state.dirty_mask |= 0xFF                # mutating the copy ...
    assert cache.line_state(0).dirty_mask == 0   # ... changes nothing
    cache.merge_dirty(0, 0b11)              # merge_dirty writes through
    assert cache.line_state(0).dirty_mask == 0b11


def test_merge_dirty_is_noop_on_miss_and_zero_mask():
    cache = _small_cache(sets=1, assoc=2)
    cache.merge_dirty(0, 0b1)               # not resident: no-op
    assert cache.line_state(0) is None
    cache.install(0)
    cache.merge_dirty(0, 0)                 # zero mask: no-op
    assert cache.line_state(0).dirty_mask == 0


def test_line_state_miss_returns_none():
    cache = _small_cache()
    assert cache.line_state(12345 * LINE) is None


# ----------------------------------------------------------------------
# Vacated slots must never produce stale hits
# ----------------------------------------------------------------------
def test_invalidate_restores_sentinel_no_stale_hits():
    cache = _small_cache(sets=1, assoc=4)
    addresses = [i * LINE for i in range(4)]
    for address in addresses:
        cache.access(address, is_write=False)
    cache.invalidate(1 * LINE)
    for address in addresses:
        assert cache.contains(address) == (address != 1 * LINE)
    # The set's resident prefix closed over the vacated slot.
    assert list(cache._tags[:cache._count[0]]) == [0, 2, 3]


def test_eviction_shifts_tail_and_restores_sentinel():
    cache = _small_cache(sets=1, assoc=2)
    cache.access(0 * LINE, True)            # A dirty
    cache.access(1 * LINE, True)            # B dirty
    cache.access(0 * LINE, False)           # touch A -> B is LRU
    _hit, evicted = cache.access(2 * LINE, False)
    assert evicted is not None and evicted.address == 1 * LINE
    assert cache.contains(0) and cache.contains(2 * LINE)
    assert not cache.contains(1 * LINE)
    assert list(cache._tags) == [0, 2]


# ----------------------------------------------------------------------
# Functional payloads
# ----------------------------------------------------------------------
def test_track_words_stores_values_and_validates():
    cache = _small_cache(sets=1, assoc=2, track_words=True)
    cache.access(0 + 8 * 3, is_write=True, value=0xDEAD)
    state = cache.line_state(0)
    assert state.words[3] == 0xDEAD
    assert state.dirty_mask == 1 << 3
    with pytest.raises(ValueError, match="out of range"):
        cache.access(0, is_write=True, value=1 << 64)


def test_install_is_idempotent_and_invalidate_clean_returns_none():
    cache = _small_cache(sets=1, assoc=2)
    assert cache.install(0) is None
    assert cache.install(0) is None         # already resident: no-op
    assert cache.resident_lines() == 1
    assert cache.invalidate(0) is None      # clean: no write-back record
    assert cache.resident_lines() == 0
    assert cache.invalidate(0) is None      # not resident: no-op


def test_invalidate_dirty_returns_eviction_record():
    cache = _small_cache(sets=1, assoc=2)
    cache.access(2 * LINE + 8, is_write=True)
    evicted = cache.invalidate(2 * LINE)
    assert evicted is not None
    assert evicted.address == 2 * LINE
    assert evicted.dirty_mask == 1 << 1
    assert cache.stats.dirty_evictions == 1
