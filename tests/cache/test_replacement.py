"""Unit tests for the named replacement policies."""

import pytest

from repro.cache.config import REPLACEMENT_POLICY_NAMES
from repro.cache.replacement import (
    MAC_LEVELS,
    REPLACEMENT_POLICIES,
    LruReplacement,
    make_replacement_policy,
)
from repro.cache.set_assoc import ArraySetCache

LINE = 64


def _cache(policy, sets=1, assoc=4):
    return ArraySetCache(LINE * sets * assoc, assoc, policy=policy)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
def test_registry_names_match_factories():
    assert REPLACEMENT_POLICY_NAMES == tuple(REPLACEMENT_POLICIES)
    for name in ("lru", "clock", "mac"):
        assert name in REPLACEMENT_POLICIES
        policy = make_replacement_policy(name)
        assert policy.name == name


def test_make_policy_defaults_to_lru():
    assert isinstance(make_replacement_policy(None), LruReplacement)


def test_make_policy_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown replacement policy"):
        make_replacement_policy("fifo-ish")


# ---------------------------------------------------------------------------
# LRU (must match the historical hard-coded behaviour)
# ---------------------------------------------------------------------------
def test_lru_evicts_least_recently_used():
    cache = _cache("lru", assoc=3)
    for i in range(3):
        cache.access(i * LINE, False)
    cache.access(0 * LINE, False)   # order now: 1, 2, 0
    cache.access(3 * LINE, False)   # evicts 1
    assert not cache.contains(1 * LINE)
    assert cache.contains(0) and cache.contains(2 * LINE)


def test_default_policy_is_lru():
    cache = ArraySetCache(LINE * 4, 4)
    assert isinstance(cache.policy, LruReplacement)


# ---------------------------------------------------------------------------
# CLOCK
# ---------------------------------------------------------------------------
def test_clock_gives_second_chance_to_referenced_lines():
    cache = _cache("clock", assoc=2)
    cache.access(0 * LINE, False)   # A (ref set on fill)
    cache.access(1 * LINE, False)   # B (ref set on fill)
    cache.access(0 * LINE, False)   # A re-referenced (ref already set)
    # Both bits are set, so the first eviction is a full sweep: it clears
    # both bits and takes the line at the hand.  The survivor is left
    # with a *clear* bit while the newcomer C fills with its bit set.
    cache.access(2 * LINE, False)
    survivors = [a for a in (0, LINE) if cache.contains(a)]
    assert len(survivors) == 1
    # Second chance: the next eviction must take the clear-bit survivor
    # and spare the referenced newcomer C.
    cache.access(3 * LINE, False)
    assert not cache.contains(survivors[0])
    assert cache.contains(2 * LINE)


def test_clock_terminates_when_all_bits_set():
    cache = _cache("clock", assoc=4)
    for i in range(4):
        cache.access(i * LINE, False)
    for i in range(4):
        cache.access(i * LINE, False)  # every ref bit set
    cache.access(4 * LINE, False)      # full sweep, then a victim
    assert cache.resident_lines() == 4


# ---------------------------------------------------------------------------
# MAC (multilevel access counters)
# ---------------------------------------------------------------------------
def test_mac_protects_frequently_hit_lines():
    cache = _cache("mac", assoc=2)
    cache.access(0 * LINE, False)
    for _ in range(3):
        cache.access(0 * LINE, False)   # promote A to the top level
    cache.access(1 * LINE, False)       # B at level 0
    cache.access(1 * LINE, False)       # B level 1 but more recent than A
    cache.access(2 * LINE, False)       # victim = lowest level -> B
    assert cache.contains(0)
    assert not cache.contains(1 * LINE)


def test_mac_renormalises_saturated_sets():
    cache = _cache("mac", assoc=2)
    cache.access(0 * LINE, False)
    cache.access(1 * LINE, False)
    for _ in range(5):                  # both lines promoted off level 0
        cache.access(0 * LINE, False)
        cache.access(1 * LINE, False)
    lines_before = [cache.line_state(0), cache.line_state(LINE)]
    assert all(line.policy_state > 0 for line in lines_before)
    assert max(line.policy_state for line in lines_before) == MAC_LEVELS - 1
    cache.access(2 * LINE, False)       # victim() renormalises first
    # The set's floor was subtracted, so the survivor is not pinned at
    # the ceiling and the newcomer can compete.
    remaining = [
        cache.line_state(a) for a in (0, LINE, 2 * LINE)
        if cache.contains(a)
    ]
    assert min(line.policy_state for line in remaining) == 0


# ---------------------------------------------------------------------------
# Policies actually change eviction behaviour
# ---------------------------------------------------------------------------
def test_policies_diverge_on_mixed_reuse_pattern():
    """A hot line + streaming scans: frequency-aware MAC keeps the hot
    line resident longer than pure recency does."""
    def run(policy_name):
        cache = _cache(policy_name, sets=2, assoc=2)
        hot_hits = 0
        for i in range(64):
            cache.access(0, False)                      # hot line
            cache.access((1 + i % 16) * 2 * LINE, False)  # same-set scan
            if cache.contains(0):
                hot_hits += 1
        return hot_hits

    results = {name: run(name) for name in REPLACEMENT_POLICY_NAMES}
    assert len(set(results.values())) >= 2, results
    assert results["mac"] >= results["lru"]
