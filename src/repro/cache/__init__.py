"""Cache substrate: functional L1/L2/DRAM stack plus the timed DRAM tier.

The functional stack (:mod:`repro.cache.hierarchy`) loads on first use:
no simulator run builds it, so ``import repro`` skips its module body.
"""

from repro.cache.cacheline import CacheLine, line_base, word_index
from repro.cache.dram_cache import DramCache, DramCacheConfig
from repro.cache.frontend import (
    FRONT_END_KINDS,
    DramCacheFrontEnd,
    FrontEndConfig,
    FrontEndStats,
)
from repro.cache.replacement import (
    REPLACEMENT_POLICIES,
    REPLACEMENT_POLICY_NAMES,
    ClockReplacement,
    LruReplacement,
    MacReplacement,
    ReplacementPolicy,
    make_replacement_policy,
    register_replacement_policy,
)
from repro.cache.array_backend import ArraySetCache
from repro.cache.set_assoc import (
    CACHE_BACKENDS,
    CacheStats,
    Eviction,
    SetAssociativeCache,
    make_set_cache,
)

__all__ = [
    "CacheLine",
    "line_base",
    "word_index",
    "DramCache",
    "DramCacheConfig",
    "FRONT_END_KINDS",
    "DramCacheFrontEnd",
    "FrontEndConfig",
    "FrontEndStats",
    "CacheHierarchy",
    "HierarchyConfig",
    "HierarchyOutcome",
    "REPLACEMENT_POLICIES",
    "REPLACEMENT_POLICY_NAMES",
    "ClockReplacement",
    "LruReplacement",
    "MacReplacement",
    "ReplacementPolicy",
    "make_replacement_policy",
    "register_replacement_policy",
    "ArraySetCache",
    "CACHE_BACKENDS",
    "CacheStats",
    "Eviction",
    "SetAssociativeCache",
    "make_set_cache",
]


_HIERARCHY_NAMES = ("CacheHierarchy", "HierarchyConfig", "HierarchyOutcome")


def __getattr__(name: str):
    if name in _HIERARCHY_NAMES:
        from repro.cache import hierarchy

        return getattr(hierarchy, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
