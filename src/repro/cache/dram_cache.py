"""The 256 MB DRAM cache (Table I's last cache level before PCM).

PCM main-memory studies interpose a large DRAM cache between the SRAM
caches and PCM (Table I: 256 MB shared, 8-way, 64 B lines, write-back).
It is the component that *generates* the write-back stream whose
dirty-word statistics Figure 2 analyses, so its lines track per-word
dirty masks (and, in functional mode, real words).

This wraps :class:`~repro.cache.set_assoc.ArraySetCache` with the
Table I geometry and the write-back plumbing its consumers need.  Two
consumers exist: the functional
:class:`~repro.cache.hierarchy.CacheHierarchy` (mask derivation, no
timing) and the timed
:class:`~repro.cache.frontend.DramCacheFrontEnd`, which schedules
``access_cycles`` hit latencies on the simulation engine.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

# DramCacheConfig must stay importable here: sweep jobs pickled before it
# moved to repro.cache.config name this module.
from repro.cache.config import DramCacheConfig
from repro.cache.set_assoc import ArraySetCache, Eviction


class DramCache:
    """Last-level (DRAM) cache in front of the PCM main memory."""

    def __init__(
        self,
        config: Optional[DramCacheConfig] = None,
        track_words: bool = False,
        policy: Optional[str] = None,
    ):
        self.config = config or DramCacheConfig()
        self.cache = ArraySetCache(
            self.config.size_bytes,
            self.config.associativity,
            name="dram-cache",
            track_words=track_words,
            policy=policy,
        )
        #: Dirty evictions produced so far (the PCM write-back stream).
        self.write_backs: int = 0

    # ------------------------------------------------------------------
    def access(
        self, address: int, is_write: bool, value: Optional[int] = None
    ) -> Tuple[bool, List[Eviction]]:
        """One reference from the level above.

        Returns ``(hit, write_backs)`` where write-backs are the dirty
        evictions that must be sent to PCM.  A miss implies a PCM line
        fill (the caller issues the read).
        """
        hit, evicted = self.cache.access(address, is_write, value)
        write_backs: List[Eviction] = []
        if evicted is not None:
            self.write_backs += 1
            write_backs.append(evicted)
        return hit, write_backs

    def flush(self) -> List[Eviction]:
        """Evict every dirty line (end-of-run write-back drain).

        Drains in :meth:`ArraySetCache.dirty_lines` order: first-fill
        order of sets, residency order within each set.
        """
        drained: List[Eviction] = []
        for line_address in self.cache.dirty_lines():
            eviction = self.cache.invalidate(line_address)
            if eviction is not None:
                self.write_backs += 1
                drained.append(eviction)
        return drained

    @property
    def stats(self):
        return self.cache.stats
