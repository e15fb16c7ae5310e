"""Three-level cache hierarchy (Table I): L1 -> L2 -> DRAM cache -> PCM.

The hierarchy consumes CPU-level LOAD/STORE trace records and emits
main-memory events: line READs on last-cache-level misses and
dirty-masked WRITE_BACKs on evictions.  This is the functional path that
*derives* the dirty-word masks the statistical generator otherwise
synthesises — the full-hierarchy example and the cache tests use it.

The DRAM level is optional: ``HierarchyConfig(dram_cache=None)`` stops
the functional stack after the L2, producing the post-L2 stream the
timed :class:`~repro.cache.frontend.DramCacheFrontEnd` consumes — the
DRAM tier is then *simulated* (engine-scheduled hits, MSHRs, write-back
queues) instead of folded in functionally.  See docs/FRONTEND.md.

Simplifications (documented in DESIGN.md §5): this stack is functional
(its hit latencies live in the core's base CPI, or in the timed front
end when one is configured); L1/L2 are unified per core here (the
paper's split I/D L1s matter for instruction fetch, which trace replay
does not model); coherence is not simulated (single-writer traces).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.cache.cacheline import line_base
from repro.cache.dram_cache import DramCache, DramCacheConfig
from repro.cache.set_assoc import ArraySetCache, Eviction
from repro.trace.record import AccessKind, TraceRecord


@dataclass(frozen=True)
class HierarchyConfig:
    """Cache geometry (Table I defaults)."""

    l1_size: int = 32 * 1024
    l1_associativity: int = 2
    l2_size: int = 8 * 1024 * 1024
    l2_associativity: int = 8
    #: ``None`` drops the functional DRAM level entirely: references
    #: that miss the L2 go straight to "memory", which is how the stack
    #: is composed in front of the timed DRAM tier.
    dram_cache: Optional[DramCacheConfig] = field(
        default_factory=DramCacheConfig
    )
    track_words: bool = False
    #: Replacement policy name for every level (repro.cache.replacement).
    replacement: str = "lru"


@dataclass
class HierarchyOutcome:
    """What one CPU reference produced at the memory boundary."""

    hit_level: str                      #: "l1", "l2", "dram", or "memory"
    fills: List[int] = field(default_factory=list)       #: PCM line reads
    write_backs: List[Eviction] = field(default_factory=list)  #: to PCM


class CacheHierarchy:
    """Per-core L1 over a shared L2 (+ optional functional DRAM cache)."""

    def __init__(self, n_cores: int = 8, config: Optional[HierarchyConfig] = None):
        self.config = config or HierarchyConfig()
        self.n_cores = n_cores
        self.l1s = [
            ArraySetCache(
                self.config.l1_size,
                self.config.l1_associativity,
                name=f"l1-{core}",
                track_words=self.config.track_words,
                policy=self.config.replacement,
            )
            for core in range(n_cores)
        ]
        self.l2 = ArraySetCache(
            self.config.l2_size,
            self.config.l2_associativity,
            name="l2",
            track_words=self.config.track_words,
            policy=self.config.replacement,
        )
        self.dram: Optional[DramCache] = None
        if self.config.dram_cache is not None:
            self.dram = DramCache(
                self.config.dram_cache,
                track_words=self.config.track_words,
                policy=self.config.replacement,
            )

    # ------------------------------------------------------------------
    def reference(
        self,
        core_id: int,
        address: int,
        is_write: bool,
        value: Optional[int] = None,
    ) -> HierarchyOutcome:
        """One load/store from ``core_id``; returns memory-boundary events."""
        if not 0 <= core_id < self.n_cores:
            raise ValueError(f"core id out of range: {core_id}")
        outcome = HierarchyOutcome(hit_level="l1")
        l1 = self.l1s[core_id]

        l1_hit, l1_evicted = l1.access(address, is_write, value)
        self._spill(l1_evicted, outcome, into_l2=True)
        if l1_hit:
            return outcome

        outcome.hit_level = "l2"
        l2_hit, l2_evicted = self.l2.access(line_base(address), False)
        self._spill(l2_evicted, outcome, into_l2=False)
        if l2_hit:
            return outcome

        if self.dram is not None:
            outcome.hit_level = "dram"
            dram_hit, write_backs = self.dram.access(line_base(address), False)
            outcome.write_backs.extend(write_backs)
            if dram_hit:
                return outcome

        outcome.hit_level = "memory"
        outcome.fills.append(line_base(address))
        return outcome

    def _spill(
        self, eviction: Optional[Eviction], outcome: HierarchyOutcome, into_l2: bool
    ) -> None:
        """Push a dirty eviction one level down."""
        if eviction is None or not eviction.dirty:
            return
        if into_l2:
            # Write-back from an L1 lands in the L2; the L2 line inherits
            # the dirty words.
            _hit, l2_evicted = self.l2.access(eviction.address, True)
            self.l2.merge_dirty(eviction.address, eviction.dirty_mask)
            self._spill(l2_evicted, outcome, into_l2=False)
        elif self.dram is not None:
            # Write-back from the L2 lands in the DRAM cache.
            _hit, write_backs = self.dram.access(eviction.address, True)
            self.dram.cache.merge_dirty(eviction.address, eviction.dirty_mask)
            outcome.write_backs.extend(write_backs)
        else:
            # No functional DRAM level: the L2 eviction *is* the
            # memory-boundary write-back (the timed tier sits below).
            outcome.write_backs.append(eviction)

    # ------------------------------------------------------------------
    def replay(self, core_id: int, records) -> Tuple[List[TraceRecord], dict]:
        """Convert LOAD/STORE records into main-memory-level records.

        Returns the post-LLC trace plus a summary of hit levels — the
        full-hierarchy example uses this to show how Figure 2's dirty
        masks arise from real cache behaviour.
        """
        memory_trace: List[TraceRecord] = []
        levels = {"l1": 0, "l2": 0, "dram": 0, "memory": 0}
        pending_gap = 0
        for record in records:
            if record.kind not in (AccessKind.LOAD, AccessKind.STORE):
                raise ValueError("replay expects LOAD/STORE records")
            pending_gap += record.gap_instructions
            outcome = self.reference(
                core_id, record.address, record.kind is AccessKind.STORE
            )
            levels[outcome.hit_level] += 1
            for fill in outcome.fills:
                memory_trace.append(
                    TraceRecord(pending_gap, AccessKind.READ, fill)
                )
                pending_gap = 0
            for wb in outcome.write_backs:
                memory_trace.append(
                    TraceRecord(
                        pending_gap,
                        AccessKind.WRITE_BACK,
                        wb.address,
                        dirty_mask=wb.dirty_mask,
                    )
                )
                pending_gap = 0
        return memory_trace, levels
