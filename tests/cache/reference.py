"""Object-per-line reference model of the set-associative cache.

The straightforward representation: one :class:`CacheLine` per resident
line in a per-set Python list, with victim selection behind a small
:class:`ReplacementPolicy` protocol.  It is the specification the
columnar :class:`~repro.cache.set_assoc.ArraySetCache` is held to —
``tests/cache/test_array_equivalence.py`` replays the same streams
through both and asserts every verdict, victim and write-back record is
identical.  Nothing under ``src/`` uses it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cache.cacheline import CacheLine, line_base, word_index
from repro.cache.replacement import MAC_LEVELS
from repro.cache.set_assoc import CacheStats, Eviction
from repro.memory.request import LINE_BYTES, WORDS_PER_LINE


class ReplacementPolicy:
    """Victim selection + bookkeeping hooks for one cache instance.

    One policy object serves one cache (it may keep per-set state), and
    the cache calls exactly these hooks:

    * :meth:`on_fill` — a line was allocated into ``set_index``.
    * :meth:`on_hit` — a resident line was referenced.
    * :meth:`victim` — pick which of ``entries`` to evict (the cache
      removes it; ``entries`` is the set's residency-ordered list).
    * :meth:`on_evict` — a line left the set (eviction or invalidation).
    """

    name = "base"

    def on_fill(self, set_index: int, entry: CacheLine) -> None:
        pass

    def on_hit(self, set_index: int, entry: CacheLine) -> None:
        pass

    def victim(self, set_index: int, entries: List[CacheLine]) -> CacheLine:
        raise NotImplementedError

    def on_evict(self, set_index: int, entry: CacheLine) -> None:
        pass


class LruReplacement(ReplacementPolicy):
    """Least-recently-used: evict the minimum ``last_use`` stamp."""

    name = "lru"

    def victim(self, set_index: int, entries: List[CacheLine]) -> CacheLine:
        return min(entries, key=lambda e: e.last_use)


class ClockReplacement(ReplacementPolicy):
    """Second-chance (CLOCK): a per-set hand sweeps reference bits.

    ``policy_state`` is the reference bit (set on fill and on hit).  The
    hand walks the set's residency order, clearing set bits; the first
    line found with a clear bit is the victim.
    """

    name = "clock"

    def __init__(self) -> None:
        self._hands: Dict[int, int] = {}

    def on_fill(self, set_index: int, entry: CacheLine) -> None:
        entry.policy_state = 1

    def on_hit(self, set_index: int, entry: CacheLine) -> None:
        entry.policy_state = 1

    def victim(self, set_index: int, entries: List[CacheLine]) -> CacheLine:
        n = len(entries)
        hand = self._hands.get(set_index, 0) % n
        for _ in range(2 * n):
            entry = entries[hand]
            if not entry.policy_state:
                self._hands[set_index] = hand
                return entry
            entry.policy_state = 0
            hand = (hand + 1) % n
        return entries[hand]


class MacReplacement(ReplacementPolicy):
    """Multilevel access counters (MAC-style, arXiv 1606.03248).

    ``policy_state`` is the line's access level (0..MAC_LEVELS-1): lines
    fill at level 0, each hit promotes one level, and the victim is the
    line with the lowest (level, last_use) pair.  When the whole set has
    been promoted off level 0, every level is shifted down by the set's
    minimum first.
    """

    name = "mac"

    def on_fill(self, set_index: int, entry: CacheLine) -> None:
        entry.policy_state = 0

    def on_hit(self, set_index: int, entry: CacheLine) -> None:
        if entry.policy_state < MAC_LEVELS - 1:
            entry.policy_state += 1

    def victim(self, set_index: int, entries: List[CacheLine]) -> CacheLine:
        floor = min(e.policy_state for e in entries)
        if floor > 0:
            for entry in entries:
                entry.policy_state -= floor
        return min(entries, key=lambda e: (e.policy_state, e.last_use))


REFERENCE_POLICIES = {
    policy.name: policy
    for policy in (LruReplacement, ClockReplacement, MacReplacement)
}


class SetAssociativeCache:
    """Set-associative cache over 64-byte lines, one object per line."""

    def __init__(
        self,
        size_bytes: int,
        associativity: int,
        name: str = "cache",
        track_words: bool = False,
        policy: Optional[str] = None,
    ):
        if size_bytes % (LINE_BYTES * associativity):
            raise ValueError(
                f"{name}: size must be a multiple of line x associativity"
            )
        self.name = name
        self.associativity = associativity
        self.n_sets = size_bytes // (LINE_BYTES * associativity)
        self.track_words = track_words
        self.policy = REFERENCE_POLICIES[policy or "lru"]()
        self._sets: Dict[int, List[CacheLine]] = {}
        self._clock = 0
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def _locate(self, address: int) -> Tuple[int, int]:
        line = line_base(address) // LINE_BYTES
        return line % self.n_sets, line // self.n_sets

    def _find(self, set_index: int, tag: int) -> Optional[CacheLine]:
        for entry in self._sets.get(set_index, ()):
            if entry.valid and entry.tag == tag:
                return entry
        return None

    def contains(self, address: int) -> bool:
        set_index, tag = self._locate(address)
        return self._find(set_index, tag) is not None

    def line_state(self, address: int) -> Optional[CacheLine]:
        """The resident line itself (live, not a snapshot), or None."""
        set_index, tag = self._locate(address)
        return self._find(set_index, tag)

    def merge_dirty(self, address: int, dirty_mask: int) -> None:
        """OR ``dirty_mask`` into the resident line (no-op on a miss)."""
        if not dirty_mask:
            return
        entry = self.line_state(address)
        if entry is not None:
            entry.dirty_mask |= dirty_mask

    # ------------------------------------------------------------------
    def access(
        self,
        address: int,
        is_write: bool,
        value: Optional[int] = None,
    ) -> Tuple[bool, Optional[Eviction]]:
        """One load/store.  Returns (hit, dirty-eviction-on-fill)."""
        self._clock += 1
        set_index, tag = self._locate(address)
        entry = self._find(set_index, tag)
        evicted: Optional[Eviction] = None
        hit = entry is not None
        if entry is None:
            self.stats.misses += 1
            evicted = self._fill(set_index, tag)
            entry = self._find(set_index, tag)
            assert entry is not None
        else:
            self.stats.hits += 1
            self.policy.on_hit(set_index, entry)
        entry.touch(self._clock)
        if is_write:
            word = word_index(address)
            if self.track_words and value is not None:
                entry.write_word(word, value)
            else:
                entry.mark_dirty(word)
        return hit, evicted

    def probe(self, address: int, dirty_mask: int = 0) -> Optional[CacheLine]:
        """Hit: bookkeeping and the line.  Miss: counted, no allocation."""
        self._clock += 1
        set_index, tag = self._locate(address)
        entry = self._find(set_index, tag)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        entry.touch(self._clock)
        if dirty_mask:
            entry.dirty_mask |= dirty_mask
        self.policy.on_hit(set_index, entry)
        return entry

    def _fill(self, set_index: int, tag: int) -> Optional[Eviction]:
        """Allocate (tag) in the set; returns the dirty eviction if any."""
        entries = self._sets.setdefault(set_index, [])
        evicted: Optional[Eviction] = None
        if len(entries) >= self.associativity:
            victim = self.policy.victim(set_index, entries)
            entries.remove(victim)
            self.policy.on_evict(set_index, victim)
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.dirty_evictions += 1
                victim_line = (
                    victim.tag * self.n_sets + set_index
                ) * LINE_BYTES
                evicted = Eviction(
                    victim_line, victim.dirty_mask, victim.words
                )
            else:
                self.stats.clean_evictions += 1
        words = None
        if self.track_words:
            words = tuple([0] * WORDS_PER_LINE)
        entry = CacheLine(tag=tag, words=words, last_use=self._clock)
        entries.append(entry)
        self.policy.on_fill(set_index, entry)
        return evicted

    # ------------------------------------------------------------------
    def install(self, address: int) -> Optional[Eviction]:
        """Fill a line without an access (fill completion, back-fill)."""
        self._clock += 1
        set_index, tag = self._locate(address)
        if self._find(set_index, tag) is not None:
            return None
        return self._fill(set_index, tag)

    def invalidate(self, address: int) -> Optional[Eviction]:
        """Drop a line; returns its eviction record when it was dirty."""
        set_index, tag = self._locate(address)
        entry = self._find(set_index, tag)
        if entry is None:
            return None
        self._sets[set_index].remove(entry)
        self.policy.on_evict(set_index, entry)
        if entry.dirty:
            self.stats.evictions += 1
            self.stats.dirty_evictions += 1
            return Eviction(
                (tag * self.n_sets + set_index) * LINE_BYTES,
                entry.dirty_mask,
                entry.words,
            )
        return None

    def resident_lines(self) -> int:
        return sum(len(entries) for entries in self._sets.values())
