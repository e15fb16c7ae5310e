"""Set-associative write-back cache over flat columns.

Used for the L1s, the shared L2, and the 256 MB DRAM cache of Table I.
The model is functional (hit/miss/eviction): what the memory study needs
from the cache stack is the *filtering* of accesses and the per-word
dirty masks of evicted lines.  Timing belongs to the tier that wraps it —
:class:`repro.cache.frontend.DramCacheFrontEnd` schedules hit/fill/
write-back events on the shared engine (docs/FRONTEND.md).

A ``CacheLine`` object and a per-set list for every resident line would
cost ~800 MB of Python objects at Table I's 256 MB, so the state lives
in flat columns indexed by ``set_index * ways + way``:

* ``tags`` / ``last_use`` — ``array('q')`` (64-bit signed),
* ``dirty`` — ``array('B')`` (one bit per 8-byte word, 8 words),
* ``policy`` — ``array('i')`` (CLOCK reference bit / MAC level),
* ``count`` — lines resident per set; ``hands`` — per-set CLOCK hands.

Each set's slab prefix ``[base, base + count)`` is kept compacted in
residency (insertion) order — evicting way ``v`` shifts the tail left,
installing appends at ``count`` — which fixes the policies' tie-breaks
and the CLOCK hand positions.  Victim selection is the named
:mod:`repro.cache.replacement` policy (LRU by default).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cache.cacheline import CacheLine, word_index
from repro.cache.replacement import (
    HIT_CLOCK,
    HIT_MAC,
    MAC_LEVELS,
    make_replacement_policy,
)
from repro.memory.request import LINE_BYTES, WORDS_PER_LINE

_MAC_TOP = MAC_LEVELS - 1
_ZERO_WORDS = (0,) * WORDS_PER_LINE


@dataclass(frozen=True)
class Eviction:
    """A dirty line pushed out of the cache (a write-back).

    Clean victims never materialise an ``Eviction``: they leave silently
    and are tallied in :attr:`CacheStats.clean_evictions`, so every
    object call sites receive represents real write-back traffic.
    """

    address: int        #: line-aligned byte address
    dirty_mask: int     #: per-word dirty bits (never 0)
    words: Optional[Tuple[int, ...]] = None

    @property
    def dirty(self) -> bool:
        return self.dirty_mask != 0


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    clean_evictions: int = 0    #: victims dropped without a write-back

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses


class ArraySetCache:
    """Set-associative cache over 64-byte lines, stored as flat columns.

    Two results are not live line objects:

    * :meth:`probe` returns the hit line's flat slab index (an ``int``,
      possibly ``0``) — callers test ``is not None``; a per-hit line
      object would give back the allocation the columns exist to remove.
    * :meth:`line_state` returns a *snapshot* ``CacheLine``; mutating it
      does not write through.  State-changing callers use
      :meth:`merge_dirty`.
    """

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
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.n_sets = size_bytes // (LINE_BYTES * associativity)
        if self.n_sets < 1:
            raise ValueError(f"{name}: no sets")
        self.track_words = track_words
        self.policy = make_replacement_policy(policy)
        self._victim = self.policy.victim
        self._hit_code = self.policy.hit_code
        self._fill_state = self.policy.fill_state

        n_lines = self.n_sets * associativity
        self._tags = array("q", bytes(8 * n_lines))
        self._last_use = array("q", bytes(8 * n_lines))
        self._dirty = array("B", bytes(n_lines))
        self._policy = array("i", bytes(4 * n_lines))
        self._count = array("i", bytes(4 * self.n_sets))
        self._hands = array("i", bytes(4 * self.n_sets))
        #: Functional payloads, one slot per slab index; allocated only
        #: when the words are actually tracked.
        self._words: Optional[List[Optional[Tuple[int, ...]]]] = (
            [None] * n_lines if track_words else None
        )
        self._clock = 0
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def _find(self, set_index: int, tag: int) -> int:
        """Flat slab index of (set, tag), or -1 when not resident."""
        base = set_index * self.associativity
        try:
            return self._tags.index(tag, base, base + self._count[set_index])
        except ValueError:
            return -1

    def contains(self, address: int) -> bool:
        line = address // LINE_BYTES
        n_sets = self.n_sets
        return self._find(line % n_sets, line // n_sets) >= 0

    def line_state(self, address: int) -> Optional[CacheLine]:
        """A *snapshot* of the resident line (for tests), or ``None``.

        The snapshot is a copy — use :meth:`merge_dirty` to change a
        resident line's dirty mask.
        """
        line = address // LINE_BYTES
        n_sets = self.n_sets
        idx = self._find(line % n_sets, line // n_sets)
        if idx < 0:
            return None
        return CacheLine(
            tag=self._tags[idx],
            valid=True,
            dirty_mask=self._dirty[idx],
            words=self._words[idx] if self._words is not None else None,
            last_use=self._last_use[idx],
            policy_state=self._policy[idx],
        )

    def merge_dirty(self, address: int, dirty_mask: int) -> None:
        """OR ``dirty_mask`` into the resident line (no-op on a miss).

        How a line inherits dirty words (spills, MSHR pending masks).
        """
        if not dirty_mask:
            return
        line = address // LINE_BYTES
        n_sets = self.n_sets
        idx = self._find(line % n_sets, line // n_sets)
        if idx >= 0:
            self._dirty[idx] |= dirty_mask

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------
    def access(
        self,
        address: int,
        is_write: bool,
        value: Optional[int] = None,
    ) -> Tuple[bool, Optional[Eviction]]:
        """One load/store.  Returns (hit, dirty-eviction-on-fill).

        A miss allocates the line (write-allocate) and may evict the
        policy's victim; the caller turns a dirty eviction into a
        write-back and a miss into a fill from the next level.  Clean
        victims return ``None`` (counted in ``stats.clean_evictions``).
        """
        self._clock += 1
        stamp = self._clock
        line = address // LINE_BYTES
        n_sets = self.n_sets
        set_index = line % n_sets
        tag = line // n_sets
        idx = self._find(set_index, tag)
        evicted: Optional[Eviction] = None
        hit = idx >= 0
        if not hit:
            self.stats.misses += 1
            evicted = self._fill(set_index, tag, stamp)
            idx = set_index * self.associativity + self._count[set_index] - 1
        else:
            self.stats.hits += 1
            hit_code = self._hit_code
            if hit_code == HIT_CLOCK:
                self._policy[idx] = 1
            elif hit_code == HIT_MAC and self._policy[idx] < _MAC_TOP:
                self._policy[idx] += 1
        self._last_use[idx] = stamp
        if is_write:
            word = word_index(address)
            if self._words is not None and value is not None:
                self._write_word(idx, word, value)
            else:
                self._dirty[idx] |= 1 << word
        return hit, evicted

    def probe(self, address: int, dirty_mask: int = 0) -> Optional[int]:
        """Line-granularity lookup for the timed tier.

        On a hit: touch recency, apply the policy's hit update, merge
        ``dirty_mask`` into the line, count a hit, and return the line's
        flat slab index.  On a miss: count a miss and return ``None``
        *without allocating* — the timed tier installs lines only when
        their PCM fill completes (:meth:`install`), so a line is never
        visible before its data could exist.
        """
        self._clock += 1
        line = address // LINE_BYTES
        n_sets = self.n_sets
        idx = self._find(line % n_sets, line // n_sets)
        if idx < 0:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._last_use[idx] = self._clock
        if dirty_mask:
            self._dirty[idx] |= dirty_mask
        hit_code = self._hit_code
        if hit_code == HIT_CLOCK:
            self._policy[idx] = 1
        elif hit_code == HIT_MAC and self._policy[idx] < _MAC_TOP:
            self._policy[idx] += 1
        return idx

    def install(self, address: int) -> Optional[Eviction]:
        """Fill a line without an access (fill completion, back-fill)."""
        self._clock += 1
        line = address // LINE_BYTES
        n_sets = self.n_sets
        set_index = line % n_sets
        tag = line // n_sets
        if self._find(set_index, tag) >= 0:
            return None
        return self._fill(set_index, tag, self._clock)

    def invalidate(self, address: int) -> Optional[Eviction]:
        """Drop a line; returns its eviction record when it was dirty."""
        line = address // LINE_BYTES
        n_sets = self.n_sets
        set_index = line % n_sets
        tag = line // n_sets
        idx = self._find(set_index, tag)
        if idx < 0:
            return None
        dirty_mask = self._dirty[idx]
        words = self._words[idx] if self._words is not None else None
        self._remove(set_index, idx)
        if dirty_mask:
            self.stats.evictions += 1
            self.stats.dirty_evictions += 1
            return Eviction(
                (tag * n_sets + set_index) * LINE_BYTES, dirty_mask, words
            )
        return None

    # ------------------------------------------------------------------
    # Fill / evict internals
    # ------------------------------------------------------------------
    def _fill(self, set_index: int, tag: int, stamp: int) -> Optional[Eviction]:
        """Allocate (tag) at the slab's tail; returns any dirty eviction."""
        ways = self.associativity
        base = set_index * ways
        count = self._count[set_index]
        evicted: Optional[Eviction] = None
        if count >= ways:
            way = self._victim(
                self._last_use, self._policy, self._hands,
                set_index, base, count,
            )
            idx = base + way
            self.stats.evictions += 1
            dirty_mask = self._dirty[idx]
            if dirty_mask:
                self.stats.dirty_evictions += 1
                victim_words = (
                    self._words[idx] if self._words is not None else None
                )
                evicted = Eviction(
                    (self._tags[idx] * self.n_sets + set_index) * LINE_BYTES,
                    dirty_mask,
                    victim_words,
                )
            else:
                self.stats.clean_evictions += 1
            self._remove(set_index, idx)
            count = ways - 1
        idx = base + count
        self._tags[idx] = tag
        self._last_use[idx] = stamp
        self._dirty[idx] = 0
        self._policy[idx] = self._fill_state
        if self._words is not None:
            self._words[idx] = _ZERO_WORDS
        self._count[set_index] = count + 1
        return evicted

    def _remove(self, set_index: int, idx: int) -> None:
        """Drop slab entry ``idx``, compacting the set's residency order."""
        base = set_index * self.associativity
        last = base + self._count[set_index]  # one past the tail
        if idx + 1 < last:
            self._tags[idx:last - 1] = self._tags[idx + 1:last]
            self._last_use[idx:last - 1] = self._last_use[idx + 1:last]
            self._dirty[idx:last - 1] = self._dirty[idx + 1:last]
            self._policy[idx:last - 1] = self._policy[idx + 1:last]
            if self._words is not None:
                self._words[idx:last - 1] = self._words[idx + 1:last]
        elif self._words is not None:
            self._words[idx] = None
        self._count[set_index] -= 1

    def _write_word(self, idx: int, word: int, value: int) -> None:
        """Functional store, matching ``CacheLine.write_word`` exactly.

        The store makes the word architecturally dirty even when the
        value is unchanged — detecting such silent stores is main
        memory's job (paper §III-B).
        """
        words = self._words[idx] if self._words is not None else None
        if words is None:
            raise ValueError("line carries no functional payload")
        if not 0 <= value < (1 << 64):
            raise ValueError(f"word value out of range: {value:#x}")
        if words[word] != value:
            updated = list(words)
            updated[word] = value
            self._words[idx] = tuple(updated)
        if not 0 <= word < WORDS_PER_LINE:
            raise ValueError(f"word index out of range: {word}")
        self._dirty[idx] |= 1 << word

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def resident_lines(self) -> int:
        return sum(self._count)
