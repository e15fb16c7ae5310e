"""Columnar (array-backed) set-associative cache for paper-scale tiers.

The object-backed :class:`~repro.cache.set_assoc.SetAssociativeCache`
pays a ``CacheLine`` instance, a per-set Python list and attribute-laden
scans for every resident line — fine for the 32 KB L1s, ~800 MB of
Python objects for Table I's 256 MB DRAM cache.  This backend stores the
same state as flat columns indexed by ``set_index * ways + way``:

* ``tags`` / ``last_use`` — ``array('q')`` (64-bit signed),
* ``dirty`` — ``array('B')`` (one bit per 8-byte word, 8 words),
* ``policy`` — ``array('i')`` (CLOCK reference bit / MAC level),
* ``count`` — lines resident per set; ``hands`` — per-set CLOCK hands.

Each set's slab prefix ``[base, base + count)`` is kept compacted in
residency (insertion) order — evicting way ``v`` shifts the tail left,
installing appends at ``count`` — mirroring the object backend's per-set
list exactly, so policy tie-breaks, CLOCK hand positions and eviction
streams are bit-identical.  The scalar path needs only the ``array``
module (the ``REPRO_NO_NUMPY`` fallback); when numpy is present the
first batch call exposes the columns as zero-copy ``np.frombuffer`` views
and the batch entry points (:meth:`ArraySetCache.classify_batch`,
:meth:`ArraySetCache.access_batch`) classify a whole epoch of accesses
in a handful of vector operations, replaying only the sets that contain
a miss through the scalar path so streams stay identical.

Construction goes through :func:`repro.cache.set_assoc.make_set_cache`,
which falls back to the object backend for custom replacement policies
(:func:`~repro.cache.replacement.array_policy_ops` mirrors only the
three builtins).
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Sequence, Tuple, Union

from repro.cache.cacheline import CacheLine, word_index
from repro.cache.replacement import (
    HIT_CLOCK,
    HIT_MAC,
    ReplacementPolicy,
    array_policy_ops,
    make_replacement_policy,
)
from repro.cache.set_assoc import CacheStats, Eviction
from repro.ecc import batch
from repro.memory.request import LINE_BYTES, WORDS_PER_LINE

#: Below this many accesses the vector path's array setup costs more
#: than it saves; the scalar loop is bit-identical either way.
BATCH_MIN_ACCESSES = 16


class ArraySetCache:
    """Set-associative cache over 64-byte lines, stored as flat columns.

    Drop-in for :class:`~repro.cache.set_assoc.SetAssociativeCache` at
    every call site the tier and hierarchy use (``access`` / ``probe`` /
    ``install`` / ``invalidate`` / ``contains`` / ``line_state`` /
    ``merge_dirty`` / ``dirty_lines`` / ``resident_lines`` / ``stats``),
    with two deliberate differences:

    * :meth:`probe` returns the hit line's flat slab index (an ``int``,
      possibly ``0``) instead of a ``CacheLine`` — callers test
      ``is not None``, and a per-hit snapshot object would give back the
      allocation the backend exists to remove.
    * :meth:`line_state` returns a *snapshot* ``CacheLine``; mutating it
      does not write through.  State-changing callers use
      :meth:`merge_dirty` (both backends provide it).
    """

    def __init__(
        self,
        size_bytes: int,
        associativity: int,
        name: str = "cache",
        track_words: bool = False,
        policy: Union[str, ReplacementPolicy, None] = None,
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
        ops = array_policy_ops(self.policy)
        if ops is None:
            raise ValueError(
                f"{name}: no array mirror for policy "
                f"{type(self.policy).__name__}; use the object backend"
            )
        self._ops = ops
        self._hit_code = ops.hit_code
        self._mac_top = ops.mac_top
        self._fill_state = ops.fill_state

        n_lines = self.n_sets * associativity
        # Preallocated, never resized: numpy views stay valid for the
        # cache's lifetime (resizing an exporting buffer would raise).
        # Tag slots outside a set's resident prefix hold the -1 sentinel
        # (no real tag is negative), so the vector hit test needs no
        # per-way residency mask.
        self._tags = array("q", b"\xff" * (8 * n_lines))
        self._last_use = array("q", bytes(8 * n_lines))
        self._dirty = array("B", bytes(n_lines))
        self._policy = array("i", bytes(4 * n_lines))
        self._count = array("i", bytes(4 * self.n_sets))
        self._hands = array("i", bytes(4 * self.n_sets))
        #: First-fill order of sets (mirrors the object backend's dict
        #: key order) so :meth:`dirty_lines` drains identically.
        self._set_order: List[int] = []
        self._set_seen = bytearray(self.n_sets)
        #: Functional payloads, one slot per slab index; allocated only
        #: when the words are actually tracked.
        self._words: Optional[List[Optional[Tuple[int, ...]]]] = (
            [None] * n_lines if track_words else None
        )
        self._clock = 0
        self.stats = CacheStats()
        #: Whether :meth:`_vector_ready` has built the numpy views.  The
        #: first vector batch call builds them, so a cache that never
        #: batches never loads numpy.
        self._np_ready = False

    def _vector_ready(self) -> bool:
        """Build the zero-copy numpy views once; ``False`` without numpy."""
        if self._np_ready or not batch.HAS_NUMPY:
            return self._np_ready
        np = batch.np
        self._np_tags = np.frombuffer(self._tags, dtype=np.int64)
        self._np_last_use = np.frombuffer(self._last_use, dtype=np.int64)
        self._np_dirty = np.frombuffer(self._dirty, dtype=np.uint8)
        self._np_policy = np.frombuffer(self._policy, dtype=np.int32)
        #: (n_sets, ways) view of the tag slab: one row-gather pulls a
        #: whole set's candidate tags per access.
        self._np_tags_2d = self._np_tags.reshape(
            self.n_sets, self.associativity
        )
        #: When ways matches an unsigned dtype width, a per-row
        #: reinterpret of the bool match matrix replaces the (much
        #: slower) ``any(axis=1)`` reduction.
        self._row_dtype = {
            1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64
        }.get(self.associativity)
        self._bit_lut = np.uint8(1) << np.arange(
            WORDS_PER_LINE, dtype=np.uint8
        )
        self._np_ready = True
        return True

    # ------------------------------------------------------------------
    # Scalar lookups (array-module only; the REPRO_NO_NUMPY path)
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
        """A *snapshot* of the resident line, or ``None``.

        Unlike the object backend this is a copy — use
        :meth:`merge_dirty` to change a resident line's dirty mask.
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
        """OR ``dirty_mask`` into the resident line (no-op on a miss)."""
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
        """One load/store; semantics identical to the object backend."""
        self._clock += 1
        return self._access_stamped(address, is_write, self._clock, value)

    def _access_stamped(
        self,
        address: int,
        is_write: bool,
        stamp: int,
        value: Optional[int] = None,
    ) -> Tuple[bool, Optional[Eviction]]:
        """:meth:`access` with the recency stamp supplied by the caller.

        The batched path pre-assigns each access its stamp (the clock
        advances once per access regardless of processing order), so
        replayed miss-sets interleave exactly as the sequential loop
        would have stamped them.
        """
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
            elif hit_code == HIT_MAC and self._policy[idx] < self._mac_top:
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

        Same contract as the object backend's ``probe`` (hit bookkeeping
        on a hit, miss counted without allocating on a miss) except the
        hit return value is the line's flat slab index — callers only
        test ``is not None``.
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
        elif hit_code == HIT_MAC and self._policy[idx] < self._mac_top:
            self._policy[idx] += 1
        return idx

    def install(
        self, address: int, words: Optional[Tuple[int, ...]] = None
    ) -> Optional[Eviction]:
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
            way = self._ops.victim(
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
            self._words[idx] = (
                tuple([0] * WORDS_PER_LINE) if self.track_words else None
            )
        self._count[set_index] = count + 1
        if not self._set_seen[set_index]:
            self._set_seen[set_index] = 1
            self._set_order.append(set_index)
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
        self._tags[last - 1] = -1  # restore the vacated slot's sentinel
        self._count[set_index] -= 1

    def _write_word(self, idx: int, word: int, value: int) -> None:
        """Functional store, matching ``CacheLine.write_word`` exactly."""
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
    # Introspection / drain
    # ------------------------------------------------------------------
    def resident_lines(self) -> int:
        return sum(self._count)

    def dirty_lines(self) -> List[int]:
        """Addresses of dirty resident lines, in the object backend's
        drain order (first-fill order of sets, residency order within)."""
        addresses: List[int] = []
        ways = self.associativity
        n_sets = self.n_sets
        for set_index in self._set_order:
            base = set_index * ways
            for idx in range(base, base + self._count[set_index]):
                if self._dirty[idx]:
                    addresses.append(
                        (self._tags[idx] * n_sets + set_index) * LINE_BYTES
                    )
        return addresses

    # ------------------------------------------------------------------
    # Batched entry points (vectorized when numpy is present)
    # ------------------------------------------------------------------
    @staticmethod
    def _bool_vector(flags: Sequence[bool], n: int):
        """Bool sequence -> bool vector, via the raw-bytes fast path."""
        np = batch.np
        try:
            return np.frombuffer(bytes(flags), dtype=np.bool_)
        except (TypeError, ValueError):
            return np.fromiter(
                (bool(flag) for flag in flags), dtype=np.bool_, count=n
            )

    def _classify_vector(self, addrs):
        """Vector hit test against current state.

        Returns ``(hit, match, set_idx, base)`` where ``match`` is the
        (n, ways) per-way tag-match matrix.  Non-resident slots hold the
        -1 tag sentinel, so the raw equality test is the residency test
        — no per-way count mask, which keeps this at a handful of
        fixed-cost numpy ops per epoch.
        """
        lines = addrs // LINE_BYTES
        tags, set_idx = batch.np.divmod(lines, self.n_sets)
        base = set_idx * self.associativity
        cand = self._np_tags_2d.take(set_idx, axis=0, mode="clip")
        match = cand == tags[:, None]
        if self._row_dtype is not None:
            hit = match.view(self._row_dtype).ravel() != 0
        else:
            hit = match.any(axis=1)
        return hit, match, set_idx, base

    def classify_batch(self, addresses: Sequence[int]) -> List[bool]:
        """Advisory hit/miss classification of a batch (read-only).

        One vectorized pass when numpy is present; no stats, clock or
        state are touched, so the classification is safe to use for
        steering (prefetch) while the real probes still run per event.
        """
        n = len(addresses)
        if n < BATCH_MIN_ACCESSES or not self._vector_ready():
            return [self.contains(a) for a in addresses]
        np = batch.np
        addrs = np.fromiter(addresses, dtype=np.int64, count=n)
        hit, _, _, _ = self._classify_vector(addrs)
        return hit.tolist()

    def access_batch(
        self,
        addresses: Sequence[int],
        writes: Sequence[bool],
        values: Optional[Sequence[Optional[int]]] = None,
    ) -> Tuple[List[bool], List[Optional[Eviction]]]:
        """Run a batch of accesses, bit-identical to the scalar loop.

        Hits never change residency, so any set whose batch slice is
        all-hits can be applied in one vectorized pass: ``last_use``
        takes each line's final stamp (stamps are pre-assigned — the
        clock advances once per access no matter the order), CLOCK
        reference bits set idempotently, MAC levels accumulate then
        saturate, dirty masks OR.  Every set containing at least one
        candidate miss is replayed through the scalar path in original
        stream order with the same pre-assigned stamps; sets are
        independent, so the interleaving cannot be observed.  Returns
        per-access ``(hits, evictions)`` aligned with the input.
        """
        n = len(addresses)
        scalar = (
            n < BATCH_MIN_ACCESSES
            or (self._words is not None and values is not None)
            or not self._vector_ready()
        )
        if scalar:
            hits: List[bool] = []
            evictions: List[Optional[Eviction]] = []
            for i in range(n):
                value = values[i] if values is not None else None
                hit, evicted = self.access(addresses[i], writes[i], value)
                hits.append(hit)
                evictions.append(evicted)
            return hits, evictions

        np = batch.np
        clock0 = self._clock
        addrs = np.asarray(addresses, dtype=np.int64)
        hit, match, set_idx, base = self._classify_vector(addrs)
        stamps = np.arange(clock0 + 1, clock0 + n + 1, dtype=np.int64)
        out_evictions: List[Optional[Eviction]] = [None] * n
        hit_code = self._hit_code

        if hit.all():
            # All-hit epoch — the warm-tier common case, and the one the
            # per-access perf floor is measured on: one vectorized apply,
            # no replay, no per-access Python work.
            gidx = base + match.argmax(axis=1)
            np.maximum.at(self._np_last_use, gidx, stamps)
            if hit_code == HIT_CLOCK:
                self._np_policy[gidx] = 1
            elif hit_code == HIT_MAC:
                np.add.at(self._np_policy, gidx, 1)
                self._np_policy[gidx] = np.minimum(
                    self._np_policy[gidx], self._mac_top
                )
            is_write = self._bool_vector(writes, n)
            if is_write.any():
                waddrs = addrs[is_write]
                bits = self._bit_lut[
                    (waddrs % LINE_BYTES) // (LINE_BYTES // WORDS_PER_LINE)
                ]
                np.bitwise_or.at(self._np_dirty, gidx[is_write], bits)
            self.stats.hits += n
            self._clock = clock0 + n
            return [True] * n, out_evictions

        is_write = self._bool_vector(writes, n)
        miss_sets = np.unique(set_idx[~hit])
        replay = np.isin(set_idx, miss_sets)
        pure = ~replay
        out_hits: List[bool] = hit.tolist()

        if pure.any():
            gidx = (base + match.argmax(axis=1))[pure]
            np.maximum.at(self._np_last_use, gidx, stamps[pure])
            if hit_code == HIT_CLOCK:
                self._np_policy[gidx] = 1
            elif hit_code == HIT_MAC:
                # Accumulate per-duplicate then clamp: min(x0 + k, top)
                # equals k stepwise saturating increments.
                np.add.at(self._np_policy, gidx, 1)
                self._np_policy[gidx] = np.minimum(
                    self._np_policy[gidx], self._mac_top
                )
            pure_writes = pure & is_write
            if pure_writes.any():
                bits = (
                    np.uint8(1) << ((addrs % LINE_BYTES) // 8).astype(np.uint8)
                )
                widx = (base + match.argmax(axis=1))[pure_writes]
                np.bitwise_or.at(self._np_dirty, widx, bits[pure_writes])
            self.stats.hits += int(pure.sum())

        for i in np.nonzero(replay)[0]:
            i = int(i)
            replay_hit, evicted = self._access_stamped(
                addresses[i], writes[i], int(stamps[i])
            )
            out_hits[i] = replay_hit
            out_evictions[i] = evicted
        self._clock = clock0 + n
        return out_hits, out_evictions
