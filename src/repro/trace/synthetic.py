"""Synthetic main-memory trace generation.

The paper evaluates with gem5-captured SPEC/PARSEC streams; offline we
synthesise statistically equivalent post-LLC request streams from the
:class:`~repro.trace.workloads.WorkloadProfile` parameters:

* arrival density from RPKI/WPKI (geometric instruction gaps),
* bursty write-backs (LLC evictions arrive in waves),
* sequential streams for row-buffer/bank locality plus a random component,
* dirty-word masks drawn from the profile's Figure-2 distribution with
  §IV-C2's same-offset correlation between successive write-backs,
* read/write address affinity (dirty evictions of recently-read lines).

The generator is deterministic per (profile, seed, core); every draw goes
through one ``random.Random`` instance.  Each generator holds one stream
that draws a record only when a reader asks for it, so a run draws
exactly the records its cores issue, and the stream is the same however
it is read: :meth:`~SyntheticTraceGenerator.take` chunks, the
:meth:`~SyntheticTraceGenerator.records` iterator, or batches of
:data:`ON_EPOCH_BATCH` handed to an ``on_epoch`` hook.
"""

from __future__ import annotations

import random
import zlib
from bisect import bisect
from collections import deque
from itertools import accumulate, islice
from math import log
from typing import Callable, Deque, Iterator, List, Optional, Tuple

from repro.memory.request import LINE_BYTES, WORDS_PER_LINE
from repro.trace.record import AccessKind, TraceRecord, _trusted_record
from repro.trace.workloads import WorkloadKind, WorkloadProfile

#: Records handed to an ``on_epoch`` hook per call.  Only the hooks batch:
#: a functional run prefetches each batch's cold lines, and the timed tier
#: classifies each batch in one vectorized pass, so the batch is sized to
#: amortise those passes' fixed per-call cost.  It changes how far ahead
#: of its core the stream is drawn, never the records, and the hooks are
#: advisory (prefetching is semantically invisible).
ON_EPOCH_BATCH = 2048


class SyntheticTraceGenerator:
    """Endless per-core stream of :class:`TraceRecord`.

    ``core_id`` / ``n_cores`` partition the address space for
    multi-programmed workloads (independent programs own disjoint
    footprints); multi-threaded workloads share one footprint.
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        seed: int = 1,
        core_id: int = 0,
        n_cores: int = 8,
        capacity_lines: int = (8 * 1024 ** 3) // LINE_BYTES,
    ):
        self.profile = profile
        self.core_id = core_id
        self.n_cores = max(1, n_cores)
        self.capacity_lines = capacity_lines
        # zlib.crc32, not hash(): str hashes are randomised per process
        # (PYTHONHASHSEED), which silently made the "deterministic" stream
        # differ between runs — the seed stamped into saved results must
        # reproduce the run bit-for-bit in a fresh interpreter.
        name_salt = zlib.crc32(profile.name.encode()) & 0xFFFF
        self.rng = random.Random((seed * 1_000_003 + core_id) ^ name_salt)

        footprint = min(profile.footprint_lines, capacity_lines // self.n_cores)
        self._footprint = max(footprint, 1024)
        if profile.kind is WorkloadKind.MULTI_THREADED:
            # Threads of one program share the working set.
            self._base_line = 0
        else:
            self._base_line = (core_id * self._footprint) % max(
                1, capacity_lines - self._footprint
            )

        self._read_streams: List[int] = [
            self.rng.randrange(self._footprint)
            for _ in range(profile.stream_count)
        ]
        self._write_streams: List[int] = [
            self.rng.randrange(self._footprint)
            for _ in range(max(1, profile.stream_count // 2))
        ]
        self._recent_reads: Deque[int] = deque(maxlen=32)
        self._last_offsets: Optional[Tuple[int, ...]] = None

        # Precomputed pieces of the per-write dirty-count draw.  This is
        # exactly what random.choices(population, weights) builds on every
        # call: the cumulative weight table, its float total, and the
        # bisect hi bound — so `bisect(cum, random() * total, 0, hi)`
        # consumes the identical single random() draw and returns the
        # identical count, without rebuilding the table per write-back.
        weights = profile.dirty_word_distribution
        self._dirty_cum = list(accumulate(weights))
        self._dirty_total = self._dirty_cum[-1] + 0.0
        self._dirty_hi = len(weights) - 1

        #: The stream every reader shares (see :meth:`_generate`).
        self._stream: Iterator[TraceRecord] = self._generate()

    def _below(self, n: int) -> int:
        """``rng.randrange(n)`` for ``n >= 1``: the same draws, one frame
        instead of two (see :meth:`_generate`)."""
        getrandbits = self.rng.getrandbits
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    # ------------------------------------------------------------------
    # Dirty masks (Figure 2 + §IV-C2 offset correlation)
    # ------------------------------------------------------------------
    def _next_dirty_mask(self) -> int:
        count = bisect(
            self._dirty_cum,
            self.rng.random() * self._dirty_total,
            0,
            self._dirty_hi,
        )
        if count == 0:
            return 0
        if (
            self._last_offsets is not None
            and self.rng.random() < self.profile.offset_correlation
        ):
            # Reuse the previous write-back's offsets, trimmed or grown to
            # the drawn count — this is the clustering rotation defeats.
            offsets = list(self._last_offsets)[:count]
            remaining = [w for w in range(WORDS_PER_LINE) if w not in offsets]
            while len(offsets) < count:
                offsets.append(remaining.pop(self._below(len(remaining))))
        else:
            # Weighted sampling without replacement: low offsets dominate
            # (struct headers / counters), the clustering data rotation
            # de-correlates.
            # Inlined rng.choices(range(n), weights=weights)[0]: the same
            # cumulative-table bisect over the same single random() draw,
            # without rebuilding choices' argument scaffolding per pick.
            offsets = []
            candidates = list(range(WORDS_PER_LINE))
            weights = list(self.profile.offset_weights)
            random_ = self.rng.random
            for _ in range(count):
                cum = list(accumulate(weights))
                pick = bisect(
                    cum, random_() * (cum[-1] + 0.0), 0, len(candidates) - 1
                )
                offsets.append(candidates.pop(pick))
                weights.pop(pick)
        self._last_offsets = tuple(sorted(offsets))
        mask = 0
        for word in offsets:
            mask |= 1 << word
        return mask

    # ------------------------------------------------------------------
    # Arrival process and the stream
    # ------------------------------------------------------------------
    def _check_profile(self) -> None:
        profile = self.profile
        if profile.mpki <= 0:
            raise ValueError(
                f"workload {profile.name} performs no memory accesses"
            )
        if profile.stream_count < 1 and profile.sequential_fraction > 0:
            raise ValueError(
                f"workload {profile.name} has sequential reads but no "
                f"read streams (stream_count={profile.stream_count})"
            )

    def _generate(self) -> Iterator[TraceRecord]:
        """The stream: each record is drawn when it is asked for.

        A resumption draws exactly one record's rng draws (those of a
        write burst's start included) and yields it, so however the
        stream is read and wherever a reader stops, the rng stands just
        past the last record handed out.

        Two ``random.Random`` methods are inlined with their CPython
        3.10-3.12 bodies: a gap is ``expovariate(lambd)``, that is
        ``-log(1.0 - random()) / lambd``, and :meth:`_below` is
        ``randrange(n)``'s ``_randbelow_with_getrandbits`` loop.  Same
        draws, fewer Python frames; tests/trace/test_synthetic.py pins
        the stream's digests, so an interpreter that changes either body
        fails there.
        """
        profile = self.profile
        random_ = self.rng.random
        f_w = profile.write_fraction
        burst_mean = max(1.0, profile.write_burst_mean)
        # Burst-start probability p solving p*B / (p*B + 1 - p) = f_w, so
        # the long-run write fraction is exactly WPKI/(RPKI+WPKI).
        denominator = burst_mean - f_w * (burst_mean - 1.0)
        burst_start_probability = min(1.0, f_w / denominator) if f_w > 0 else 0.0
        # Intra-burst write gaps are a quarter of read gaps (evictions are
        # back-to-back); scale the read gap so the aggregate access rate
        # still matches MPKI.  Gaps are exponential draws truncated to
        # whole instructions; the rates are expovariate's ``lambd``.
        mean_gap = (1000.0 / profile.mpki) / max(1e-9, 1.0 - 0.75 * f_w)
        read_rate = 1.0 / mean_gap
        write_rate = 1.0 / (mean_gap * 0.25)
        burst_continue = 1.0 - 1.0 / burst_mean
        burst_cap = 4 * burst_mean

        sequential_fraction = profile.sequential_fraction
        write_read_affinity = profile.write_read_affinity
        footprint = self._footprint
        read_streams = self._read_streams
        write_streams = self._write_streams
        recent_reads = self._recent_reads
        note_read = recent_reads.append
        base_address = self._base_line * LINE_BYTES
        below = self._below
        next_dirty_mask = self._next_dirty_mask
        read, write_back = AccessKind.READ, AccessKind.WRITE_BACK
        record = _trusted_record
        # Every line below is drawn under the footprint, so it offsets the
        # core's base address as is.
        while True:
            if random_() < burst_start_probability:
                # Eviction wave: geometric burst length with the given mean.
                length = 1
                while random_() < burst_continue and length < burst_cap:
                    length += 1
                for _ in range(length):
                    if recent_reads and random_() < write_read_affinity:
                        # A dirty eviction of a recently read line.  Index
                        # the deque: insertion order is the only order this
                        # draw may depend on.  A set would iterate in hash
                        # order and break cross-PYTHONHASHSEED determinism.
                        line = recent_reads[below(len(recent_reads))]
                    elif random_() < sequential_fraction:
                        index = below(len(write_streams))
                        line = (write_streams[index] + 1) % footprint
                        write_streams[index] = line
                    else:
                        line = below(footprint)
                    yield record(
                        int(-log(1.0 - random_()) / write_rate),
                        write_back,
                        base_address + line * LINE_BYTES,
                        next_dirty_mask(),
                    )
                continue
            if random_() < sequential_fraction:
                index = below(len(read_streams))
                line = (read_streams[index] + 1) % footprint
                # Occasionally re-seat a stream so footprints get covered.
                if random_() < 0.002:
                    line = below(footprint)
                read_streams[index] = line
            else:
                line = below(footprint)
            note_read(line)
            yield record(
                int(-log(1.0 - random_()) / read_rate),
                read,
                base_address + line * LINE_BYTES,
            )

    def records(
        self,
        on_epoch: Optional[Callable[[List[TraceRecord]], None]] = None,
    ) -> Iterator[TraceRecord]:
        """The generator's endless stream of memory-level trace records.

        Without ``on_epoch`` this is the stream itself: each record is
        drawn as it is pulled.  With ``on_epoch``, records are drawn
        :data:`ON_EPOCH_BATCH` at a time and each batch is handed to the
        hook before it is yielded; functional runs use this to prefetch a
        batch's cold lines into storage in one vectorized pass.

        Either way every reader shares one stream: this continues where
        an earlier :meth:`take` stopped (mid-burst included), and a
        :meth:`take` after an abandoned iterator continues past the
        records it drew.
        """
        self._check_profile()
        if on_epoch is None:
            return self._stream
        return self._batched(on_epoch)

    def _batched(
        self, on_epoch: Callable[[List[TraceRecord]], None]
    ) -> Iterator[TraceRecord]:
        stream = self._stream
        while True:
            batch = list(islice(stream, ON_EPOCH_BATCH))
            on_epoch(batch)
            yield from batch

    def __iter__(self) -> Iterator[TraceRecord]:
        return self.records()

    def take(self, count: int) -> List[TraceRecord]:
        """The stream's next ``count`` records (tests, trace export).

        Draws exactly ``count`` records' worth of rng state, so a
        subsequent ``take``/``records`` continues the stream where this
        call stopped, mid-burst included.
        """
        self._check_profile()
        return list(islice(self._stream, max(0, count)))
