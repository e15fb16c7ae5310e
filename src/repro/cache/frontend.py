"""Timed DRAM-cache tier between the trace cores and the PCM memory.

Everywhere else the repository drives the PCM channels with raw post-LLC
traffic; this module makes Table I's 256 MB DRAM cache a first-class
*simulated* tier instead of an offline mask generator:

* **Hits are events.**  A tier hit completes
  ``DramCacheConfig.access_cycles`` CPU cycles after submission,
  scheduled on the shared :class:`~repro.sim.engine.Engine` — the
  config knob that used to be documented as "folded into base CPI"
  now drives real event timing.
* **Misses coalesce in MSHRs.**  A read or write miss allocates a miss
  entry keyed by line address and issues one PCM line fill; overlapping
  misses to the same line attach to the existing entry instead of
  duplicating the fill.  The line is installed only when the fill
  completes, so a line is never visible before its data could exist.
* **Write-backs enter the real controller queues.**  Dirty victims are
  queued into the tier's write-back buffer and drained into the
  per-channel :class:`~repro.memory.controller.MemoryController` write
  queues, with the controllers' own back-pressure chained upward to the
  cores.
* **Writes allocate.**  A write miss fetches the line from PCM
  (write-allocate) and merges its dirty words on fill completion, so
  PCM write traffic is *shaped* by the tier — it happens at eviction
  time with merged masks, which is exactly the filtering deployment
  puts in front of RoW/WoW.

The tier implements the same :class:`~repro.memory.port.MemoryPort`
shape as :class:`~repro.memory.memsys.MainMemory`, so cores are wired to
either interchangeably; ``front_end=none`` builds nothing and keeps the
direct path bit-for-bit identical.  See docs/FRONTEND.md.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional

from repro.cache.dram_cache import DramCache, DramCacheConfig
from repro.cache.replacement import REPLACEMENT_POLICIES
from repro.cache.set_assoc import Eviction
from repro.memory.request import MemoryRequest, RequestKind
from repro.telemetry import Telemetry

if TYPE_CHECKING:
    from repro.memory.port import MemoryPort
    from repro.sim.engine import Engine

#: Recognised ``FrontEndConfig.kind`` values.
FRONT_END_KINDS = ("none", "dram")

#: Tier-generated transactions get their own request-id namespaces, far
#: above the per-core ``core_id << 32`` ranges the trace cores use.
FILL_ID_BASE = 1 << 60
WRITE_BACK_ID_BASE = (1 << 60) | (1 << 59)


@dataclass(frozen=True)
class FrontEndConfig:
    """Configuration of the simulated memory front end.

    Frozen (and nested-frozen) so it participates in
    :class:`~repro.sim.simulator.SimulationParams` content hashing — the
    sweep runner's cache keys cover the tier configuration for free.
    """

    #: ``"none"`` — no tier, today's direct path, bit-for-bit.
    #: ``"dram"`` — the timed DRAM cache described above.
    kind: str = "none"
    dram: DramCacheConfig = DramCacheConfig()
    #: Replacement policy name (:mod:`repro.cache.replacement`).
    replacement: str = "lru"
    #: Miss-status-holding registers: concurrent outstanding line fills.
    mshrs: int = 16
    #: Tier-side write-back buffer entries (evictions waiting to enter a
    #: controller write queue).
    writeback_buffer: int = 16

    def __post_init__(self) -> None:
        if self.kind not in FRONT_END_KINDS:
            raise ValueError(
                f"unknown front-end kind {self.kind!r}; "
                f"expected one of {FRONT_END_KINDS}"
            )
        if self.replacement not in REPLACEMENT_POLICIES:
            raise ValueError(
                f"unknown replacement policy {self.replacement!r}; "
                f"known: {sorted(REPLACEMENT_POLICIES)}"
            )
        if self.mshrs < 1:
            raise ValueError("front end needs at least one MSHR")
        if self.writeback_buffer < 1:
            raise ValueError("front end needs at least one write-back slot")

    @property
    def enabled(self) -> bool:
        return self.kind != "none"

    @property
    def capacity_mb(self) -> float:
        """Tier capacity in MiB (the ``--frontend-mb`` sizing knob)."""
        return self.dram.size_bytes / (1024 * 1024)


@dataclass
class FrontEndStats:
    """Counters for one front-end instance (the tier's scoreboard)."""

    reads: int = 0           #: read requests submitted to the tier
    writes: int = 0          #: write-backs submitted to the tier
    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    coalesced: int = 0       #: misses absorbed by an in-flight MSHR
    fills: int = 0           #: PCM line reads the tier issued
    write_backs: int = 0     #: dirty evictions issued toward PCM
    fill_rollbacks: int = 0  #: fills whose RoW verification failed

    @property
    def hits(self) -> int:
        return self.read_hits + self.write_hits

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses

    def as_dict(self) -> dict:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "read_hits": self.read_hits,
            "read_misses": self.read_misses,
            "write_hits": self.write_hits,
            "write_misses": self.write_misses,
            "coalesced": self.coalesced,
            "fills": self.fills,
            "write_backs": self.write_backs,
            "fill_rollbacks": self.fill_rollbacks,
            "hit_rate": self.hit_rate,
        }


class _MissEntry:
    """One MSHR: the in-flight fill for a line plus its waiters."""

    __slots__ = ("address", "waiting_reads", "waiting_writes", "pending_mask")

    def __init__(self, address: int):
        self.address = address
        self.waiting_reads: List[MemoryRequest] = []
        self.waiting_writes: List[MemoryRequest] = []
        #: Dirty words from writes that arrived while the fill was in
        #: flight; merged into the line at install time.
        self.pending_mask = 0


class DramCacheFrontEnd:
    """The timed DRAM tier; a :class:`MemoryPort` in front of another."""

    def __init__(
        self,
        engine: "Engine",
        memory: "MemoryPort",
        config: FrontEndConfig,
        cycle_ticks: int,
        telemetry: Optional[Telemetry] = None,
    ):
        if not config.enabled:
            raise ValueError("front end constructed with kind='none'")
        self.engine = engine
        self.memory = memory
        self.config = config
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry.disabled()
        )
        self.dram = DramCache(config.dram, policy=config.replacement)
        #: Engine ticks a tier hit takes — ``access_cycles`` expressed in
        #: CPU cycles of the core clock this tier serves.
        self.hit_ticks = config.dram.access_cycles * cycle_ticks
        self.stats = FrontEndStats()

        self._mshrs: Dict[int, _MissEntry] = {}
        #: Evictions waiting to enter a controller write queue, in
        #: eviction order (the tier's single write-back port drains them
        #: strictly in order).
        self._write_backs: Deque[MemoryRequest] = deque()
        #: One-shot wake-ups for producers blocked on the tier
        #: (mirrors the controller queues' wait_for_space semantics).
        self._space_waiters: List[Callable[[], None]] = []
        self._wb_blocked = False
        self._next_fill_id = FILL_ID_BASE
        self._next_wb_id = WRITE_BACK_ID_BASE

        metrics = self.telemetry.metrics
        self._m_hits = metrics.counter("frontend.hits")
        self._m_misses = metrics.counter("frontend.misses")
        self._m_coalesced = metrics.counter("frontend.mshr_coalesced")
        self._m_fills = metrics.counter("frontend.fills")
        self._m_write_backs = metrics.counter("frontend.write_backs")

    # ------------------------------------------------------------------
    # MemoryPort interface (what the cores call)
    # ------------------------------------------------------------------
    def can_accept(self, kind: RequestKind, address: int) -> bool:
        if kind is RequestKind.WRITE:
            # A write may allocate and evict a dirty line; require room
            # in the write-back buffer before admitting it.
            if len(self._write_backs) >= self.config.writeback_buffer:
                return False
        if self.dram.cache.contains(address) or address in self._mshrs:
            return True
        # A miss needs an MSHR and a slot in the PCM read queue for the
        # fill (write misses fetch-on-write, so both kinds fill via READ).
        return (
            len(self._mshrs) < self.config.mshrs
            and self.memory.can_accept(RequestKind.READ, address)
        )

    def submit(self, request: MemoryRequest) -> None:
        request.arrival = self.engine.now
        if request.is_read:
            self._submit_read(request)
        else:
            self._submit_write(request)

    def wait_for_space(
        self, kind: RequestKind, address: int, callback: Callable[[], None]
    ) -> None:
        # Every admission blocker implies in-flight tier work whose
        # completion calls _notify_space: a full MSHR table or full PCM
        # read queue means fills are outstanding, and a full write-back
        # buffer keeps a drain registration against the controller's
        # write queue.  So a local one-shot list cannot strand waiters.
        self._space_waiters.append(callback)

    @property
    def idle(self) -> bool:
        return (
            not self._mshrs
            and not self._write_backs
            and self.memory.idle
        )

    # ------------------------------------------------------------------
    # Introspection (time-series probes, results, examples)
    # ------------------------------------------------------------------
    @property
    def mshr_depth(self) -> int:
        return len(self._mshrs)

    @property
    def writeback_depth(self) -> int:
        return len(self._write_backs)

    def summary(self) -> dict:
        """JSON-safe scoreboard embedded in saved results (schema 2)."""
        cache = self.dram.stats
        return {
            "kind": self.config.kind,
            "replacement": self.config.replacement,
            "access_cycles": self.config.dram.access_cycles,
            "mshrs": self.config.mshrs,
            "writeback_buffer": self.config.writeback_buffer,
            **self.stats.as_dict(),
            "cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
                "dirty_evictions": cache.dirty_evictions,
                "clean_evictions": cache.clean_evictions,
            },
        }

    # ------------------------------------------------------------------
    # Epoch-batched classification (PR 7's on_epoch hook, tier-aware)
    # ------------------------------------------------------------------
    def make_epoch_hook(self, storage) -> Optional[Callable]:
        """Per-epoch hook classifying a whole epoch in one batched pass.

        The trace generators hand each freshly drawn batch of
        :data:`~repro.trace.synthetic.ON_EPOCH_BATCH` records to this
        hook before the cores consume it.  The tier classifies every
        address against the cache's *current* state in one vectorized
        pass (:meth:`ArraySetCache.classify_batch`; a scalar scan
        without numpy) and prefetch-materialises only the
        predicted-miss lines — the lines whose PCM fills the tier will
        issue.  The classification is advisory by design: tier state
        moves between generation and consumption (in-flight MSHR fills),
        so the real per-event probes still decide hits and misses.  A
        predicted miss that turns out to hit was resident, hence already
        materialised by its own fill — prefetching it again is a no-op —
        so steering never materialises a line the run leaves cold, and
        ``storage.prefetch`` is semantically invisible either way.

        Mirrors ``repro.cpu.multicore._epoch_prefetcher``'s guard: plain
        :class:`~repro.memory.storage.MemoryStorage` only (the
        fault-injecting subclass sweeps every materialised line through
        its oracle), else ``None``.
        """
        from repro.memory.storage import MemoryStorage

        if type(storage) is not MemoryStorage:
            return None
        cache = self.dram.cache

        def classify_and_prefetch(records) -> None:
            addresses = [record.address for record in records]
            hits = cache.classify_batch(addresses)
            storage.prefetch(
                {
                    address // 64
                    for address, hit in zip(addresses, hits)
                    if not hit
                }
            )

        return classify_and_prefetch

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _submit_read(self, request: MemoryRequest) -> None:
        self.stats.reads += 1
        entry = self.dram.cache.probe(request.address)
        if entry is not None:
            self.stats.read_hits += 1
            self._m_hits.inc()
            self._schedule_hit(request)
            return
        self.stats.read_misses += 1
        self._m_misses.inc()
        miss = self._mshrs.get(request.address)
        if miss is not None:
            miss.waiting_reads.append(request)
            self.stats.coalesced += 1
            self._m_coalesced.inc()
            return
        self._start_fill(request.address, request, waiting_read=True)

    # ------------------------------------------------------------------
    # Write path (write-allocate, fetch-on-write)
    # ------------------------------------------------------------------
    def _submit_write(self, request: MemoryRequest) -> None:
        self.stats.writes += 1
        entry = self.dram.cache.probe(
            request.address, dirty_mask=request.dirty_mask
        )
        if entry is not None:
            self.stats.write_hits += 1
            self._m_hits.inc()
            self._schedule_hit(request)
            return
        self.stats.write_misses += 1
        self._m_misses.inc()
        miss = self._mshrs.get(request.address)
        if miss is not None:
            miss.pending_mask |= request.dirty_mask
            miss.waiting_writes.append(request)
            self.stats.coalesced += 1
            self._m_coalesced.inc()
            return
        self._start_fill(request.address, request, waiting_read=False)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _schedule_hit(self, request: MemoryRequest) -> None:
        """Complete ``request`` after the tier's scheduled hit latency."""
        self.engine.call_after(
            self.hit_ticks, request.complete, self.engine.now + self.hit_ticks
        )

    def _start_fill(
        self, address: int, waiter: MemoryRequest, waiting_read: bool
    ) -> None:
        miss = _MissEntry(address)
        if waiting_read:
            miss.waiting_reads.append(waiter)
        else:
            miss.waiting_writes.append(waiter)
            miss.pending_mask = waiter.dirty_mask
        self._mshrs[address] = miss
        self._next_fill_id += 1
        fill = MemoryRequest(
            req_id=self._next_fill_id,
            kind=RequestKind.READ,
            address=address,
            core_id=waiter.core_id,
            requested_at=self.engine.now,
        )
        fill.on_complete = self._on_fill_complete
        # RoW verification outcomes propagate to whoever was waiting on
        # the fill; the closure sees the MSHR's final waiter list because
        # coalesced misses append to the same object.
        readers = miss.waiting_reads
        fill.on_verify = (
            lambda _fr, rollback, readers=readers:
            self._forward_verify(readers, rollback)
        )
        self.stats.fills += 1
        self._m_fills.inc()
        self.memory.submit(fill)

    def _on_fill_complete(self, fill: MemoryRequest) -> None:
        miss = self._mshrs.pop(fill.address)
        evicted = self.dram.cache.install(fill.address)
        self.dram.cache.merge_dirty(fill.address, miss.pending_mask)
        now = self.engine.now
        for waiter in miss.waiting_reads:
            waiter.complete(now)
        for waiter in miss.waiting_writes:
            waiter.complete(now)
        if evicted is not None:
            self._queue_write_back(evicted)
        self._notify_space()

    def _forward_verify(
        self, readers: List[MemoryRequest], rollback: bool
    ) -> None:
        if rollback:
            self.stats.fill_rollbacks += 1
        for reader in readers:
            if reader.on_verify is not None:
                reader.on_verify(reader, rollback)

    def _queue_write_back(self, eviction: Eviction) -> None:
        self._next_wb_id += 1
        wb = MemoryRequest(
            req_id=self._next_wb_id,
            kind=RequestKind.WRITE,
            address=eviction.address,
            dirty_mask=eviction.dirty_mask,
            new_words=eviction.words,
        )
        self.stats.write_backs += 1
        self._m_write_backs.inc()
        self._write_backs.append(wb)
        self._drain_write_backs()

    def _drain_write_backs(self) -> None:
        while self._write_backs and self.memory.can_accept(
            RequestKind.WRITE, self._write_backs[0].address
        ):
            self.memory.submit(self._write_backs.popleft())
        if self._write_backs and not self._wb_blocked:
            self._wb_blocked = True
            self.memory.wait_for_space(
                RequestKind.WRITE,
                self._write_backs[0].address,
                self._writeback_space_available,
            )

    def _writeback_space_available(self) -> None:
        self._wb_blocked = False
        self._drain_write_backs()
        self._notify_space()

    def _notify_space(self) -> None:
        """Wake blocked producers once (they re-check and re-register)."""
        if not self._space_waiters:
            return
        waiters, self._space_waiters = self._space_waiters, []
        for callback in waiters:
            callback()
