"""Baseline PCM memory controller (paper §II-B).

One controller owns one 64/72-bit channel: a read queue, a write queue,
the rank resource state, and the shared data bus.  Scheduling policy:

* **Read-over-write priority** — reads are serviced FR-FCFS (row hits
  first, then oldest).  Writes buffer in the write queue.
* **Watermark drain** — once the write queue is more than ``alpha`` = 80 %
  full, the controller turns the bus around and drains writes (oldest
  first) until the queue falls below the low watermark; reads wait.
* **Opportunistic writes** — when the read queue is empty, queued writes
  are issued even below the watermark.

The *write-issue decision* is delegated to an ordered
:class:`repro.memory.policy.PolicyChain`: a head scan picks the candidate
(the queue discipline) and the chain's policies decide how to service
it.  The baseline chain is a single
:class:`~repro.memory.policy.CoarseWritePolicy` — whole-rank writes whose
chip idleness is exactly what PCMap attacks and the IRLP recorder
measures.  Every system is this class and the chain its config composes;
PCMap systems add the :class:`~repro.core.fine.FineWriteEngine` it drives.

The controller is event-driven: ``_kick`` runs whenever a request arrives
or a resource frees, issues everything that can start *now*, and arms a
wake-up at the earliest future time anything could start.  Busy times
only move forward, so each request keeps its last computed ready tick as
a lower bound (``MemoryRequest.ready_bound``) and each queue a bound over
its entries (``scan_bound``); scans skip what those bounds rule out.
"""

from __future__ import annotations

import random
import sys
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.memory.address import AddressMapper, DecodedAddress
from repro.memory.bus import BusDirection, ChannelBus
from repro.memory.policy import PolicyChain, WriteContext
from repro.memory.queues import RequestQueue, WriteQueue
from repro.memory.rank import RankState
from repro.memory.request import (
    MemoryRequest,
    RequestKind,
    ServiceClass,
    WORDS_PER_LINE,
)
from repro.memory.timing import WriteLatencyMode
from repro.sim.engine import Engine, EventHandle, ticks_to_ns
from repro.sim.metrics import IrlpRecorder, WriteWindow
from repro.telemetry import EventType, Telemetry

if TYPE_CHECKING:
    # The config and the engine are imported lazily at runtime to avoid a
    # package cycle; the store only by functional runs, which build it.
    from repro.core.config import SystemConfig
    from repro.core.fine import FineWriteEngine
    from repro.memory.storage import MemoryStorage

#: ``_wake_time`` when no wake-up is pending or noted.
NO_WAKE = sys.maxsize


class MemoryController:
    """Scheduler and resource manager for one memory channel."""

    def __init__(
        self,
        engine: Engine,
        config: "SystemConfig",
        channel_id: int = 0,
        storage: Optional["MemoryStorage"] = None,
        seed: int = 1,
        telemetry: Optional[Telemetry] = None,
    ):
        # Runtime imports: repro.core builds on this module, so importing
        # its helpers at module scope would create an import cycle.
        from repro.core.essential import EssentialWordDetector
        from repro.core.rotation import make_layout
        from repro.core.systems import build_policies

        self.engine = engine
        self.config = config
        self.timing = config.timing
        self.geometry = config.geometry
        self.channel_id = channel_id
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        self.tracer = self.telemetry.tracer
        self.mapper = AddressMapper(config.geometry)
        self.layout = make_layout(
            config.geometry, config.rotate_data, config.rotate_ecc
        )
        self.read_q = RequestQueue(
            config.read_queue_capacity, name=f"ch{channel_id}-rq"
        )
        self.write_q = WriteQueue(
            config.write_queue_capacity,
            config.drain_high_watermark,
            config.drain_low_watermark,
            name=f"ch{channel_id}-wq",
        )
        self.ranks: List[RankState] = [
            RankState(
                config.timing,
                config.geometry.chips_per_rank,
                config.geometry.banks_per_rank,
                channel=channel_id,
                rank_index=rank,
                tracer=self.tracer,
            )
            for rank in range(config.geometry.ranks_per_channel)
        ]
        self.bus = ChannelBus(config.timing, config.geometry.chips_per_rank)
        #: Column-read latency (tCL) in ticks, paid by every read issue.
        self._tcl_ticks = self.timing.cycles(self.timing.tCL)
        self.storage = storage
        self.detector = EssentialWordDetector(storage)
        self.irlp = IrlpRecorder()
        self.rng = random.Random(seed * 7919 + channel_id)

        self.drain = False
        self._wake_handle: Optional[EventHandle] = None
        #: Earliest wake-up of the current kick; starts at the one already
        #: armed, and scans lower it (see ``_kick``).
        self._wake_time = NO_WAKE
        coarse = tuple(range(config.geometry.data_chips))
        if config.geometry.has_ecc_chip:
            coarse += (config.geometry.ecc_chip_index,)
        #: Every data chip plus ECC: what a baseline (coarse) write reserves.
        self._coarse_chips = coarse
        self._open_windows: List[WriteWindow] = []
        self._in_kick = False
        #: Optional observer called with each read request right after it
        #: completes (differential-oracle wiring).  None in normal runs:
        #: the completion path pays one attribute check.
        self.read_completion_hook: Optional[Callable[[MemoryRequest], None]] = None

        # Always-on metrics, the only record of what the channel did
        # (MemoryStats.from_registry reads them back at collect time).
        # Instruments are fetched once here so the hot path pays
        # attribute access + integer ops only.  The registry is shared
        # across channels, so these counters aggregate globally.
        metrics = self.telemetry.metrics
        self.read_q.attach_metrics(metrics, f"ch{channel_id}.queue.read")
        self.write_q.attach_metrics(metrics, f"ch{channel_id}.queue.write")
        self._m_reads_enqueued = metrics.counter("requests.read.enqueued")
        self._m_writes_enqueued = metrics.counter("requests.write.enqueued")
        self._m_reads_completed = metrics.counter("reads.completed")
        self._m_writes_completed = metrics.counter("writes.completed")
        self._m_reads_forwarded = metrics.counter("reads.forwarded")
        self._m_reads_delayed = metrics.counter("reads.delayed_by_write")
        self._m_drain_entries = metrics.counter("drain.entries")
        self._m_read_latency = metrics.histogram(
            "read.latency_ns",
            buckets=(50, 100, 150, 200, 300, 500, 750, 1000, 1500,
                     2000, 4000, 8000, 16000),
        )
        # Exact tick sum: the histogram's float ns sum need not round back.
        self._m_read_latency_ticks = metrics.counter("read.latency_ticks")
        self._m_row_hits = metrics.counter("row_buffer.hits")
        self._m_row_misses = metrics.counter("row_buffer.misses")
        #: Dirty words per accepted write; silent writes are bucket 0.
        self._m_dirty_words = metrics.histogram(
            "writes.dirty_words", buckets=tuple(range(WORDS_PER_LINE + 1))
        )
        #: PCM word writes per physical chip (wear balance), by chip index.
        self._m_chip_word_writes = [
            metrics.counter(f"chip{chip}.word_writes")
            for chip in range(config.geometry.chips_per_rank)
        ]

        #: The fine write engine the PCMap policies drive; None on coarse systems.
        self.fine: Optional["FineWriteEngine"] = None
        if config.fine_grained_writes:
            from repro.core.fine import FineWriteEngine

            self.fine = FineWriteEngine(self)
        #: Ordered scheduling-policy stack driving the write-issue path.
        #: Built last so policies bind against a fully constructed
        #: controller, the engine included.
        self.policies = PolicyChain(self, build_policies(config))

    # ==================================================================
    # External interface
    # ==================================================================
    def can_accept(self, kind: RequestKind) -> bool:
        queue = self.read_q if kind is RequestKind.READ else self.write_q
        return len(queue.entries) < queue.capacity

    def wait_for_space(self, kind: RequestKind, callback) -> None:
        queue = self.read_q if kind is RequestKind.READ else self.write_q
        queue.wait_for_space(callback)

    def submit(
        self, request: MemoryRequest, decoded: Optional[DecodedAddress] = None
    ) -> None:
        """Accept a request; raises when the target queue is full.

        ``decoded`` is the routing decode ``MainMemory.submit`` already
        made; direct callers leave it to this controller's mapper.  Decode
        and chip set are final from here on.
        """
        request.arrival = self.engine.now
        request.decoded = decoded = (
            decoded if decoded is not None
            else self.mapper.decode(request.address)
        )
        if self.tracer.enabled:
            self.tracer.emit(
                EventType.REQUEST_ENQUEUE,
                tick=request.arrival,
                channel=self.channel_id,
                req_id=request.req_id,
                kind=request.kind._value_,
            )
        is_read = request.kind is RequestKind.READ
        if is_read:
            self._m_reads_enqueued.inc()
            if self._try_forward_read(request):
                return
            request.chips = self.layout.read_chips(decoded.line_address)
            self.read_q.push(request)
            if self.drain:
                request.delayed_by_write = True
        else:
            self._m_writes_enqueued.inc()
            self.detector.detect(request)
            # Chips after detection: the detector is what finalises
            # ``dirty_mask``.  Silent writes keep their compare set (all
            # data chips), dirty writes their essential-chip set.
            if request.dirty_mask:
                request.chips = self.layout.dirty_chips(
                    decoded.line_address, request.dirty_mask
                )
            else:
                request.chips = self.layout.all_data_chips(
                    decoded.line_address
                )
            self._m_dirty_words.observe(request.dirty_count)
            self.write_q.push(request)
        self._kick()
        if is_read and request.completion < 0:
            # Still queued after the kick: let policies react — e.g. an
            # open RoW window absorbs reads arriving mid-window.
            self.policies.on_read_enqueued(request)

    @property
    def idle(self) -> bool:
        """True when both queues are empty (no pending work)."""
        return self.read_q.empty and self.write_q.empty

    # ==================================================================
    # Scheduling loop
    # ==================================================================
    def _kick(self) -> None:
        if self._in_kick:
            return
        self._in_kick = True
        try:
            # Start from the wake already armed: scans skip any request
            # whose ready bound is past ``now`` and at or past it, since
            # noting that request could not move the wake.
            armed = self._wake_time = self._armed_wake()
            if self._open_windows:
                self._prune_windows()
            while self._schedule_once():
                pass
            if self._wake_time < armed:
                self._arm_wake(armed)
        finally:
            self._in_kick = False

    def _schedule_once(self) -> bool:
        """Issue at most one service; returns True when progress was made.

        Read issue stays built in (FR-FCFS is common to every system);
        the write step is one pass through the policy chain.
        """
        write_q = self.write_q
        depth = len(write_q.entries)
        if self.drain:
            if depth <= write_q.low_count:
                self._set_drain(False, depth)
        elif depth > write_q.high_count:
            self._set_drain(True, depth)
        now = self.engine.now
        reads = self.read_q.entries
        if self.drain:
            # Drain mode: writes only; reads wait (the baseline policy the
            # paper's Figure 1 quantifies).  Pausing opts out of the
            # delayed-read flagging via its chain discipline flag.
            if self.policies.mark_reads_delayed_in_drain:
                for read in reads:
                    read.delayed_by_write = True
            return self.policies.select_write(now)
        if reads:
            if self._try_issue_read(now):
                return True
            if self.policies.reads_block_writes:
                # Read-priority discipline: a queued-but-unready read
                # holds the channel; only pausing-style chains proceed.
                return False
        if depth:
            return self.policies.select_write(now)
        return False

    def _set_drain(self, drain: bool, depth: int) -> None:
        """Enter or leave drain mode (the write queue crossed a watermark)."""
        self.drain = drain
        if drain:
            self._m_drain_entries.inc()
        if self.tracer.enabled:
            self.tracer.emit(
                EventType.DRAIN_ENTER if drain else EventType.DRAIN_EXIT,
                tick=self.engine.now,
                channel=self.channel_id,
                extra={"write_queue_depth": depth},
            )

    # ------------------------------------------------------------------
    # Wake management
    # ------------------------------------------------------------------
    def _armed_wake(self) -> int:
        """Tick of the wake-up counted as pending (``NO_WAKE`` if none).

        Known defect (ROADMAP): a handle that already fired still counts,
        at its past tick, so once a controller's first wake-up fires it
        never arms another.  Fixing it changes the pinned fingerprints.
        """
        handle = self._wake_handle
        if handle is None or handle.cancelled:
            return NO_WAKE
        return handle.time

    def _note_wake(self, time: int) -> None:
        if time <= self.engine.now:
            time = self.engine.now + 1
        if time < self._wake_time:
            self._wake_time = time

    def _arm_wake(self, armed: int) -> None:
        """Arm the kick's earlier wake-up in place of the ``armed`` one."""
        if self._wake_handle is not None and armed != NO_WAKE:
            self._wake_handle.cancel()
        self._wake_handle = self.engine.schedule_at(self._wake_time, self._kick)

    # ==================================================================
    # Read path
    # ==================================================================
    def _try_forward_read(self, req: MemoryRequest) -> bool:
        """Serve a read from the write queue when the line is buffered.

        A read that matches a queued (or in-flight) write must observe the
        write's data; the controller forwards it from its buffers at SRAM
        speed instead of touching the PCM array.
        """
        line_address = req.line_address
        if not self.write_q.has_line(line_address):
            return False
        matches = [
            w for w in self.write_q if w.line_address == line_address
        ]
        if self.storage is not None:
            # In-flight writes already committed to the functional store;
            # overlay the still-pending ones in queue (FIFO) order.
            words = list(self.storage.read_line(req.line_address).words)
            for write in matches:
                if write.start_service >= 0 or write.new_words is None:
                    continue
                for w in range(WORDS_PER_LINE):
                    if (write.dirty_mask >> w) & 1:
                        words[w] = write.new_words[w]
            req.data_words = tuple(words)
        self._m_reads_forwarded.inc()
        if self.tracer.enabled:
            self.tracer.emit(
                EventType.REQUEST_ISSUE,
                tick=self.engine.now,
                channel=self.channel_id,
                req_id=req.req_id,
                kind="read",
                reason="forwarded-from-write-queue",
            )
        end = self.engine.now + self.timing.read_io_ticks
        self.engine.call_at(end, self._complete_read, req)
        return True

    def _try_issue_read(self, now: int) -> bool:
        """FR-FCFS over the read queue; returns True if a read was issued.

        A read whose ready bound lies past ``now`` cannot issue, and once
        the bound is also at or past ``cut`` (the kick's wake, or an
        earlier bound seen in this scan) noting it cannot move the wake
        either, so it is skipped without a chip lookup.  The queue's scan
        bound skips the whole scan on the same terms.  A failed scan
        leaves the wake exactly where a full rescan would.
        """
        read_q = self.read_q
        cut = self._wake_time
        lowest = read_q.scan_bound
        if lowest > now and lowest >= cut:
            return False
        lowest = NO_WAKE
        ranks = self.ranks
        best: Optional[MemoryRequest] = None
        best_hit = False
        for req in read_q.entries:
            ready = req.ready_bound
            if ready > now and ready >= cut:
                if ready < lowest:
                    lowest = ready
                continue
            decoded = req.decoded
            rank = ranks[decoded.rank]
            ready = req.ready_bound = rank.read_ready_time(req.chips, decoded.bank)
            if ready > now:
                if ready < lowest:
                    lowest = ready
                    if ready < cut:
                        cut = ready
                continue
            hit = rank.row_hit(req.chips, decoded.bank, decoded.row)
            if best is None or (hit and not best_hit):
                best, best_hit = req, hit
                if hit:
                    break  # row hit + oldest-first: good enough
                cut = now  # only a ready read can still beat ``best``
        if best is None:
            read_q.scan_bound = lowest
            self._wake_time = cut
            return False
        self._issue_read(best, now)
        return True

    def _issue_read(self, req: MemoryRequest, now: int) -> None:
        """Issue ``req``, which the read scan just found ready at ``now``."""
        decoded = req.decoded
        rank = self.ranks[decoded.rank]
        chips = req.chips
        activation = rank.activation_ticks(chips, decoded.bank, decoded.row)
        if activation == 0:
            self._m_row_hits.inc()
        else:
            self._m_row_misses.inc()
        cas_ready = now + activation + self._tcl_ticks
        _bus_start, bus_end = self.bus.reserve(BusDirection.READ, cas_ready)
        if self.tracer.enabled:
            rank.log_label, rank.log_id = "Rd-", req.req_id
        rank.reserve_read(chips, decoded.bank, bus_end, decoded.row, start=now)

        req.start_service = now
        if self.tracer.enabled:
            self.tracer.emit(
                EventType.REQUEST_ISSUE,
                tick=self.engine.now,
                channel=self.channel_id,
                rank=decoded.rank,
                bank=decoded.bank,
                req_id=req.req_id,
                start=now,
                end=bus_end,
                kind="read",
            )
        if not req.delayed_by_write:
            arrival = req.arrival
            write_busy = rank.write_busy
            for c in chips:
                if write_busy[c] > arrival:
                    req.delayed_by_write = True
                    break
        data_chips = self.layout.all_data_chips(decoded.line_address)
        self._record_activity(data_chips, now, bus_end)
        if self.storage is not None:
            req.data_words = self.storage.read_line(decoded.line_address).words
        self.read_q.remove(req)
        self.engine.call_at(bus_end, self._complete_read, req)

    def _complete_read(self, req: MemoryRequest) -> None:
        req.complete(self.engine.now)
        latency = req.effective_latency
        self._m_reads_completed.inc()
        if req.delayed_by_write:
            self._m_reads_delayed.inc()
        self._m_read_latency.observe(ticks_to_ns(latency))
        self._m_read_latency_ticks.inc(latency)
        if self.tracer.enabled:
            self.tracer.emit(
                EventType.REQUEST_COMPLETE,
                tick=self.engine.now,
                channel=self.channel_id,
                req_id=req.req_id,
                kind="read",
                reason=req.service_class._value_,
                extra={"latency_ns": ticks_to_ns(latency)},
            )
        if self.read_completion_hook is not None:
            self.read_completion_hook(req)
        self._kick()

    # ==================================================================
    # Write path (baseline: coarse, whole-rank writes, oldest first)
    # ==================================================================
    def select_write_candidate(self, now: int) -> Optional[WriteContext]:
        """Head write the policy chain deliberates over this step.

        Coarse queue discipline: strict FIFO over not-yet-issued writes,
        gated on the coarse chip set being ready now (otherwise a wake-up
        is armed and the step yields).  A fine write engine's chain scans
        with ``FineWriteEngine.select_candidate`` instead.
        """
        pending = self.write_q.pending
        if not pending:
            return None
        head = pending[0]
        decoded = head.decoded
        rank = self.ranks[decoded.rank]
        ready = rank.write_ready_time(self._coarse_chips, decoded.bank)
        if ready > now:
            self._note_wake(ready)
            return None
        return WriteContext(now, head, decoded)

    def _issue_coarse_write(
        self, req: MemoryRequest, decoded: DecodedAddress, now: int
    ) -> None:
        rank = self.ranks[decoded.rank]
        chips = self._coarse_chips
        start = max(now, rank.write_ready_time(chips, decoded.bank))
        _bus_start, bus_end = self.bus.reserve(BusDirection.WRITE, start)
        # The word-write latency is all-inclusive: the differential
        # write's internal read-compare happens within it (the paper's
        # "write = 2x read" covers the whole operation; cf. Figure 5).
        array_start = bus_end

        if req.dirty_count == 0:
            # Silent store: the chips' read-before-write finds nothing to
            # change; only the compare (an array read) is paid.  The
            # zero-activity window keeps silent write-backs in the IRLP
            # average, matching the paper's 2.37 baseline derivation.
            req.service_class = ServiceClass.SILENT
            end = array_start + self.timing.array_read_ticks
            self._open_window(array_start, end)
        else:
            word_ticks = [
                self._word_write_ticks(req, w) for w in req.dirty_words
            ]
            end = array_start + max(word_ticks)
            self._open_window(array_start, end)
            for word, ticks in zip(req.dirty_words, word_ticks):
                chip = self.layout.data_chip(decoded.line_address, word)
                self._record_activity((chip,), array_start, array_start + ticks)
                self._m_chip_word_writes[chip].inc()
            if self.geometry.has_ecc_chip:
                self._m_chip_word_writes[self.geometry.ecc_chip_index].inc()
        if self.tracer.enabled:
            rank.log_label, rank.log_id = "Wr-", req.req_id
        rank.reserve_write(chips, decoded.bank, end, decoded.row, start=array_start)
        self._finish_write(req, start, end, decoded)

    def _finish_write(
        self,
        req: MemoryRequest,
        start: int,
        end: int,
        decoded: DecodedAddress,
    ) -> None:
        """Common write issue: storage commit + completion event.

        The write-queue entry is retained until completion — the
        controller must hold the data until the array (and its ECC/PCC
        updates) committed, so queue occupancy reflects in-flight work
        and back-pressure is physical.
        """
        req.start_service = start
        self.write_q.note_issued(req)
        if self.tracer.enabled:
            self.tracer.emit(
                EventType.REQUEST_ISSUE,
                tick=self.engine.now,
                channel=self.channel_id,
                rank=decoded.rank,
                bank=decoded.bank,
                req_id=req.req_id,
                start=start,
                end=end,
                kind="write",
                reason=req.service_class._value_,
            )
        if self.storage is not None and req.new_words is not None:
            self.storage.write_line(
                decoded.line_address, req.new_words, req.dirty_mask
            )
        self.engine.call_at(end, self._complete_write, req)

    def _complete_write(self, req: MemoryRequest) -> None:
        self.write_q.remove(req)
        req.complete(self.engine.now)
        self._m_writes_completed.inc()
        if self.tracer.enabled:
            self.tracer.emit(
                EventType.REQUEST_COMPLETE,
                tick=self.engine.now,
                channel=self.channel_id,
                req_id=req.req_id,
                kind="write",
                reason=req.service_class._value_,
            )
        self._kick()

    # ==================================================================
    # Shared helpers
    # ==================================================================
    def _word_write_ticks(self, req: MemoryRequest, word: int) -> int:
        """Array time to write one dirty word on its chip."""
        timing = self.timing
        if timing.write_mode is WriteLatencyMode.FIXED:
            return timing.array_write_ticks
        # SET_RESET: a word with any 0->1 transition needs the slow SET.
        if req.old_words is not None and req.new_words is not None:
            old, new = req.old_words[word], req.new_words[word]
            needs_set = bool(new & ~old)
        else:
            # Statistical mode: deterministic pseudo-random draw per
            # (line, word) so re-runs are reproducible.
            draw = hash((req.line_address, word)) & 0xFFFF
            needs_set = draw < int(0.7 * 0x10000)
        if needs_set:
            return timing.array_write_set_ticks
        return timing.array_write_reset_ticks

    def _open_window(self, start: int, end: int) -> WriteWindow:
        window = self.irlp.open_window(start, end)
        self._open_windows.append(window)
        return window

    def _prune_windows(self) -> None:
        # Runs every kick with windows open; rebuild the list only when
        # something expired.  An expired window takes no more activity,
        # so the open set releases its hold on it.
        windows = self._open_windows
        now = self.engine.now
        for window in windows:
            if window.end <= now:
                break
        else:
            return
        kept: List[WriteWindow] = []
        for window in windows:
            if window.end > now:
                kept.append(window)
            else:
                self.irlp.release(window)
        self._open_windows = kept

    def _record_activity(
        self, chips: Tuple[int, ...], start: int, end: int
    ) -> None:
        """Attribute data-chip activity to the open write windows.

        Windows grow (``absorb``) after creation, so no span filtering
        happens here; ``WriteWindow.irlp`` clips intervals to the final
        span, making out-of-window contributions vanish.
        """
        for window in self._open_windows:
            for chip in chips:
                window.add_activity(chip, start, end)
