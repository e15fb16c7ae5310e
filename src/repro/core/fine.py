"""Fine-grained write engine and its basic policies (paper §IV-A2).

:class:`FineWriteEngine` owns the mechanics every PCMap policy shares:

* issuing a write that touches only its essential-word chips (plus the
  ECC/PCC word updates, optionally deferred for RoW's two-step write);
* the in-flight write budget (the DIMM register's finite command
  buffering, Figure 7);
* the **write-engine token** — one write *group* in array service per
  rank at a time, because the PCM write-power budget serialises array
  writes rank-wide (DESIGN.md §5);
* the ``Status`` poll of the DIMM register's busy flags (§IV-D1): every
  fine or silent write starts ``status_poll_ticks`` after the scheduler
  picks it, while the flags themselves are the chips' busy times in
  :class:`~repro.memory.rank.RankState`;
* the oldest-*ready*-first head scan that replaces the baseline's FIFO.

Two chain policies live here because they are pure engine drivers:

* :class:`SilentWritePolicy` — zero-dirty write-backs (the chips'
  read-before-write finds nothing to change) cost one array read and
  open a zero-activity window so they stay in the IRLP average;
* :class:`FineWritePolicy` — the fallback plain fine-grained write of
  the head, holding the engine token through its full service.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.memory.address import DecodedAddress
from repro.memory.bus import BusDirection
from repro.memory.controller import NO_WAKE
from repro.memory.policy import BaseSchedulerPolicy, WriteContext
from repro.memory.request import MemoryRequest, ServiceClass
from repro.memory.rank import RankState

if TYPE_CHECKING:
    from repro.memory.controller import MemoryController
    from repro.sim.metrics import WriteWindow


class FineWriteEngine:
    """Shared fine-grained write mechanics for one channel controller."""

    def __init__(self, controller: "MemoryController"):
        self.c = controller
        #: Fine-grained writes currently in flight on this channel.
        self.inflight = 0
        #: Tick each rank's write-engine token frees.  Free times only
        #: move forward, like the chips' busy times.
        self.token_free: List[int] = [0] * len(controller.ranks)

    # ------------------------------------------------------------------
    # Write-engine token
    # ------------------------------------------------------------------
    def hold(self, decoded: DecodedAddress, until: int) -> None:
        """Extend the engine-token reservation to ``until``."""
        if until > self.token_free[decoded.rank]:
            self.token_free[decoded.rank] = until

    def select_candidate(self, now: int) -> Optional[WriteContext]:
        """Oldest-*ready*-first over the write queue.

        Strict FIFO would stall whenever the head's (rotated) chips are
        still finishing an earlier window's ECC/PCC update even though
        younger writes could proceed on idle chips.  The write-engine
        token gates dirty writes only; silent (zero-dirty) candidates
        need their data chips readable, not the engine.

        Skips entries and whole scans by their ready bounds exactly as
        the read scan does (``MemoryController._try_issue_read``).  A
        request's bound covers its chips only; dirty writes add the
        engine token here, whose free time also only moves forward.
        """
        c = self.c
        if self.inflight >= c.config.max_inflight_writes:
            return None  # completions will re-kick
        write_q = c.write_q
        cut = c._wake_time
        lowest = write_q.scan_bound
        if lowest > now and lowest >= cut:
            return None
        lowest = NO_WAKE
        ranks = c.ranks
        token_free = self.token_free
        for req in write_q.pending:
            decoded = req.decoded
            token = token_free[decoded.rank] if req.dirty_mask else 0
            ready = req.ready_bound
            if token > ready:
                ready = token
            if ready > now and ready >= cut:
                if ready < lowest:
                    lowest = ready
                continue
            rank = ranks[decoded.rank]
            if req.dirty_mask:
                ready = rank.write_ready_time(req.chips, decoded.bank)
            else:
                ready = rank.read_ready_time(req.chips, decoded.bank)
            req.ready_bound = ready
            if token > ready:
                ready = token
            if ready <= now:
                return WriteContext(now, req, decoded)
            if ready < lowest:
                lowest = ready
                if ready < cut:
                    cut = ready
        write_q.scan_bound = lowest
        c._wake_time = cut
        return None

    # ------------------------------------------------------------------
    # Fine-grained writes (§IV-A2)
    # ------------------------------------------------------------------
    def issue_silent_write(
        self, req: MemoryRequest, decoded: DecodedAddress, now: int
    ) -> None:
        """Zero-dirty write-back: read-before-write finds nothing to change.

        The chips still perform the compare, which costs one array read on
        the line's data chips but never engages the write circuitry.
        """
        c = self.c
        rank = c.ranks[decoded.rank]
        chips = c.layout.all_data_chips(decoded.line_address)
        start = max(
            now + c.timing.status_poll_ticks,
            rank.read_ready_time(chips, decoded.bank),
        )
        end = start + c.timing.array_read_ticks
        if c.tracer.enabled:
            rank.log_label = f"Cmp-{req.req_id}"
        rank.reserve_read(chips, decoded.bank, end, decoded.row, start=start)
        req.service_class = ServiceClass.SILENT
        # Zero-activity window: silent write-backs count toward IRLP.
        c._open_window(start, end)
        self.begin_inflight(req, start, end, decoded)

    def issue_fine_write(
        self,
        req: MemoryRequest,
        decoded: DecodedAddress,
        now: int,
        window: "WriteWindow",
        defer_pcc: bool = False,
    ) -> Tuple[int, int, int]:
        """Issue one write touching only its essential-word chips.

        Reserves each dirty chip for transfer + read-before-write + array
        write, the ECC chip for its word update, and the PCC chip either
        immediately or (``defer_pcc``, the RoW two-step) once the data
        step finishes.  Returns ``(start, data_end, service_end)``; the
        service end covers the ECC/PCC updates, which without rotation
        serialise on the fixed code chips and stretch the window exactly
        as the paper's Figure 5(d) shows.

        Chip activity is attributed to ``window`` for IRLP accounting.
        """
        c = self.c
        rank = c.ranks[decoded.rank]
        line = decoded.line_address
        bank, row = decoded.bank, decoded.row
        start = now + c.timing.status_poll_ticks

        data_end = start
        window_start: Optional[int] = None
        for word in req.dirty_words:
            chip = c.layout.data_chip(line, word)
            chip_start = max(start, rank.write_ready[chip])
            _xs, xfer_end = c.bus.reserve_partial(
                chip, BusDirection.WRITE, chip_start
            )
            # The word-write latency includes the chip's internal
            # read-before-write (Figure 5 charges no separate activation).
            array_start = xfer_end
            ticks = c._word_write_ticks(req, word)
            chip_end = array_start + ticks
            if c.tracer.enabled:
                rank.log_label = f"Wr-{req.req_id}"
            rank.reserve_chip_write(chip, bank, chip_end, row, start=array_start)
            c._m_chip_word_writes[chip].inc()
            # Route through _record_activity so concurrent windows (other
            # in-flight writes) see this chip as busy too — IRLP counts
            # every chip serving *some* request during a write window.
            c._record_activity((chip,), array_start, chip_end)
            data_end = max(data_end, chip_end)
            if window_start is None or array_start < window_start:
                window_start = array_start
        window.absorb(window_start if window_start is not None else start, data_end)

        ecc_end = self.issue_code_update(
            rank, c.layout.ecc_chip(line), bank, row, earliest=start
        )
        pcc_chip = c.layout.pcc_chip(line)
        completion = max(data_end, ecc_end)

        if pcc_chip is None:
            window.extend(completion)
            window.note_service_end(completion)
            self.begin_inflight(req, start, completion, decoded)
        elif defer_pcc:
            # RoW step 2: the PCC update starts right after the data step
            # so the chip stays free for reconstruction meanwhile.  The
            # reservation is made *at* data_end (not now) so overlapped
            # reads can use the PCC chip during step 1.
            self.begin_inflight(
                req, start, completion, decoded, hold_completion=True
            )
            # The window may expire at data_end before this step widens
            # it, so it is not final until the step has run.
            c.irlp.hold(window)

            def _step_two() -> None:
                pcc_end = self.issue_code_update(
                    rank, pcc_chip, bank, row, earliest=c.engine.now
                )
                final = max(completion, pcc_end)
                window.extend(final)
                window.note_service_end(final)
                c.irlp.release(window)
                c.engine.call_at(final, self.complete_write, req)

            c.engine.call_at(data_end, _step_two)
        else:
            pcc_end = self.issue_code_update(
                rank, pcc_chip, bank, row, earliest=start
            )
            completion = max(completion, pcc_end)
            window.extend(completion)
            window.note_service_end(completion)
            self.begin_inflight(req, start, completion, decoded)
        return start, data_end, completion

    def issue_code_update(
        self, rank: RankState, chip: int, bank: int, row: int, earliest: int
    ) -> int:
        """Reserve an ECC/PCC word update on ``chip``; returns its end tick.

        The update is a differential PCM word write (cheaper than a full
        data word, see TimingParams.ecc_update_fraction).  Updates queue
        up behind whatever the chip is already doing — this is the
        serialisation that pins down WoW without ECC rotation.
        """
        c = self.c
        chip_start = max(earliest, rank.write_ready[chip])
        _xs, xfer_end = c.bus.reserve_partial(
            chip, BusDirection.WRITE, chip_start
        )
        # ecc_update_ticks is all-inclusive (read-modify-write of the
        # code word), mirroring the data-word write cost model.
        end = xfer_end + c.timing.ecc_update_ticks
        rank.log_label = "code-update"
        rank.reserve_chip_write(chip, bank, end, row, start=xfer_end)
        c._m_chip_word_writes[chip].inc()
        return end

    def begin_inflight(
        self,
        req: MemoryRequest,
        start: int,
        completion: int,
        decoded: DecodedAddress,
        hold_completion: bool = False,
    ) -> None:
        """Common issue bookkeeping; schedules completion unless held.

        The queue entry stays until completion (see the base class note).
        """
        c = self.c
        req.start_service = start
        c.write_q.note_issued(req)
        if c.storage is not None and req.new_words is not None:
            c.storage.write_line(
                decoded.line_address, req.new_words, req.dirty_mask
            )
        self.inflight += 1
        if not hold_completion:
            c.engine.call_at(completion, self.complete_write, req)

    def complete_write(self, req: MemoryRequest) -> None:
        """Free the write's in-flight slot, then complete it."""
        self.inflight -= 1
        self.c._complete_write(req)


class FineEnginePolicy(BaseSchedulerPolicy):
    """A policy driving the controller's fine write engine, bound once."""

    def on_bind(self) -> None:
        c = self.controller
        assert c is not None and c.fine is not None
        self.fine = c.fine


class SilentWritePolicy(FineEnginePolicy):
    """Serve zero-dirty write-backs with a compare-only array read."""

    name = "silent-write"

    def select_write(self, ctx: WriteContext) -> bool:
        if ctx.head.dirty_mask:
            return False
        self.fine.issue_silent_write(ctx.head, ctx.decoded, ctx.now)
        return True


class FineWritePolicy(FineEnginePolicy):
    """Fallback: a plain fine-grained write of the head.

    Holds the write-engine token through the full service (data + code
    updates) — without RoW/WoW nothing overlaps with the write window.
    """

    name = "fine-write"

    def select_write(self, ctx: WriteContext) -> bool:
        assert self.controller is not None
        fine = self.fine
        window = self.controller._open_window(-1, -1)
        _start, _data_end, completion = fine.issue_fine_write(
            ctx.head, ctx.decoded, ctx.now, window=window
        )
        fine.hold(ctx.decoded, completion)
        return True
