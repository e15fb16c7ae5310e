"""RoW — read-over-write scheduling policy (paper §IV-B).

:class:`ReadOverWritePolicy` owns the whole RoW pipeline:

* the **usefulness pre-check** (would any queued read fit the window?);
* the decline bookkeeping mirroring the §IV-D2 predicate's short-circuit
  order, so traces explain every decision;
* the **two-step fine write** (data+ECC now, PCC deferred) that opens the
  window;
* **overlap-read admission** — each queued read either fits without
  touching a write-busy chip (a plain overlapped read) or has exactly one
  data word blocked, reconstructed from the other seven plus the PCC
  parity word (§IV-B2);
* the **deferred SECDED verify** and rollback signalling for
  reconstructed reads (§IV-B3).

Reads arriving while a window is open are admitted immediately through
the ``on_read_enqueued`` hook, which is how the controller-level
``submit`` override of the old monolithic scheduler worked.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.fine import FineEnginePolicy
from repro.memory.address import DecodedAddress
from repro.memory.bus import BusDirection
from repro.memory.policy import ReadAdmission, WriteContext
from repro.memory.request import MemoryRequest, ServiceClass
from repro.sim.metrics import WriteWindow
from repro.telemetry import EventType


class ReadOverWritePolicy(FineEnginePolicy):
    """Open RoW windows over single-essential-word writes and fill them
    with overlapped (possibly reconstructed) reads."""

    name = "row-window"

    def on_bind(self) -> None:
        super().on_bind()
        c = self.controller
        assert c is not None
        metrics = c.telemetry.metrics
        self._m_attempts = metrics.counter("row.attempts")
        self._m_windows = metrics.counter("row.windows")
        self._m_reads = metrics.counter("row.reads")
        self._m_overlap = metrics.counter("row.overlap_reads")
        self._m_rollbacks = metrics.counter("rollbacks")
        self._m_rollbacks_corrupted = metrics.counter("rollbacks.corrupted")
        self._m_verifications = metrics.counter("verifications")
        self._m_declined: Dict[str, object] = {}  # reason -> cached Counter
        # The currently open RoW window per rank (window, reads issued);
        # reads arriving while it is open are overlapped immediately.
        self._active_window: List[Optional[WriteWindow]] = [
            None
        ] * len(c.ranks)
        self._active_reads = [0] * len(c.ranks)

    # ==================================================================
    # Write step (§IV-D2: RoW first, when it would serve a read)
    # ==================================================================
    def select_write(self, ctx: WriteContext) -> bool:
        c = self.controller
        assert c is not None
        head, decoded, now = ctx.head, ctx.decoded, ctx.now
        # The decline reason mirrors the short-circuit order of the
        # scheduling predicate (§IV-D2) so traces explain decisions.
        if head.dirty_count > c.config.row_max_essential_words:
            decline = "too-many-essential-words"
        elif c.read_q.empty:
            decline = "no-queued-reads"
        elif c.config.enable_wow and c.write_q.above_high_watermark:
            # Under critical write pressure a WoW group moves more
            # data than a RoW window; prefer RoW once off-peak.
            decline = "write-pressure"
        elif not self.window_useful(head, decoded, now):
            decline = "no-overlappable-read"
        else:
            decline = ""
        self._m_attempts.inc()
        if c.tracer.enabled:
            c.tracer.emit(
                EventType.ROW_ATTEMPT,
                tick=now,
                channel=c.channel_id,
                rank=decoded.rank,
                req_id=head.req_id,
            )
        if decline:
            self._declined(decline)
            if c.tracer.enabled:
                c.tracer.emit(
                    EventType.ROW_DECLINE,
                    tick=now,
                    channel=c.channel_id,
                    rank=decoded.rank,
                    req_id=head.req_id,
                    reason=decline,
                )
            return False  # fall through to WoW / plain fine write
        data_end = self._issue_window(head, decoded, now)
        # The engine frees at the *data* end: the PCC step runs on the
        # PCC chip only, so the next write's chips proceed concurrently.
        self.fine.hold(decoded, data_end)
        return True

    def _declined(self, reason: str) -> None:
        """Bump the per-reason decline counter (cached per reason)."""
        c = self.controller
        assert c is not None
        counter = self._m_declined.get(reason)
        if counter is None:
            counter = c.telemetry.metrics.counter(f"row.declined.{reason}")
            self._m_declined[reason] = counter
        counter.inc()

    def window_useful(
        self, head: MemoryRequest, decoded: DecodedAddress, now: int
    ) -> bool:
        """Would opening a RoW window for ``head`` serve any queued read?

        Cheap pre-check so a WoW slot is not wasted on a window no read
        can join (e.g. every queued read needs two busy chips).
        """
        c = self.controller
        assert c is not None
        rank = c.ranks[decoded.rank]
        head_chips = set(
            c.layout.dirty_chips(decoded.line_address, head.dirty_mask)
        )
        busy = set(rank.busy_chips_at(now)) | head_chips
        for req in c.read_q:
            read_decoded = req.decoded
            if read_decoded.rank != decoded.rank:
                continue
            line = read_decoded.line_address
            word_chips = c.layout.all_data_chips(line)
            blocked = [chip for chip in word_chips if chip in busy]
            pcc_chip = c.layout.pcc_chip(line)
            ecc_chip = c.layout.ecc_chip(line)
            if not blocked and ecc_chip not in busy:
                return True  # a plain overlapped read fits
            if (
                len(blocked) == 1
                and pcc_chip is not None
                and pcc_chip not in busy
            ):
                return True  # reconstruction fits
        return False

    def _issue_window(
        self, head: MemoryRequest, decoded: DecodedAddress, now: int
    ) -> int:
        """Two-step fine write plus overlapped reads; returns data end."""
        c = self.controller
        assert c is not None
        window = c._open_window(-1, -1)
        _start, data_end, _service_end = self.fine.issue_fine_write(
            head, decoded, now, window=window, defer_pcc=True
        )
        self._m_windows.inc()
        if c.tracer.enabled:
            c.tracer.emit(
                EventType.ROW_SERVE,
                tick=now,
                channel=c.channel_id,
                rank=decoded.rank,
                req_id=head.req_id,
                start=window.start,
                end=window.end,
            )
        self._active_window[decoded.rank] = window
        self._active_reads[decoded.rank] = 0
        self._overlap_reads(decoded.rank, window, now)
        return data_end

    # ==================================================================
    # Read intake: reads arriving mid-window join the open RoW window
    # ==================================================================
    def on_read_enqueued(self, request: MemoryRequest) -> None:
        c = self.controller
        assert c is not None
        if request not in c.read_q.entries:
            return  # already issued or forwarded by the base path
        decoded = request.decoded
        window = self._active_window[decoded.rank]
        if window is None or window.end <= c.engine.now:
            self._active_window[decoded.rank] = None
            return
        self._overlap_reads(decoded.rank, window, c.engine.now)

    # ==================================================================
    # Overlap-read admission (§IV-B2)
    # ==================================================================
    def admit_overlap_read(
        self, window: WriteWindow, request: MemoryRequest, now: int
    ) -> Optional[ReadAdmission]:
        """Plan serving ``request`` inside ``window``, or None to refuse.

        Overlapped reads must *finish* inside the window (plus the PCC
        step-2 tail, when the data chips are free anyway) so their own
        tails never stall the next write service.
        """
        c = self.controller
        assert c is not None
        decoded = request.decoded
        rank = c.ranks[decoded.rank]
        line = decoded.line_address
        word_chips = c.layout.all_data_chips(line)
        ecc_chip = c.layout.ecc_chip(line)
        pcc_chip = c.layout.pcc_chip(line)

        read_cost = (
            rank.activation_ticks(word_chips, decoded.bank, decoded.row)
            + c.timing.read_io_ticks
        )
        deadline = window.end + c.timing.ecc_update_ticks

        # Option A: wait for every chip (leftover ECC/PCC updates from
        # earlier windows clear quickly) and read normally.
        normal_chips = word_chips + (ecc_chip,)
        normal_start = max(
            now, rank.read_ready_time(normal_chips, decoded.bank)
        )
        # Option B: skip the single most-contended data chip (the one
        # the ongoing write holds) and reconstruct its word from PCC.
        recon_start: Optional[int] = None
        recon_chips: Tuple[int, ...] = ()
        missing: Optional[int] = None
        if pcc_chip is not None:
            # The first data word whose chip stays write-busy longest.
            write_busy = rank.write_busy
            skip, latest = 0, -1
            for w, chip in enumerate(word_chips):
                if write_busy[chip] > latest:
                    skip, latest = w, write_busy[chip]
            missing = skip
            recon_chips = word_chips[:skip] + word_chips[skip + 1:] + (pcc_chip,)
            candidate = max(
                now, rank.read_ready_time(recon_chips, decoded.bank)
            )
            # Reconstruction only pays off while the skipped chip is
            # actually still write-busy at that start time.
            if latest > candidate:
                recon_start = candidate

        if recon_start is not None and recon_start < normal_start:
            if recon_start + read_cost > deadline:
                return None  # a late reconstruction helps nobody
            return ReadAdmission(chips=recon_chips, missing_word=missing)
        if normal_start + read_cost <= deadline:
            return ReadAdmission(chips=normal_chips)
        return None

    def _overlap_reads(
        self, rank_index: int, window: WriteWindow, now: int
    ) -> None:
        """Serve reads concurrently with the open write window.

        Walks the read queue oldest-first and issues each read
        :meth:`admit_overlap_read` plans.
        """
        c = self.controller
        assert c is not None
        issued = 0
        for req in list(c.read_q.entries):
            if (
                self._active_reads[rank_index] + issued
                >= c.config.row_max_overlapped_reads
            ):
                break
            if req not in c.read_q.entries:
                # Issuing a read frees queue space, which can re-enter
                # this method through the CPU's back-pressure waiter; the
                # nested call may have issued entries of our snapshot.
                continue
            decoded = req.decoded
            if decoded.rank != rank_index:
                continue
            plan = self.admit_overlap_read(window, req, now)
            if plan is None:
                continue
            self._issue_overlap_read(
                req, decoded, plan.chips, plan.missing_word, now
            )
            if plan.missing_word is not None:
                self._m_reads.inc()
            else:
                self._m_overlap.inc()
            issued += 1
        self._active_reads[rank_index] += issued

    def _issue_overlap_read(
        self,
        req: MemoryRequest,
        decoded: DecodedAddress,
        chips: Tuple[int, ...],
        missing_word: Optional[int],
        now: int,
    ) -> None:
        """Issue a read over the partial buses, reconstructing if needed."""
        c = self.controller
        assert c is not None
        rank = c.ranks[decoded.rank]
        line, bank, row = decoded.line_address, decoded.bank, decoded.row
        start = max(now, rank.read_ready_time(chips, bank))
        activation = rank.activation_ticks(chips, bank, row)
        cas_ready = start + activation + c._tcl_ticks
        end = cas_ready
        for chip in chips:
            _xs, xfer_end = c.bus.reserve_partial(
                chip, BusDirection.READ, cas_ready
            )
            end = max(end, xfer_end)
        if c.tracer.enabled:
            rank.log_label = f"Rd-{req.req_id}"
        rank.reserve_read(chips, bank, end, row, start=start)

        req.start_service = start
        req.delayed_by_write = True  # it arrived while a write was draining
        if c.tracer.enabled:
            c.tracer.emit(
                EventType.REQUEST_ISSUE,
                tick=now,
                channel=c.channel_id,
                rank=decoded.rank,
                bank=bank,
                req_id=req.req_id,
                start=start,
                end=end,
                kind="read",
                reason=(
                    "row-overlap" if missing_word is None
                    else "row-reconstruction"
                ),
            )
        self._record_data_read_activity(decoded, missing_word, start, end)

        if missing_word is None:
            req.service_class = ServiceClass.NORMAL
            if c.storage is not None:
                req.data_words = c.storage.read_line(line).words
            c.read_q.remove(req)
            c.engine.call_at(end, c._complete_read, req)
            return

        req.service_class = ServiceClass.ROW_OVERLAP
        if c.storage is not None:
            req.data_words = c.storage.reconstruct_line(line, missing_word)
        c.read_q.remove(req)
        c.engine.call_at(end, c._complete_read, req)
        self._schedule_verify(req, decoded, missing_word, end)

    def _record_data_read_activity(
        self,
        decoded: DecodedAddress,
        missing_word: Optional[int],
        start: int,
        end: int,
    ) -> None:
        """IRLP accounting: the data chips a read keeps busy."""
        c = self.controller
        assert c is not None
        chips = tuple(
            chip
            for w, chip in enumerate(
                c.layout.all_data_chips(decoded.line_address)
            )
            if w != missing_word
        )
        c._record_activity(chips, start, end)

    # ------------------------------------------------------------------
    # Deferred verification and rollback (§IV-B3)
    # ------------------------------------------------------------------
    def _schedule_verify(
        self,
        req: MemoryRequest,
        decoded: DecodedAddress,
        missing_word: int,
        read_end: int,
    ) -> None:
        """Arrange the SECDED check once the busy chip frees up."""
        c = self.controller
        assert c is not None
        rank = c.ranks[decoded.rank]
        chip = c.layout.data_chip(decoded.line_address, missing_word)
        ecc_chip = c.layout.ecc_chip(decoded.line_address)

        def _run_verify() -> None:
            now = c.engine.now
            chips = (chip, ecc_chip)
            start = max(now, rank.read_ready_time(chips, decoded.bank))
            activation = rank.activation_ticks(
                chips, decoded.bank, decoded.row
            )
            end = start + activation + c.timing.read_io_ticks
            if c.tracer.enabled:
                rank.log_label = f"Vfy-{req.req_id}"
            rank.reserve_read(chips, decoded.bank, end, decoded.row, start=start)
            c.engine.call_at(
                end, self._finish_verify, req, decoded, missing_word
            )

        wake_at = max(read_end, rank.write_busy[chip], c.engine.now)
        c.engine.call_at(wake_at, _run_verify)

    def _finish_verify(
        self, req: MemoryRequest, decoded: DecodedAddress, missing_word: int
    ) -> None:
        """Complete the deferred check; decide whether a rollback is due."""
        c = self.controller
        assert c is not None
        now = c.engine.now
        req.verify_completion = now
        self._m_verifications.inc()

        corrupted = False
        if c.storage is not None and req.data_words is not None:
            corrupted = c.storage.word_corrupted(
                decoded.line_address, missing_word,
                req.data_words[missing_word],
            )
        # Statistical model: the CPU consumed the value before this check
        # with the workload's probability (Table IV's rollback rates).
        consumed_early = c.rng.random() < c.config.row_rollback_rate
        rollback = corrupted or consumed_early
        if rollback:
            req.rolled_back = True
            self._m_rollbacks.inc()
            if corrupted:
                # Real data corruption caught by the deferred verify, as
                # opposed to the statistical consumed-early model.
                self._m_rollbacks_corrupted.inc()
            if c.tracer.enabled:
                c.tracer.emit(
                    EventType.ROLLBACK,
                    tick=now,
                    channel=c.channel_id,
                    rank=decoded.rank,
                    req_id=req.req_id,
                    reason="corrupted" if corrupted else "consumed-early",
                )
        if req.on_verify is not None:
            req.on_verify(req, rollback)
        c._kick()
