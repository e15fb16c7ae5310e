"""Write pausing — the prior-art comparator (paper §VII).

Qureshi et al. (HPCA 2010, the paper's [11]) attack the same problem —
reads stuck behind long PCM writes — by letting reads *preempt* an
ongoing write: the write is paused at a quantum boundary, the reads are
served, and the write resumes with a small overhead.  PCMap §VII contrasts
itself with this line of work (overlap instead of preemption), so this
repository implements it as an additional baseline.

Model: a coarse write is served in ``pause_quantum`` slices.  At each
slice boundary, if reads are queued, the write has pause budget left and
writes are not urgent (no active drain), the write yields the rank for
roughly two read services and then resumes with a small overhead.  Under
drain pressure it degenerates to the baseline policy, as in the original
scheme's write-queue threshold.

The mechanism is a :class:`~repro.memory.policy.SchedulerPolicy`:
``pre_select`` owns the paused/active gating (it must run before a head
candidate is even picked) and ``select_write`` issues the segmented
coarse write.  Its chain discipline flags are both False — the whole
point of pausing is issuing and resuming writes *under* pending reads,
and it never flags queued reads as drain-delayed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.memory.address import DecodedAddress
from repro.memory.bus import BusDirection
from repro.memory.policy import BaseSchedulerPolicy, WriteContext
from repro.memory.request import MemoryRequest, ServiceClass
from repro.telemetry import EventType


@dataclass
class _PausedWrite:
    """A write mid-service with array time still owed."""

    request: MemoryRequest
    decoded: DecodedAddress
    remaining_ticks: int
    pauses_used: int
    deadline: int  #: tick by which the write resumes even under reads


class WritePausingPolicy(BaseSchedulerPolicy):
    """Baseline coarse writes + read-preempts-write (no PCMap mechanisms)."""

    name = "write-pausing"
    reads_block_writes = False
    mark_reads_delayed_in_drain = False

    #: Array-time slice between pause opportunities (1/4 write latency,
    #: mirroring the iteration granularity of the original scheme).
    PAUSE_QUANTUM_FRACTION = 0.25
    #: Cycles of overhead to re-ramp the write circuitry on resume.
    RESUME_OVERHEAD_CYCLES = 4
    #: Maximum pauses per write (starvation bound).
    MAX_PAUSES = 4

    def __init__(self) -> None:
        super().__init__()
        self._paused: Optional[_PausedWrite] = None
        self._write_active = False

    def on_bind(self) -> None:
        c = self.controller
        assert c is not None
        self._m_write_pauses = c.telemetry.metrics.counter("write.pauses")

    # ------------------------------------------------------------------
    @property
    def _quantum_ticks(self) -> int:
        c = self.controller
        assert c is not None
        return max(
            1,
            int(c.timing.array_write_ticks * self.PAUSE_QUANTUM_FRACTION),
        )

    # ------------------------------------------------------------------
    # The write step
    # ------------------------------------------------------------------
    def pre_select(self, now: int) -> Optional[bool]:
        """Resume/park paused writes and gate on the active one.

        As in the original scheme, preemption is disallowed while the
        write queue is above its high watermark — otherwise incessant
        reads would starve the writes and back-pressure the cores.
        """
        c = self.controller
        assert c is not None
        if self._paused is not None:
            expired = now >= self._paused.deadline
            if not c.drain and not expired and not c.read_q.empty:
                # Reads exist; give them the rank until the pause budget
                # runs out (a pause covers the preempting reads, it is
                # not an open-ended yield).
                c._note_wake(self._paused.deadline)
                return False
            return self._resume_paused(now)
        if self._write_active:
            return False  # one segmented write in service at a time
        return None

    def select_write(self, ctx: WriteContext) -> bool:
        self._issue_segmented(ctx.head, ctx.decoded, ctx.now)
        return True

    # ------------------------------------------------------------------
    # Segmented coarse write
    # ------------------------------------------------------------------
    def _issue_segmented(
        self, req: MemoryRequest, decoded: DecodedAddress, now: int
    ) -> None:
        c = self.controller
        assert c is not None
        rank = c.ranks[decoded.rank]
        chips = c._coarse_chips
        start = max(now, rank.write_ready_time(chips, decoded.bank))
        _bus_start, bus_end = c.bus.reserve(BusDirection.WRITE, start)
        array_start = bus_end

        if req.dirty_count == 0:
            req.service_class = ServiceClass.SILENT
            end = array_start + c.timing.array_read_ticks
            c._open_window(array_start, end)
            rank.reserve_write(chips, decoded.bank, end, decoded.row, start=array_start)
            c._finish_write(req, start, end, decoded)
            return

        total = max(c._word_write_ticks(req, w) for w in req.dirty_words)
        c._open_window(array_start, array_start + total)
        for word in req.dirty_words:
            chip = c.layout.data_chip(decoded.line_address, word)
            c._record_activity((chip,), array_start, array_start + total)
            c._m_chip_word_writes[chip].inc()
        if c.geometry.has_ecc_chip:
            c._m_chip_word_writes[c.geometry.ecc_chip_index].inc()

        req.start_service = start
        c.write_q.note_issued(req)
        if c.storage is not None and req.new_words is not None:
            c.storage.write_line(
                decoded.line_address, req.new_words, req.dirty_mask
            )
        self._write_active = True
        self._run_segment(req, decoded, array_start, total, pauses_used=0)

    def _run_segment(
        self,
        req: MemoryRequest,
        decoded: DecodedAddress,
        seg_start: int,
        remaining: int,
        pauses_used: int,
    ) -> None:
        c = self.controller
        assert c is not None
        rank = c.ranks[decoded.rank]
        chips = c._coarse_chips
        quantum = min(self._quantum_ticks, remaining)
        end = seg_start + quantum
        if c.tracer.enabled:
            rank.log_label = f"Wr-{req.req_id}"
        rank.reserve_write(chips, decoded.bank, end, decoded.row, start=seg_start)

        def at_boundary() -> None:
            left = remaining - quantum
            if left <= 0:
                self._write_active = False
                c._complete_write(req)
                return
            if (
                not c.read_q.empty
                and pauses_used < self.MAX_PAUSES
                and not c.drain
            ):
                # Yield the rank for roughly two read services.
                pause_budget = 2 * (
                    c.timing.array_read_ticks + c.timing.read_io_ticks
                )
                self._paused = _PausedWrite(
                    req, decoded, left, pauses_used + 1, end + pause_budget
                )
                self._m_write_pauses.inc()
                if c.tracer.enabled:
                    c.tracer.emit(
                        EventType.WRITE_PAUSE,
                        tick=c.engine.now,
                        channel=c.channel_id,
                        rank=decoded.rank,
                        req_id=req.req_id,
                        end=end + pause_budget,
                        extra={"remaining_ticks": left,
                               "pauses_used": pauses_used + 1},
                    )
                c.engine.call_at(end + pause_budget, c._kick)
                c._kick()
                return
            self._run_segment(req, decoded, end, left, pauses_used)

        c.engine.call_at(end, at_boundary)

    def _resume_paused(self, now: int) -> bool:
        c = self.controller
        assert c is not None
        paused = self._paused
        assert paused is not None
        rank = c.ranks[paused.decoded.rank]
        chips = c._coarse_chips
        ready = rank.write_ready_time(chips, paused.decoded.bank)
        if ready > now:
            c._note_wake(ready)
            return False
        self._paused = None
        resume_at = now + c.timing.cycles(self.RESUME_OVERHEAD_CYCLES)
        if c.tracer.enabled:
            c.tracer.emit(
                EventType.WRITE_RESUME,
                tick=now,
                channel=c.channel_id,
                rank=paused.decoded.rank,
                req_id=paused.request.req_id,
                start=resume_at,
                extra={"remaining_ticks": paused.remaining_ticks},
            )
        self._run_segment(
            paused.request,
            paused.decoded,
            resume_at,
            paused.remaining_ticks,
            paused.pauses_used,
        )
        return True
