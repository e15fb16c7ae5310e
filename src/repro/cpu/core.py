"""Trace-driven core model.

An interval-style stand-in for the paper's out-of-order cores: the core
executes instructions at a base CPI and interacts with main memory through

* **reads** — non-blocking up to ``max_outstanding_reads`` in flight (the
  MLP the OoO window extracts); beyond that the core stalls until a read
  returns.  A full read queue also stalls it (back-pressure).
* **write-backs** — fire-and-forget, but a full write queue stalls the
  core (the LLC cannot evict), which is how slow PCM write drains reach
  IPC.
* **rollbacks** — a failed RoW verification charges the flush+refetch
  penalty from :class:`repro.cpu.rollback.RollbackModel`.

This captures exactly the couplings PCMap changes; everything else about
the core (its base CPI) is held constant across systems, so IPC *ratios*
— what the paper reports — are meaningful.

The level below is any :class:`~repro.memory.port.MemoryPort` — the PCM
:class:`~repro.memory.memsys.MainMemory` directly (the default), or the
timed DRAM-cache front end when ``SimulationParams.front_end`` enables
it; the core is identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.cpu.rollback import RollbackModel
from repro.memory.port import MemoryPort
from repro.memory.request import MemoryRequest, RequestKind
from repro.sim.engine import Engine, ns_to_ticks
from repro.trace.record import AccessKind, TraceRecord


@dataclass(frozen=True)
class CoreParams:
    """Per-core microarchitectural parameters."""

    cpu_ghz: float = 2.5            #: Table I clock
    #: CPI with an ideal main memory.  Traces are post-LLC, so this folds
    #: in the L1/L2/DRAM-cache hit latencies the paper's full-hierarchy
    #: cores pay; 2.0 puts per-core demand in the regime of gem5 OoO
    #: cores running memory-intense SPEC/PARSEC (IPC 0.3-0.7 per core).
    base_cpi: float = 2.0
    max_outstanding_reads: int = 4  #: memory-level parallelism window
    rollback_flush_cycles: int = 40
    rollback_refetch_cycles: int = 60

    @property
    def cycle_ticks(self) -> int:
        """Engine ticks per CPU cycle."""
        return ns_to_ticks(1.0 / self.cpu_ghz)


class TraceCore:
    """One core replaying a (possibly endless) trace of memory events."""

    def __init__(
        self,
        engine: Engine,
        core_id: int,
        records: Iterator[TraceRecord],
        memory: MemoryPort,
        params: CoreParams,
        instruction_limit: int,
    ):
        self.engine = engine
        self.core_id = core_id
        self.records = records
        self.memory = memory
        self.params = params
        self.instruction_limit = instruction_limit
        self.rollback_model = RollbackModel(
            params.rollback_flush_cycles, params.rollback_refetch_cycles
        )

        self.instructions_retired = 0
        self.reads_issued = 0
        self.writes_issued = 0
        self.start_tick: Optional[int] = None
        self.finish_tick: Optional[int] = None

        self._outstanding_reads = 0
        self._pending: Optional[TraceRecord] = None
        self._pending_wanted_at = -1  #: first tick the pending op was tried
        self._waiting_for_read = False
        self._next_req_id = core_id << 32
        self._penalty_ticks_owed = 0
        #: Fired once when the core finishes (Multicore's done counter).
        self.on_finish: Optional[Callable[[], None]] = None
        # Hoisted timing constants: ``cycle_ticks`` is a computed
        # property and sits in a per-record multiply.  The product is
        # NOT pre-folded — ``gap * cpi * ticks`` must keep its original
        # left-to-right float evaluation so delays stay bit-identical.
        self._base_cpi = params.base_cpi
        self._cycle_ticks = params.cycle_ticks

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.finish_tick is not None

    @property
    def cpu_cycles(self) -> int:
        """Cycles between start and finish (valid when done)."""
        if self.start_tick is None or self.finish_tick is None:
            raise ValueError("core has not finished")
        elapsed = self.finish_tick - self.start_tick
        return max(1, elapsed // self.params.cycle_ticks)

    @property
    def ipc(self) -> float:
        return self.instructions_retired / self.cpu_cycles

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin execution at the current engine time."""
        self.start_tick = self.engine.now
        self.engine.call_after(0, self._advance)

    def _finish(self) -> None:
        if self.finish_tick is None:
            self.finish_tick = self.engine.now
            if self.on_finish is not None:
                self.on_finish()

    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Consume the next trace record after its instruction gap."""
        if self.done:
            return
        if self.instructions_retired >= self.instruction_limit:
            self._finish()
            return
        record = self._pending
        self._pending = None
        if record is None:
            record = next(self.records, None)
            if record is None:
                # Finite trace exhausted: retire the remaining budget at
                # base CPI and stop.
                remaining = self.instruction_limit - self.instructions_retired
                self.instructions_retired = self.instruction_limit
                delay = int(
                    remaining * self._base_cpi * self._cycle_ticks
                )
                self.engine.call_after(delay, self._finish)
                return
            gap = min(
                record.gap_instructions,
                self.instruction_limit - self.instructions_retired,
            )
            self.instructions_retired += gap
            delay = int(gap * self._base_cpi * self._cycle_ticks)
            delay += self._penalty_ticks_owed
            self._penalty_ticks_owed = 0
            self._pending = record
            self.engine.call_after(delay, self._issue)
            return
        self._pending = record
        self._issue()

    def _issue(self) -> None:
        """Try to hand the pending record to the memory system."""
        if self.done:
            return
        record = self._pending
        assert record is not None
        if self._pending_wanted_at < 0:
            self._pending_wanted_at = self.engine.now
        if record.kind is AccessKind.READ:
            self._issue_read(record)
        elif record.kind is AccessKind.WRITE_BACK:
            self._issue_write(record)
        else:
            raise ValueError(
                f"TraceCore handles memory-level records only, got {record.kind}"
            )

    # ------------------------------------------------------------------
    def _issue_read(self, record: TraceRecord) -> None:
        if self._outstanding_reads >= self.params.max_outstanding_reads:
            # OoO window saturated: stall until some read returns.
            self._waiting_for_read = True
            return
        if not self.memory.can_accept(RequestKind.READ, record.address):
            self.memory.wait_for_space(
                RequestKind.READ, record.address, self._queue_space_available
            )
            return
        request = MemoryRequest(
            req_id=self._bump_req_id(),
            kind=RequestKind.READ,
            address=record.address,
            core_id=self.core_id,
            requested_at=self._pending_wanted_at,
        )
        request.on_complete = self._on_read_complete
        request.on_verify = self._on_verify
        self._outstanding_reads += 1
        self.reads_issued += 1
        self._pending = None
        self._pending_wanted_at = -1
        self.memory.submit(request)
        self._advance()

    def _issue_write(self, record: TraceRecord) -> None:
        if not self.memory.can_accept(RequestKind.WRITE, record.address):
            self.memory.wait_for_space(
                RequestKind.WRITE, record.address, self._queue_space_available
            )
            return
        request = MemoryRequest(
            req_id=self._bump_req_id(),
            kind=RequestKind.WRITE,
            address=record.address,
            core_id=self.core_id,
            dirty_mask=record.dirty_mask,
            new_words=record.new_words,
        )
        self.writes_issued += 1
        self._pending = None
        self._pending_wanted_at = -1
        self.memory.submit(request)
        self._advance()

    def _bump_req_id(self) -> int:
        self._next_req_id += 1
        return self._next_req_id

    # ------------------------------------------------------------------
    # Unblocking callbacks
    # ------------------------------------------------------------------
    def _queue_space_available(self) -> None:
        if self.done or self._pending is None:
            return
        self._issue()

    def _on_read_complete(self, request: MemoryRequest) -> None:
        self._outstanding_reads -= 1
        if self._waiting_for_read:
            self._waiting_for_read = False
            self._issue()

    def _on_verify(self, request: MemoryRequest, rollback: bool) -> None:
        if rollback:
            penalty_cycles = self.rollback_model.on_rollback()
            self._penalty_ticks_owed += (
                penalty_cycles * self.params.cycle_ticks
            )
