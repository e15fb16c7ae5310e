"""PCMap channel controller: a thin composition root (paper §IV).

The scheduling logic that used to live here as one 767-line monolith is
now a policy chain (see :mod:`repro.memory.policy`):

* :mod:`repro.core.fine` — the fine-grained write engine plus the
  silent-write and plain fine-write policies (§IV-A2);
* :mod:`repro.core.row` — RoW windows, overlap-read admission, deferred
  verify and rollback (§IV-B);
* :mod:`repro.core.wow` — two-pass WoW group admission and service
  (§IV-C).

:func:`repro.core.systems.build_policies` maps the config's feature
flags to the chain, so the §IV-D2 dispatch order (silent -> RoW ->
WoW -> plain fine) is the chain order rather than an if/elif ladder.

What remains here is only what is genuinely per-controller state shared
by every fine-grained policy: the :class:`~repro.core.fine.FineWriteEngine`
(which also charges the DIMM status register's ``Status`` poll, §IV-D1)
and the oldest-*ready*-first write-candidate discipline that replaces the
baseline's strict FIFO.
"""

from __future__ import annotations

from typing import Optional

from repro.core.fine import FineWriteEngine
from repro.memory.controller import NO_WAKE, MemoryController
from repro.memory.policy import PolicyChain, WriteContext
from repro.memory.request import MemoryRequest


class PCMapController(MemoryController):
    """Controller for the five PCMap system variants."""

    def _build_policy_chain(self) -> PolicyChain:
        if not self.config.fine_grained_writes:
            raise ValueError(
                "PCMapController requires fine_grained_writes; "
                "use MemoryController for the baseline"
            )
        # The shared engine the fine-grained policies bind against; it
        # must exist before the chain is composed.
        self.fine = FineWriteEngine(self)
        return super()._build_policy_chain()

    # ==================================================================
    # Write-candidate discipline
    # ==================================================================
    def select_write_candidate(self, now: int) -> Optional[WriteContext]:
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
        fine = self.fine
        if fine.inflight >= self.config.max_inflight_writes:
            return None  # completions will re-kick
        write_q = self.write_q
        cut = self._wake_time
        lowest = write_q.scan_bound
        if lowest > now and lowest >= cut:
            return None
        lowest = NO_WAKE
        ranks = self.ranks
        token_free = fine.token_free
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
        self._wake_time = cut
        return None

    def _complete_write(self, req: MemoryRequest) -> None:
        self.fine.note_write_complete()
        super()._complete_write(req)
