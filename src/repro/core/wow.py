"""WoW — write-over-write consolidation policy (paper §IV-C).

:class:`WriteOverWritePolicy` packs the head write together with younger
writes whose (rotated) dirty chip sets are pairwise disjoint and idle,
so one write-engine service slot moves several lines at once.  Admission
is a **two-pass greedy**: the first pass requires the candidates' ECC/PCC
chips to be disjoint too (their whole service parallelises — what
rotation makes possible); the second pass admits members whose data chips
are free but whose code updates collide and serialise within the window
(Figure 5(d), the no-rotation behaviour).

The policy always claims the step (a one-member "group" is just the plain
fine write), matching §IV-D2 where WoW is the unconditional fallback of
a declined RoW attempt.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.fine import FineEnginePolicy
from repro.memory.address import DecodedAddress
from repro.memory.policy import WriteContext
from repro.memory.request import MemoryRequest, ServiceClass
from repro.telemetry import EventType


class WriteOverWritePolicy(FineEnginePolicy):
    """Consolidate chip-disjoint writes into one service window."""

    name = "wow-group"

    def on_bind(self) -> None:
        super().on_bind()
        c = self.controller
        assert c is not None
        metrics = c.telemetry.metrics
        self._m_groups = metrics.counter("wow.groups")
        self._m_members = metrics.counter("wow.member_writes")

    def select_write(self, ctx: WriteContext) -> bool:
        group_service_end = self._issue_group(ctx.head, ctx.decoded, ctx.now)
        # The write engine is held through the serialised ECC/PCC updates
        # of the whole group (Figure 5(d)): without rotation this is what
        # limits WoW's bandwidth gain.
        self.fine.hold(ctx.decoded, group_service_end)
        return True

    def _issue_group(
        self, head: MemoryRequest, decoded_head: DecodedAddress, now: int
    ) -> int:
        """Consolidate chip-disjoint writes; returns the group's data end.

        Members may target any bank of the seed's rank — §IV-D2's policy
        selects "one or more write requests that can be parallelized with
        [the] on-going write", constrained only by pairwise-disjoint
        (rotated) dirty-chip sets that are idle now.
        """
        c = self.controller
        assert c is not None
        rank = c.ranks[decoded_head.rank]
        head_data, head_code = head.wow_masks or self._chip_masks(head)
        members: List[Tuple[MemoryRequest, DecodedAddress]] = [
            (head, decoded_head)
        ]
        # Admitted members (the head included) are never re-admitted:
        # their data chips are already in ``occupied``.
        occupied = head_data | head_code
        room = min(
            c.config.wow_max_group,
            c.config.max_inflight_writes - self.fine.inflight,
        ) - 1
        head_rank = decoded_head.rank

        for require_code_disjoint in (True, False):
            # No queue mutation happens during admission (members issue
            # after both passes), so iterate the pending FIFO directly.
            for req in c.write_q.pending:
                if room <= 0:
                    break
                # A ready bound past ``now`` already rules the write out.
                if not req.dirty_mask or req.ready_bound > now:
                    continue
                decoded = req.decoded
                if decoded.rank != head_rank:
                    continue
                data, code = req.wow_masks or self._chip_masks(req)
                if occupied & data:
                    continue
                if require_code_disjoint and occupied & code:
                    continue
                ready = rank.write_ready_time(req.chips, decoded.bank)
                req.ready_bound = ready
                if ready > now:
                    continue
                members.append((req, decoded))
                room -= 1
                occupied |= data | code

        window = c._open_window(-1, -1)
        grouped = len(members) > 1
        if grouped and c.tracer.enabled:
            c.tracer.emit(
                EventType.WOW_OPEN,
                tick=now,
                channel=c.channel_id,
                rank=decoded_head.rank,
                req_id=head.req_id,
                extra={"group_size": len(members)},
            )
            for req, _decoded in members[1:]:
                c.tracer.emit(
                    EventType.WOW_JOIN,
                    tick=now,
                    channel=c.channel_id,
                    rank=decoded_head.rank,
                    req_id=req.req_id,
                )
        group_service_end = now
        for req, decoded in members:
            if grouped:
                req.service_class = ServiceClass.WOW_MEMBER
            _start, _data_end, service_end = self.fine.issue_fine_write(
                req, decoded, now, window=window
            )
            group_service_end = max(group_service_end, service_end)
        if grouped:
            self._m_groups.inc()
            self._m_members.inc(len(members))
            if c.tracer.enabled:
                c.tracer.emit(
                    EventType.WOW_CLOSE,
                    tick=now,
                    channel=c.channel_id,
                    rank=decoded_head.rank,
                    req_id=head.req_id,
                    end=group_service_end,
                    extra={"group_size": len(members)},
                )
        return group_service_end

    def _chip_masks(self, req: MemoryRequest) -> Tuple[int, int]:
        """``(data, code)`` chip bit masks of a queued write, cached on it."""
        c = self.controller
        assert c is not None
        line = req.decoded.line_address
        data = 0
        for chip in req.chips:
            data |= 1 << chip
        code = 1 << c.layout.ecc_chip(line)
        pcc = c.layout.pcc_chip(line)
        if pcc is not None:
            code |= 1 << pcc
        req.wow_masks = (data, code)
        return data, code
