"""Rank resource model: per-chip, per-bank occupancy and row-buffer state.

The central modelling decision (DESIGN.md §5): a PCM chip's write circuitry
is a single-server resource — while a chip is array-writing, it can serve
no other access in *any* bank (this is the premise of the paper: "from the
read queue perspective, these chips are not available as if they are
faulty", §IV-B).  Reads, on the other hand, overlap across banks of a chip
exactly as in DRAM.

The state is one flat table per rank:

* ``write_busy[chip]`` — the chip's write circuitry, exclusive across all
  banks, set by array writes (data words, ECC/PCC updates);
* ``write_ready[chip]`` — running max of the chip's array busy time over
  all banks.  A write reserves its bank's array too, so this is never
  below ``write_busy`` and is the earliest tick a write may start;
* ``array_busy[bank][chip]`` — set by reads and writes touching that bank;
* ``open_row[bank][chip]`` — the row latched in the chip's row buffer.

Every reservation takes the max with its end, so all busy times only move
forward.  A ready time computed once is therefore a lower bound forever
after, which is what lets the schedulers skip requests whose last ready
time is still in the future.

Reservation methods return nothing; callers first query ``*_ready_time``
to decide when an operation may start, then reserve.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.memory.timing import TimingParams
from repro.telemetry.tracer import NULL_TRACER


class RankState:
    """Occupancy and row-buffer table of one rank's chips."""

    def __init__(
        self,
        timing: TimingParams,
        n_chips: int,
        n_banks: int,
        channel: int = 0,
        rank_index: int = 0,
        tracer=NULL_TRACER,
    ):
        self.timing = timing
        self.n_chips = n_chips
        self.n_banks = n_banks
        self.channel = channel
        self.rank_index = rank_index
        self.write_busy: List[int] = [0] * n_chips
        self.write_ready: List[int] = [0] * n_chips
        self.array_busy: List[List[int]] = [[0] * n_chips for _ in range(n_banks)]
        self.open_row: List[List[Optional[int]]] = [
            [None] * n_chips for _ in range(n_banks)
        ]
        #: Label of the next reservation's trace events: a prefix and a
        #: request id (-1 for none) that read back as their ``reason``
        #: (``"Rd-"`` and 7 as ``"Rd-7"``).  Controllers set the pair per
        #: request, and only while tracing is on.
        self.log_label: str = ""
        self.log_id: int = -1
        #: Structured-event tracer, the only record of chip occupancy:
        #: every reservation becomes a ``chip.reserve``/``chip.release``
        #: pair per chip when tracing is on.
        self.tracer = tracer

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def read_ready_time(self, chips: Iterable[int], bank: int) -> int:
        """Earliest tick a striped read over ``chips`` may start."""
        array_busy = self.array_busy[bank]
        write_busy = self.write_busy
        ready = 0
        for c in chips:
            busy = array_busy[c]
            if write_busy[c] > busy:
                busy = write_busy[c]
            if busy > ready:
                ready = busy
        return ready

    def write_ready_time(self, chips: Iterable[int], bank: int) -> int:
        """Earliest tick a (multi-chip) write may start.

        The chip's write circuitry is exclusive with *all* array activity
        (the premise that makes a writing chip unavailable to reads also
        bars starting a write under an in-flight read on any bank), so
        ``bank`` does not narrow it.
        """
        write_ready = self.write_ready
        ready = 0
        for c in chips:
            if write_ready[c] > ready:
                ready = write_ready[c]
        return ready

    def busy_chips_at(self, time: int) -> Tuple[int, ...]:
        """Chips whose write circuitry is busy at ``time``.

        This is exactly what the PCMap controller learns by polling the
        DIMM status register (paper §IV-D1).
        """
        return tuple(
            c for c, busy in enumerate(self.write_busy) if busy > time
        )

    def row_hit(self, chips: Iterable[int], bank: int, row: int) -> bool:
        """True when every involved chip already has ``row`` latched."""
        open_row = self.open_row[bank]
        for c in chips:
            if open_row[c] != row:
                return False
        return True

    # ------------------------------------------------------------------
    # Activation cost
    # ------------------------------------------------------------------
    def activation_ticks(self, chips: Sequence[int], bank: int, row: int) -> int:
        """Array time to make ``row`` available on all involved chips.

        Row hit costs nothing; a conflict pays the row close plus the
        array read; an empty row buffer pays only the array read.
        """
        read_ticks = self.timing.array_read_ticks
        conflict_ticks = self.timing.row_close_ticks + read_ticks
        open_row = self.open_row[bank]
        worst = 0
        for c in chips:
            latched = open_row[c]
            if latched == row:
                continue
            cost = read_ticks if latched is None else conflict_ticks
            if cost > worst:
                worst = cost
        return worst

    # ------------------------------------------------------------------
    # Reservations
    # ------------------------------------------------------------------
    def reserve_read(
        self,
        chips: Sequence[int],
        bank: int,
        end: int,
        row: Optional[int],
        start: int = -1,
    ) -> None:
        """Occupy ``bank``'s array on ``chips`` until ``end``; latch ``row``."""
        array_busy = self.array_busy[bank]
        open_row = self.open_row[bank]
        write_ready = self.write_ready
        for c in chips:
            if end > array_busy[c]:
                array_busy[c] = end
                if end > write_ready[c]:
                    write_ready[c] = end
            if row is not None:
                open_row[c] = row
        if self.tracer.enabled:
            self.tracer.emit_reservation(
                "read", chips, bank, start, end,
                self.channel, self.rank_index, self.log_label, self.log_id,
            )

    def reserve_write(
        self,
        chips: Sequence[int],
        bank: int,
        end: int,
        row: Optional[int],
        start: int = -1,
    ) -> None:
        """Occupy the write circuitry of ``chips`` (all banks) until ``end``."""
        array_busy = self.array_busy[bank]
        open_row = self.open_row[bank]
        write_busy = self.write_busy
        write_ready = self.write_ready
        for c in chips:
            if end > write_busy[c]:
                write_busy[c] = end
            if end > array_busy[c]:
                array_busy[c] = end
                if end > write_ready[c]:
                    write_ready[c] = end
            if row is not None:
                open_row[c] = row
        if self.tracer.enabled:
            self.tracer.emit_reservation(
                "write", chips, bank, start, end,
                self.channel, self.rank_index, self.log_label, self.log_id,
            )

    def reserve_chip_write(
        self,
        chip: int,
        bank: int,
        end: int,
        row: Optional[int],
        start: int = -1,
    ) -> None:
        """Reserve a single chip's write circuitry (fine-grained write)."""
        self.reserve_write((chip,), bank, end, row, start)
