"""Shared channel data-bus model with direction turnaround.

A DDR3 channel carries one burst at a time; consecutive bursts are
separated by at least ``tCCD`` and a direction change additionally pays
the write-to-read (``tWTR``) or read-to-write (``tRTW``) turnaround
(paper §II-B).  PCMap's sub-ranked DIMM splits the physical bus into ten
partial buses, one per chip (paper §IV-D1, Figure 7); fine-grained
transfers then reserve only their own chip's link, which this model
exposes through :meth:`reserve_partial`.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

from repro.memory.timing import TimingParams


class BusDirection(enum.Enum):
    """Direction of a data-bus transfer."""

    READ = "read"    #: DIMM -> controller
    WRITE = "write"  #: controller -> DIMM


class ChannelBus:
    """One channel's data bus.

    ``reserve`` serialises full-width (coarse) bursts; ``reserve_partial``
    serialises per-chip sub-link bursts and only enforces turnaround on
    the individual link, modelling the PCMap partial data buses.
    """

    def __init__(self, timing: TimingParams, n_chips: int):
        self.timing = timing
        self.n_chips = n_chips
        self._free_at = 0
        self._last_direction: Optional[BusDirection] = None
        self._chip_free_at: List[int] = [0] * n_chips
        self._chip_last_dir: List[Optional[BusDirection]] = [None] * n_chips
        # tCCD already covers burst-to-burst spacing; our bursts are
        # modelled back-to-back, so only the excess over the burst
        # length applies.
        self._same_gap = max(0, timing.cycles(timing.tCCD) - timing.burst_ticks)
        self._wtr_gap = timing.cycles(timing.tWTR)
        self._rtw_gap = timing.cycles(timing.tRTW)

    # ------------------------------------------------------------------
    def _gap(self, last: Optional[BusDirection], new: BusDirection) -> int:
        """Minimum idle gap before a burst of ``new`` direction."""
        if last is None:
            return 0
        if last is new:
            return self._same_gap
        return self._wtr_gap if new is BusDirection.READ else self._rtw_gap

    def reserve(
        self, direction: BusDirection, earliest: int, duration: Optional[int] = None
    ) -> Tuple[int, int]:
        """Reserve a full-width burst; returns (start, end) ticks.

        The burst starts no earlier than ``earliest`` and after any
        required turnaround gap.  ``duration`` defaults to one burst.
        """
        if duration is None:
            duration = self.timing.burst_ticks
        start = max(earliest, self._free_at + self._gap(self._last_direction, direction))
        end = start + duration
        self._free_at = end
        self._last_direction = direction
        # A full-width burst occupies every sub-link as well.
        chip_free = self._chip_free_at
        for chip in range(self.n_chips):
            if end > chip_free[chip]:
                chip_free[chip] = end
        self._chip_last_dir = [direction] * self.n_chips
        return start, end

    def reserve_partial(
        self,
        chip: int,
        direction: BusDirection,
        earliest: int,
        duration: Optional[int] = None,
    ) -> Tuple[int, int]:
        """Reserve one chip's partial bus (PCMap sub-ranked transfer)."""
        if not 0 <= chip < self.n_chips:
            raise ValueError(f"chip {chip} out of range [0, {self.n_chips})")
        if duration is None:
            # A 64-bit word over the 8-bit sub-link is still a burst of 8.
            duration = self.timing.burst_ticks
        start = max(
            earliest,
            self._chip_free_at[chip]
            + self._gap(self._chip_last_dir[chip], direction),
        )
        end = start + duration
        self._chip_free_at[chip] = end
        self._chip_last_dir[chip] = direction
        return start, end
