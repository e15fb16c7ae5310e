"""Start-Gap wear levelling (Qureshi et al., MICRO 2009 — the paper's [5]).

The paper notes PCMap is orthogonal to wear levelling and expects *better*
lifetime thanks to rotation balancing chip-level wear (§IV-C2).  This
module provides the line-level complement: the Start-Gap scheme remaps
logical lines onto physical lines with two registers (``start`` and
``gap``) and one spare line, moving the gap one slot every ``gap_interval``
writes so that hot lines migrate across the physical array.

The algebraic form implemented here is the one from the original paper:
with ``N`` logical lines and ``N + 1`` physical slots,

* ``physical = (logical + start) mod N``, then
* if ``physical >= gap`` the slot shifts up by one (the gap sits "before"
  it); the gap slot itself is always left free.

Every ``gap_interval`` writes the gap moves down one slot (copying one
line in hardware, charged as one extra line write); when it wraps,
``start`` advances, completing one full rotation of the address space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class WearStats:
    """Write balance accounting over physical lines."""

    writes_per_line: Dict[int, int] = field(default_factory=dict)
    gap_moves: int = 0
    total_writes: int = 0

    def record(self, physical_line: int) -> None:
        self.total_writes += 1
        self.writes_per_line[physical_line] = (
            self.writes_per_line.get(physical_line, 0) + 1
        )

    def max_line_writes(self) -> int:
        if not self.writes_per_line:
            return 0
        return max(self.writes_per_line.values())

    def imbalance(self) -> float:
        """Max over mean writes per touched line (1.0 = perfectly even)."""
        if not self.writes_per_line:
            return 0.0
        mean = self.total_writes / len(self.writes_per_line)
        return self.max_line_writes() / mean if mean else 0.0


class StartGapRemapper:
    """Start-Gap address remapping over a region of ``n_lines`` lines."""

    def __init__(self, n_lines: int, gap_interval: int = 100):
        if n_lines < 2:
            raise ValueError("need at least two lines to level wear")
        if gap_interval < 1:
            raise ValueError("gap interval must be >= 1")
        self.n_lines = n_lines
        self.gap_interval = gap_interval
        self.start = 0
        #: Physical slot currently left empty; begins past the last line.
        self.gap = n_lines
        self._writes_since_move = 0
        self.stats = WearStats()

    # ------------------------------------------------------------------
    def physical_line(self, logical_line: int) -> int:
        """Current physical slot of ``logical_line``."""
        if not 0 <= logical_line < self.n_lines:
            raise ValueError(
                f"logical line {logical_line} out of range [0, {self.n_lines})"
            )
        physical = (logical_line + self.start) % self.n_lines
        if physical >= self.gap:
            physical += 1
        return physical

    def on_write(self, logical_line: int) -> int:
        """Account a write; returns the physical slot written.

        Every ``gap_interval`` writes the gap moves one slot down (the
        line above the gap is copied into it), charging one extra line
        write to the copied line's new slot.
        """
        physical = self.physical_line(logical_line)
        self.stats.record(physical)
        self._writes_since_move += 1
        if self._writes_since_move >= self.gap_interval:
            self._writes_since_move = 0
            self._move_gap()
        return physical

    def _move_gap(self) -> None:
        self.stats.gap_moves += 1
        if self.gap == 0:
            # Gap wraps: one full rotation completed, start advances.
            self.gap = self.n_lines
            self.start = (self.start + 1) % self.n_lines
        else:
            self.gap -= 1
        # The line copied into the freed slot pays one write there.
        self.stats.record(self.gap)
