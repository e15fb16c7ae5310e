"""System configuration for the six evaluated memory systems (paper §V).

A :class:`SystemConfig` bundles everything a channel controller needs:
timing, geometry, the PCMap feature switches (RoW / WoW / rotations), the
queue/drain policy parameters and the RoW fault model.  The named
constructors for the paper's six variants live in
:mod:`repro.core.systems`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.memory.address import (
    BASELINE_GEOMETRY,
    MemoryGeometry,
    PCMAP_GEOMETRY,
)
from repro.memory.timing import DEFAULT_TIMING, TimingParams


@dataclass(frozen=True)
class SystemConfig:
    """Full configuration of one simulated memory system."""

    name: str = "baseline"
    timing: TimingParams = field(default_factory=lambda: DEFAULT_TIMING)
    geometry: MemoryGeometry = field(default_factory=lambda: BASELINE_GEOMETRY)

    # ----- PCMap feature switches --------------------------------------
    #: Fine-grained (sub-ranked) writes: update only essential-word chips.
    fine_grained_writes: bool = False
    #: RoW: overlap reads with single-essential-word writes via PCC.
    enable_row: bool = False
    #: WoW: consolidate chip-disjoint writes into one service window.
    enable_wow: bool = False
    #: Rotate data words across the eight data chips (RWoW-RD).
    rotate_data: bool = False
    #: Rotate ECC/PCC across all ten chips (RWoW-RDE); implies rotate_data.
    rotate_ecc: bool = False
    #: Prior-art comparator: reads preempt ongoing writes (write pausing,
    #: the paper's related work [11]).  Mutually exclusive with PCMap.
    enable_write_pausing: bool = False

    # ----- controller policy -------------------------------------------
    read_queue_capacity: int = 8
    write_queue_capacity: int = 32
    drain_high_watermark: float = 0.8   #: the paper's alpha
    drain_low_watermark: float = 0.25
    #: Maximum writes consolidated into one WoW group.
    wow_max_group: int = 8
    #: RoW applies only to writes with at most this many essential words
    #: (the paper fixes this at 1, §IV-B4).
    row_max_essential_words: int = 1
    #: Upper bound on reads overlapped inside one RoW window.
    row_max_overlapped_reads: int = 8
    #: Maximum fine-grained writes in flight per channel — models the
    #: finite command buffering of the DIMM register (Figure 7).
    max_inflight_writes: int = 16

    # ----- RoW fault / rollback model ----------------------------------
    #: Probability that the CPU consumed a RoW read's data before its
    #: deferred verification completed, forcing a rollback in the paper's
    #: "always faulty" model (Table IV's per-workload rates; 0 disables).
    row_rollback_rate: float = 0.0

    # ----- simulation fidelity -----------------------------------------
    #: Keep a functional backing store and move real bits end to end.
    functional: bool = False

    def __post_init__(self) -> None:
        if self.enable_write_pausing and self.fine_grained_writes:
            raise ValueError(
                "write pausing is a baseline comparator; it cannot be "
                "combined with PCMap's fine-grained writes"
            )
        if self.enable_row and not self.fine_grained_writes:
            raise ValueError("RoW requires fine-grained writes")
        if self.enable_wow and not self.fine_grained_writes:
            raise ValueError("WoW requires fine-grained writes")
        if self.enable_row and not self.geometry.has_pcc_chip:
            raise ValueError("RoW requires the PCC chip")
        if self.rotate_ecc and not self.geometry.has_pcc_chip:
            raise ValueError("ECC/PCC rotation requires the PCC chip")
        if self.rotate_ecc and not self.rotate_data:
            raise ValueError("ECC/PCC rotation implies data rotation")
        if not 0.0 <= self.row_rollback_rate <= 1.0:
            raise ValueError(
                f"rollback rate out of range: {self.row_rollback_rate}"
            )
        if self.row_max_essential_words < 1:
            raise ValueError("row_max_essential_words must be >= 1")
        if self.wow_max_group < 1:
            raise ValueError("wow_max_group must be >= 1")

    # ------------------------------------------------------------------
    def with_rollback_rate(self, rate: float) -> "SystemConfig":
        """Copy with a different RoW rollback rate (Table IV)."""
        return replace(self, row_rollback_rate=rate)

    def describe(self) -> str:
        """One-line human summary."""
        features = []
        if self.enable_row:
            features.append("RoW")
        if self.enable_wow:
            features.append("WoW")
        if self.rotate_ecc:
            features.append("rot(data+ECC/PCC)")
        elif self.rotate_data:
            features.append("rot(data)")
        if self.enable_write_pausing:
            features.append("write pausing (prior art)")
        if not features:
            features.append("coarse writes, read-priority drain")
        return f"{self.name}: {', '.join(features)}"


def pcmap_config(**overrides) -> SystemConfig:
    """A PCMap-capable config (10-chip geometry, fine-grained writes)."""
    base = dict(
        geometry=PCMAP_GEOMETRY,
        fine_grained_writes=True,
    )
    base.update(overrides)
    return SystemConfig(**base)
