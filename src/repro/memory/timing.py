"""PCM/DDR3 timing parameters (paper Table I).

All externally visible durations are expressed in integer engine ticks
(0.1 ns, see :mod:`repro.sim.engine`).  The raw parameters mirror the
JEDEC-style names the paper lists for its 400 MHz DDR3-compatible PCM
DIMMs plus the PCM cell latencies (60 ns read, 50 ns RESET, 120 ns SET).

Two deviations from Table I, both documented in DESIGN.md §5:

* Table I lists ``tRCD = 60 cycles`` (150 ns) while also giving the PCM
  cell read as 60 ns and stating that the main evaluation assumes
  ``write = 2 x read`` with a constant 120 ns write.  The only consistent
  reading is that row activation (the array read) costs 60 ns, so the
  activation latency here is ``array_read_ns`` (default 60 ns).
* ``tRP`` models closing a row buffer.  A PCM row buffer needs no restore
  for clean rows, so the default is a small 4-cycle bookkeeping delay
  rather than Table I's DRAM-style 60 cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.sim.engine import ns_to_ticks


class WriteLatencyMode(enum.Enum):
    """How the per-word PCM array write latency is derived."""

    FIXED = "fixed"          #: every dirty word costs ``array_write_ns``
    SET_RESET = "set_reset"  #: SET-dominated words cost SET, else RESET


@dataclass(frozen=True)
class TimingParams:
    """Timing configuration for one PCM channel.

    Cycle-denominated fields are in memory-bus cycles (400 MHz default);
    nanosecond fields are PCM array latencies.  Use the ``*_ticks``
    properties in simulator code.
    """

    mem_clock_mhz: float = 400.0
    burst_length: int = 8

    # DDR-style bus/command constraints (memory cycles).
    tCL: int = 5      #: column-read command to first data beat
    tWL: int = 4      #: column-write command to first data beat
    tCCD: int = 4     #: minimum gap between bursts on the shared bus
    tWTR: int = 4     #: write -> read bus turnaround
    tRTW: int = 2     #: read -> write bus turnaround
    tRTP: int = 3     #: read to precharge
    tRP: int = 4      #: row-buffer close (see module docstring)
    tRRD: int = 2     #: activate-to-activate gap (same rank)

    # PCM array latencies (nanoseconds).
    array_read_ns: float = 60.0        #: activation / read-before-write
    array_write_ns: float = 120.0      #: dirty-word write (FIXED mode)
    array_write_set_ns: float = 120.0  #: SET (crystallise) word write
    array_write_reset_ns: float = 50.0 #: RESET (amorphise) word write
    write_mode: WriteLatencyMode = WriteLatencyMode.FIXED

    #: Fraction of a full word write that an ECC/PCC word update costs.
    #: Differential writes flip only the check bytes of dirty words (about
    #: 2-3 of the 8 bytes for a typical write-back), so the update is
    #: cheaper than a full 8-byte word write (DESIGN.md §5).
    ecc_update_fraction: float = 0.85

    #: PCMap status-register poll (paper §IV-D1: 2 cycles / 0.8 ns).
    status_poll_ns: float = 0.8

    # ------------------------------------------------------------------
    # Derived quantities (ticks) — precomputed once per instance.  These
    # sit on the simulator's innermost loops (every ready-time query and
    # reservation reads them), so they are plain attributes rather than
    # properties recomputing ``ns_to_ticks`` on each access.  ``replace``
    # variants re-derive them through ``__post_init__``.
    # ------------------------------------------------------------------
    #: Engine ticks per memory-bus cycle.
    cycle_ticks: int = field(init=False, repr=False, compare=False)
    #: Duration of one burst-of-8 data transfer (BL/2 cycles, DDR).
    burst_ticks: int = field(init=False, repr=False, compare=False)
    #: Column-read command to end of data burst.
    read_io_ticks: int = field(init=False, repr=False, compare=False)
    #: Column-write command to end of data burst.
    write_io_ticks: int = field(init=False, repr=False, compare=False)
    #: PCM array read (row activation / read-before-write).
    array_read_ticks: int = field(init=False, repr=False, compare=False)
    #: Dirty-word array write in FIXED mode.
    array_write_ticks: int = field(init=False, repr=False, compare=False)
    array_write_set_ticks: int = field(init=False, repr=False, compare=False)
    array_write_reset_ticks: int = field(init=False, repr=False, compare=False)
    #: ECC/PCC word update duration.
    ecc_update_ticks: int = field(init=False, repr=False, compare=False)
    row_close_ticks: int = field(init=False, repr=False, compare=False)
    status_poll_ticks: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        set_attr = object.__setattr__  # frozen dataclass
        cycle = ns_to_ticks(1000.0 / self.mem_clock_mhz)
        burst = cycle * (self.burst_length // 2)
        array_write = ns_to_ticks(self.array_write_ns)
        set_attr(self, "cycle_ticks", cycle)
        set_attr(self, "burst_ticks", burst)
        set_attr(self, "read_io_ticks", cycle * self.tCL + burst)
        set_attr(self, "write_io_ticks", cycle * self.tWL + burst)
        set_attr(self, "array_read_ticks", ns_to_ticks(self.array_read_ns))
        set_attr(self, "array_write_ticks", array_write)
        set_attr(self, "array_write_set_ticks", ns_to_ticks(self.array_write_set_ns))
        set_attr(self, "array_write_reset_ticks", ns_to_ticks(self.array_write_reset_ns))
        set_attr(
            self,
            "ecc_update_ticks",
            int(round(array_write * self.ecc_update_fraction)),
        )
        set_attr(self, "row_close_ticks", cycle * self.tRP)
        set_attr(self, "status_poll_ticks", ns_to_ticks(self.status_poll_ns))

    def cycles(self, n: int) -> int:
        """Convert a cycle count to ticks."""
        return n * self.cycle_ticks

    # ------------------------------------------------------------------
    # Variants
    # ------------------------------------------------------------------
    def with_write_to_read_ratio(self, ratio: float) -> "TimingParams":
        """Table III sweep: constant 120 ns write, read scaled to match.

        The paper varies the write:read ratio from 2x to 8x by holding the
        write at 120 ns and shrinking the read latency.
        """
        if ratio <= 0:
            raise ValueError(f"ratio must be positive, got {ratio}")
        return replace(self, array_read_ns=self.array_write_ns / ratio)

    def symmetric(self) -> "TimingParams":
        """A symmetric-PCM variant (write latency == read latency).

        Used as the normalisation baseline of Figure 1.
        """
        return replace(
            self,
            array_write_ns=self.array_read_ns,
            array_write_set_ns=self.array_read_ns,
            array_write_reset_ns=self.array_read_ns,
        )


#: Table I defaults: 400 MHz channel, 60 ns read, 120 ns write (2x).
DEFAULT_TIMING = TimingParams()
