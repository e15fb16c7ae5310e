"""Physical address decomposition for the PCM main memory.

The paper's system (Table I) is 8 GB across 4 channels, one rank per
channel, 8 banks per rank, 8 KB rows.  Line addresses are interleaved
channel-first so consecutive lines spread over channels, then column
within a row, then bank, then row — the conventional open-page-friendly
mapping used by DRAMSim2-style simulators.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.request import LINE_BYTES


@dataclass(slots=True)
class DecodedAddress:
    """Coordinates of one cache line inside the memory system.

    Built once per submitted request and read on every scheduler scan:
    slots build in one ``__init__`` and read as fast as plain attributes
    (a frozen dataclass builds through ``object.__setattr__``, and a
    named tuple's fields read slower).  Never mutated after decode.
    """

    channel: int
    rank: int
    bank: int
    row: int
    column: int
    line_address: int


@dataclass(frozen=True)
class MemoryGeometry:
    """Structural parameters of the memory system."""

    n_channels: int = 4
    ranks_per_channel: int = 1
    banks_per_rank: int = 8
    row_bytes: int = 8192
    capacity_bytes: int = 8 * 1024 ** 3

    #: Data chips per rank (the paper's x8 DIMM).
    data_chips: int = 8
    #: True when the rank carries a SECDED ECC chip (chip 8).
    has_ecc_chip: bool = True
    #: True when the rank carries the PCMap PCC chip (chip 9).
    has_pcc_chip: bool = False

    def __post_init__(self) -> None:
        if self.row_bytes % LINE_BYTES:
            raise ValueError("row size must be a multiple of the line size")
        for name in ("n_channels", "ranks_per_channel", "banks_per_rank"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def chips_per_rank(self) -> int:
        """Total physical chips in a rank (data + ECC + PCC)."""
        return self.data_chips + int(self.has_ecc_chip) + int(self.has_pcc_chip)

    @property
    def ecc_chip_index(self) -> int:
        """Physical index of the fixed ECC chip (no-rotation layouts)."""
        if not self.has_ecc_chip:
            raise ValueError("geometry has no ECC chip")
        return self.data_chips

    @property
    def pcc_chip_index(self) -> int:
        """Physical index of the fixed PCC chip (no-rotation layouts)."""
        if not self.has_pcc_chip:
            raise ValueError("geometry has no PCC chip")
        return self.data_chips + int(self.has_ecc_chip)

    @property
    def lines_per_row(self) -> int:
        return self.row_bytes // LINE_BYTES


class AddressMapper:
    """Maps physical byte addresses to (channel, rank, bank, row, column).

    Interleave order (low to high bits above the 64 B line offset):
    channel | column | bank | rank | row.
    """

    def __init__(self, geometry: MemoryGeometry):
        self.geometry = geometry
        #: ``geometry.lines_per_row``, a derived property, read per decode.
        self._lines_per_row = geometry.lines_per_row

    def channel_of(self, address: int) -> int:
        """The channel of a byte address (unchecked; see :meth:`decode`)."""
        return address // LINE_BYTES % self.geometry.n_channels

    def decode(self, address: int) -> DecodedAddress:
        """Decode a byte address.  The address must be line aligned."""
        geo = self.geometry
        if address % LINE_BYTES:
            raise ValueError(f"address {address:#x} not line aligned")
        if not 0 <= address < geo.capacity_bytes:
            raise ValueError(
                f"address {address:#x} outside capacity "
                f"{geo.capacity_bytes:#x}"
            )
        line = address // LINE_BYTES
        rest, channel = divmod(line, geo.n_channels)
        rest, column = divmod(rest, self._lines_per_row)
        rest, bank = divmod(rest, geo.banks_per_rank)
        row, rank = divmod(rest, geo.ranks_per_channel)
        return DecodedAddress(channel, rank, bank, row, column, line)

    def encode(
        self, channel: int, rank: int, bank: int, row: int, column: int
    ) -> int:
        """Inverse of :meth:`decode`; returns the byte address."""
        geo = self.geometry
        for value, limit, name in (
            (channel, geo.n_channels, "channel"),
            (rank, geo.ranks_per_channel, "rank"),
            (bank, geo.banks_per_rank, "bank"),
            (column, geo.lines_per_row, "column"),
        ):
            if not 0 <= value < limit:
                raise ValueError(f"{name} {value} out of range [0, {limit})")
        line = row
        line = line * geo.ranks_per_channel + rank
        line = line * geo.banks_per_rank + bank
        line = line * geo.lines_per_row + column
        line = line * geo.n_channels + channel
        address = line * LINE_BYTES
        if address >= geo.capacity_bytes:
            raise ValueError("encoded address exceeds capacity")
        return address


#: Paper Table I geometry for the baseline (8 data chips + ECC).
BASELINE_GEOMETRY = MemoryGeometry()

#: PCMap geometry: ten chips per rank (8 data + ECC + PCC).
PCMAP_GEOMETRY = MemoryGeometry(has_pcc_chip=True)
