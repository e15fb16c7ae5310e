"""Word-to-chip layouts: fixed, data-rotated, and fully rotated (PCMap).

The paper's three layouts (§IV-A2, §IV-C2, Figure 6):

* **Fixed** — word ``k`` of every line lives on chip ``k``; ECC on chip 8;
  PCC (when present) on chip 9.  This is the baseline and the ``-NR``
  variants.
* **Data rotation** (``RWoW-RD``) — word ``k`` of the line at address ``A``
  lives on chip ``(k + A/L) mod 8``.  Successive lines shift by one chip,
  de-clustering the dirty offsets of successive write-backs.  ECC and PCC
  stay pinned to chips 8 and 9.
* **Full rotation** (``RWoW-RDE``) — the ten logical slots (eight data
  words, ECC, PCC) rotate across the ten physical chips with offset
  ``A/L mod 10``, RAID-5 style, so the error-code updates are spread too.

All layouts are pure functions of the line address, so the controller
never needs per-line bookkeeping (paper §IV-C2) — the same property this
module's property tests pin down.

Being pure *and periodic* in the line address (period 1, 8 or 10), every
lookup the scheduler's hot loops perform — ``data_chip``, ``dirty_chips``
over all 256 masks, ``read_chips`` — is precomputed per
rotation offset at construction.  Subclasses supply only the raw
``offset x slot -> chip`` arithmetic (``_raw_*``); the base class builds
the tables and serves all queries from them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Tuple

from repro.memory.address import MemoryGeometry
from repro.memory.request import WORDS_PER_LINE

_FULL_MASK = (1 << WORDS_PER_LINE) - 1


class RankLayout:
    """Base class: maps logical line slots to physical chips.

    Subclasses call :meth:`_build_layout_tables` at the end of their
    ``__init__`` with the layout's rotation period; all public queries
    are then O(1) table lookups keyed on ``line_address % period``.
    """

    #: Number of physical chips this layout addresses.
    n_chips: int

    # ------------------------------------------------------------------
    # Raw per-offset arithmetic supplied by subclasses
    # ------------------------------------------------------------------
    def _raw_data_chip(self, offset: int, word: int) -> int:
        """Physical chip of ``word`` for lines with rotation ``offset``."""
        raise NotImplementedError

    def _raw_ecc_chip(self, offset: int) -> int:
        """Physical chip of the SECDED word at rotation ``offset``."""
        raise NotImplementedError

    def _raw_pcc_chip(self, offset: int) -> Optional[int]:
        """Physical chip of the PCC word (None without a PCC chip)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Table construction
    # ------------------------------------------------------------------
    def _build_layout_tables(self, period: int) -> None:
        self._period = period
        data_by_offset = []
        dirty_by_offset = []
        read_by_offset = []
        ecc_by_offset = []
        pcc_by_offset = []
        for offset in range(period):
            chips = tuple(
                self._raw_data_chip(offset, w) for w in range(WORDS_PER_LINE)
            )
            data_by_offset.append(chips)
            # mask -> chips of its set words, ascending word order.  Built
            # by the lowest-bit recurrence: mask = lowest set word + rest,
            # and the rest's tuple is already computed (rest < mask) —
            # 256 tuple concatenations instead of 256 x 8 bit tests.
            dirty_for: List[Tuple[int, ...]] = [()] * (_FULL_MASK + 1)
            for mask in range(1, _FULL_MASK + 1):
                low = (mask & -mask).bit_length() - 1
                dirty_for[mask] = (chips[low],) + dirty_for[mask & (mask - 1)]
            dirty_by_offset.append(tuple(dirty_for))
            ecc = self._raw_ecc_chip(offset)
            ecc_by_offset.append(ecc)
            pcc_by_offset.append(self._raw_pcc_chip(offset))
            read_by_offset.append(chips + (ecc,))
        self._data_by_offset = tuple(data_by_offset)
        self._dirty_by_offset = tuple(dirty_by_offset)
        self._read_by_offset = tuple(read_by_offset)
        self._ecc_by_offset = tuple(ecc_by_offset)
        self._pcc_by_offset = tuple(pcc_by_offset)

    # ------------------------------------------------------------------
    # Queries (all table lookups)
    # ------------------------------------------------------------------
    def data_chip(self, line_address: int, word: int) -> int:
        """Physical chip holding ``word`` of the line."""
        if not 0 <= word < WORDS_PER_LINE:
            raise ValueError(f"word index out of range: {word}")
        return self._data_by_offset[line_address % self._period][word]

    def ecc_chip(self, line_address: int) -> int:
        """Physical chip holding the line's SECDED word."""
        return self._ecc_by_offset[line_address % self._period]

    def pcc_chip(self, line_address: int) -> Optional[int]:
        """Physical chip holding the line's PCC word (None without PCC)."""
        return self._pcc_by_offset[line_address % self._period]

    def all_data_chips(self, line_address: int) -> Tuple[int, ...]:
        """Physical chips of all eight data words, in word order."""
        return self._data_by_offset[line_address % self._period]

    def dirty_chips(self, line_address: int, dirty_mask: int) -> Tuple[int, ...]:
        """Physical chips that a write with ``dirty_mask`` must update."""
        return self._dirty_by_offset[line_address % self._period][
            dirty_mask & _FULL_MASK
        ]

    def read_chips(self, line_address: int) -> Tuple[int, ...]:
        """Chips involved in a normal coarse read (data + ECC)."""
        return self._read_by_offset[line_address % self._period]


class FixedLayout(RankLayout):
    """No rotation: word k -> chip k, ECC -> chip 8, PCC -> chip 9."""

    def __init__(self, geometry: MemoryGeometry):
        self.geometry = geometry
        self.n_chips = geometry.chips_per_rank
        self._build_layout_tables(period=1)

    def _raw_data_chip(self, offset: int, word: int) -> int:
        return word

    def _raw_ecc_chip(self, offset: int) -> int:
        return self.geometry.ecc_chip_index

    def _raw_pcc_chip(self, offset: int) -> Optional[int]:
        if not self.geometry.has_pcc_chip:
            return None
        return self.geometry.pcc_chip_index


class DataRotatedLayout(RankLayout):
    """Data words rotate across the eight data chips; ECC/PCC pinned.

    The rotation offset is ``line_address mod 8`` — the paper expresses it
    as ``Address mod (8 x L)`` over byte addresses, which reduces to the
    line index modulo 8.
    """

    def __init__(self, geometry: MemoryGeometry):
        self.geometry = geometry
        self.n_chips = geometry.chips_per_rank
        self._build_layout_tables(period=geometry.data_chips)

    def _raw_data_chip(self, offset: int, word: int) -> int:
        return (word + offset) % self.geometry.data_chips

    def _raw_ecc_chip(self, offset: int) -> int:
        return self.geometry.ecc_chip_index

    def _raw_pcc_chip(self, offset: int) -> Optional[int]:
        if not self.geometry.has_pcc_chip:
            return None
        return self.geometry.pcc_chip_index


class FullyRotatedLayout(RankLayout):
    """All ten slots (8 data + ECC + PCC) rotate across the ten chips.

    Offset ``line_address mod 10`` (the paper's ``Address mod (10 x L)``).
    Requires a PCC-equipped geometry.
    """

    ECC_SLOT = WORDS_PER_LINE      #: logical slot 8
    PCC_SLOT = WORDS_PER_LINE + 1  #: logical slot 9

    def __init__(self, geometry: MemoryGeometry):
        if not geometry.has_pcc_chip:
            raise ValueError("full rotation requires the PCC chip")
        self.geometry = geometry
        self.n_chips = geometry.chips_per_rank
        if self.n_chips != WORDS_PER_LINE + 2:
            raise ValueError(
                f"full rotation expects 10 chips, geometry has {self.n_chips}"
            )
        self._build_layout_tables(period=self.n_chips)

    def _raw_data_chip(self, offset: int, word: int) -> int:
        return (word + offset) % self.n_chips

    def _raw_ecc_chip(self, offset: int) -> int:
        return (self.ECC_SLOT + offset) % self.n_chips

    def _raw_pcc_chip(self, offset: int) -> Optional[int]:
        return (self.PCC_SLOT + offset) % self.n_chips


@lru_cache(maxsize=None)
def make_layout(
    geometry: MemoryGeometry, rotate_data: bool, rotate_ecc: bool
) -> RankLayout:
    """Layout factory for the evaluated system variants.

    ``rotate_ecc`` implies full (10-slot) rotation and therefore also
    rotates the data words, mirroring the paper's RWoW-RDE configuration.

    Memoized: layouts are immutable after construction (pure lookup
    tables keyed on a frozen geometry), and every controller of a
    multi-channel system would otherwise rebuild the same 256-entry
    dirty-chip tables per rotation offset.
    """
    if rotate_ecc:
        return FullyRotatedLayout(geometry)
    if rotate_data:
        return DataRotatedLayout(geometry)
    return FixedLayout(geometry)
