"""Trace records: the unit of work a core feeds the memory hierarchy.

A trace is a stream of :class:`TraceRecord` items.  Each record says "run
``gap_instructions`` instructions, then perform this memory access".  For
main-memory-level traces (the paper's evaluation granularity) the access
is a line read or a write-back with a dirty-word mask; for full-hierarchy
traces it is a load/store at byte granularity that the cache stack filters.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.memory.request import LINE_BYTES, WORDS_PER_LINE


class AccessKind(enum.Enum):
    """What the trace record asks the memory system to do."""

    READ = "read"          #: line fill (LLC miss)
    WRITE_BACK = "write"   #: dirty line eviction from the LLC
    LOAD = "load"          #: CPU load (full-hierarchy traces)
    STORE = "store"        #: CPU store (full-hierarchy traces)


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One memory event in a core's instruction stream."""

    gap_instructions: int       #: instructions executed before this access
    kind: AccessKind
    address: int                #: byte address (line aligned for READ/WRITE_BACK)
    dirty_mask: int = 0         #: write-backs: which 8B words changed
    new_words: Optional[Tuple[int, ...]] = None  #: functional payload

    def __post_init__(self) -> None:
        if self.gap_instructions < 0:
            raise ValueError("gap_instructions must be non-negative")
        if self.kind in (AccessKind.READ, AccessKind.WRITE_BACK):
            if self.address % LINE_BYTES:
                raise ValueError(
                    f"{self.kind.value} address {self.address:#x} not line aligned"
                )
        if not 0 <= self.dirty_mask < (1 << WORDS_PER_LINE):
            raise ValueError(f"dirty mask out of range: {self.dirty_mask:#x}")
        if self.kind is not AccessKind.WRITE_BACK and self.dirty_mask:
            raise ValueError("only write-backs carry dirty masks")

    @property
    def line_address(self) -> int:
        return self.address // LINE_BYTES


_new_record = object.__new__
#: Setters of the slots' member descriptors, read through ``vars`` (plain
#: attribute access would type them as the fields' values).
_set_gap, _set_kind, _set_address, _set_dirty_mask, _set_new_words = (
    vars(TraceRecord)[name].__set__
    for name in ("gap_instructions", "kind", "address", "dirty_mask", "new_words")
)


def _trusted_record(
    gap_instructions: int, kind: AccessKind, address: int, dirty_mask: int = 0
) -> TraceRecord:
    """A payload-less :class:`TraceRecord` built without validation.

    For the synthetic generator only, whose records are valid by
    construction (non-negative gaps, line-aligned addresses, masks below
    ``1 << WORDS_PER_LINE`` on write-backs only): it sets the five slots
    through their member descriptors, skipping the frozen ``__setattr__``
    path and the ``__post_init__`` checks.  The result is an ordinary
    record — equal, hashable and immutable.  Every other producer (trace
    files, tests, payload adapters) goes through the checked constructor.
    """
    record = _new_record(TraceRecord)
    _set_gap(record, gap_instructions)
    _set_kind(record, kind)
    _set_address(record, address)
    _set_dirty_mask(record, dirty_mask)
    _set_new_words(record, None)
    return record
