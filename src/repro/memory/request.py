"""Memory request records exchanged between CPU, caches and controllers.

A request always addresses one 64-byte cache line.  Write requests carry
the *dirty-word mask* produced by the write-back path (one bit per 8-byte
word); in functional mode they additionally carry the old and new line
contents so the essential-word detector and the ECC machinery can operate
on real bits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Tuple

if TYPE_CHECKING:  # address.py imports LINE_BYTES from here — no cycle
    from repro.memory.address import DecodedAddress

LINE_BYTES = 64
WORDS_PER_LINE = 8
WORD_BYTES = LINE_BYTES // WORDS_PER_LINE


class RequestKind(enum.Enum):
    """Type of a main-memory transaction."""

    READ = "read"
    WRITE = "write"


class ServiceClass(enum.Enum):
    """How a request ended up being serviced (for metrics)."""

    NORMAL = "normal"          #: ordinary coarse-grained service
    ROW_OVERLAP = "row"        #: read served over a write via PCC reconstruction
    WOW_MEMBER = "wow"         #: write consolidated into a WoW group
    SILENT = "silent"          #: write with zero dirty words (compare only)


#: ``mask -> ascending dirty-word indices`` for all 8-bit masks; shared by
#: every request's ``dirty_words`` property (the scheduler queries it on
#: each candidate scan).
_DIRTY_WORDS: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(i for i in range(WORDS_PER_LINE) if (mask >> i) & 1)
    for mask in range(1 << WORDS_PER_LINE)
)


@dataclass(eq=False, slots=True)
class MemoryRequest:
    """One line-granularity main-memory transaction.

    Timing fields are engine ticks.  ``completion`` is set by the memory
    controller when the request finishes; ``on_complete`` (if set) fires
    at that moment so the CPU model can unstall.

    Requests compare (and hash) by identity: every transaction is a
    distinct object, and the queue membership / removal the scheduler
    performs per issue must not pay a field-by-field dataclass compare.
    Slots, because the scheduler's candidate scans are attribute-bound:
    they touch several fields of every queued request each step.
    """

    req_id: int
    kind: RequestKind
    address: int                     #: byte address, line aligned
    core_id: int = 0
    arrival: int = 0                 #: tick the request reached the controller
    #: Tick the requester first *wanted* to issue (may precede ``arrival``
    #: when queue back-pressure blocked it); -1 when unset.  Effective
    #: read latency is measured from here so systems that admit reads
    #: faster are not penalised by the extra visible queueing.
    requested_at: int = -1

    #: Writes: bit ``i`` set when 8-byte word ``i`` differs from memory.
    dirty_mask: int = 0
    #: Functional mode: the eight 64-bit words being written (writes).
    new_words: Optional[Tuple[int, ...]] = None
    #: Functional mode: previous contents (filled by essential-word logic).
    old_words: Optional[Tuple[int, ...]] = None

    # ----- filled in by the controller ---------------------------------
    start_service: int = -1          #: tick service began (array/bus work)
    completion: int = -1             #: tick the request fully completed
    service_class: ServiceClass = ServiceClass.NORMAL
    #: Read was pushed back because the rank/bank was draining or busy
    #: with a write (Figure 1's "delayed by write" predicate).
    delayed_by_write: bool = False
    #: RoW reads: tick the deferred SECDED verification completed.
    verify_completion: int = -1
    #: RoW reads: verification failed and the CPU had to roll back.
    rolled_back: bool = False
    #: Functional mode, reads: data returned to the requester.
    data_words: Optional[Tuple[int, ...]] = None

    on_complete: Optional[Callable[["MemoryRequest"], None]] = None
    #: RoW reads: fires when deferred verification finishes; the second
    #: argument is True when the verification failed (rollback needed).
    on_verify: Optional[Callable[["MemoryRequest", bool], None]] = None

    # ----- scheduler fast-path caches -----------------------------------
    #: Line index (byte address / 64); precomputed, the address is final.
    line_address: int = field(init=False, repr=False)
    #: Decoded address, set at submit (the request is routed to exactly
    #: one channel, so one mapper applies).
    decoded: "DecodedAddress" = field(init=False, repr=False)
    #: Chips the request touches, set at submit *after* essential-word
    #: detection finalises ``dirty_mask``: ``read_chips`` for reads,
    #: ``dirty_chips`` for writes (all data chips for silent ones).
    chips: Tuple[int, ...] = field(init=False, repr=False)
    #: Last ready tick the scheduler computed over :attr:`chips` (read
    #: readiness for reads and silent writes, write readiness for dirty
    #: writes).  Busy times only move forward, so it stays a lower bound
    #: on the current ready tick, and scans skip the request while it
    #: lies in the future.
    ready_bound: int = field(init=False, repr=False, default=0)
    #: ``(data_chip_mask, code_chip_mask)`` for WoW group admission,
    #: computed on first admission scan (line and dirty mask are final).
    wow_masks: Optional[Tuple[int, int]] = field(
        init=False, repr=False, default=None
    )

    def __post_init__(self) -> None:
        if self.address % LINE_BYTES:
            raise ValueError(
                f"address {self.address:#x} not {LINE_BYTES}-byte aligned"
            )
        if not 0 <= self.dirty_mask < (1 << WORDS_PER_LINE):
            raise ValueError(f"dirty mask out of range: {self.dirty_mask:#x}")
        if self.kind is RequestKind.READ and self.dirty_mask:
            raise ValueError("read requests cannot carry a dirty mask")
        if self.new_words is not None and len(self.new_words) != WORDS_PER_LINE:
            raise ValueError("new_words must have 8 entries")
        self.line_address = self.address // LINE_BYTES

    @property
    def is_read(self) -> bool:
        return self.kind is RequestKind.READ

    @property
    def is_write(self) -> bool:
        return self.kind is RequestKind.WRITE

    @property
    def dirty_words(self) -> Tuple[int, ...]:
        """Indices of dirty words, ascending."""
        return _DIRTY_WORDS[self.dirty_mask]

    @property
    def dirty_count(self) -> int:
        """Number of essential (dirty) words."""
        return self.dirty_mask.bit_count()

    @property
    def latency(self) -> int:
        """Arrival-to-completion latency in ticks (valid after service)."""
        if self.completion < 0:
            raise ValueError(f"request {self.req_id} not completed yet")
        return self.completion - self.arrival

    @property
    def effective_latency(self) -> int:
        """Completion minus first-wanted time (includes back-pressure)."""
        if self.completion < 0:
            raise ValueError(f"request {self.req_id} not completed yet")
        origin = self.requested_at if self.requested_at >= 0 else self.arrival
        return self.completion - origin

    def complete(self, now: int) -> None:
        """Mark the request complete and fire its callback."""
        self.completion = now
        if self.on_complete is not None:
            self.on_complete(self)


def make_read(req_id: int, address: int, core_id: int = 0) -> MemoryRequest:
    """Convenience constructor for a read request."""
    return MemoryRequest(req_id, RequestKind.READ, address, core_id=core_id)


def make_write(
    req_id: int,
    address: int,
    dirty_mask: int,
    core_id: int = 0,
    new_words: Optional[Tuple[int, ...]] = None,
) -> MemoryRequest:
    """Convenience constructor for a write-back request."""
    return MemoryRequest(
        req_id,
        RequestKind.WRITE,
        address,
        core_id=core_id,
        dirty_mask=dirty_mask,
        new_words=new_words,
    )
