"""Cache line state with per-word dirty tracking.

The essential-word machinery needs to know *which* 8-byte words of a
64-byte line changed, so LLC lines carry a per-word dirty mask (the
"extended dirty flag" of paper §IV-A1, option 1) in addition to the
conventional line-level dirty bit.  Functional mode also stores the words
themselves so evictions can carry real data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.memory.request import LINE_BYTES, WORD_BYTES, WORDS_PER_LINE


@dataclass
class CacheLine:
    """One resident line of a set-associative cache."""

    tag: int
    valid: bool = True
    dirty_mask: int = 0                       #: bit per dirty 8B word
    words: Optional[Tuple[int, ...]] = None   #: functional payload
    last_use: int = 0                         #: LRU timestamp
    #: Opaque per-line replacement-policy state (reference bit for CLOCK,
    #: access level for MAC, unused by LRU); owned by the policy object.
    policy_state: int = 0

    @property
    def dirty(self) -> bool:
        return self.dirty_mask != 0

    def touch(self, now: int) -> None:
        self.last_use = now

    def mark_dirty(self, word: int) -> None:
        if not 0 <= word < WORDS_PER_LINE:
            raise ValueError(f"word index out of range: {word}")
        self.dirty_mask |= 1 << word

    def write_word(self, word: int, value: int) -> None:
        """Functional store: update one word and mark it dirty."""
        if self.words is None:
            raise ValueError("line carries no functional payload")
        if not 0 <= value < (1 << 64):
            raise ValueError(f"word value out of range: {value:#x}")
        updated = list(self.words)
        if updated[word] != value:
            updated[word] = value
            self.words = tuple(updated)
        # The store makes the word architecturally dirty even when the
        # value is unchanged — detecting such silent stores is main
        # memory's job (paper §III-B).
        self.mark_dirty(word)


def word_index(address: int) -> int:
    """Which 8-byte word of its line a byte address falls in."""
    return (address % LINE_BYTES) // WORD_BYTES


def line_base(address: int) -> int:
    """Line-aligned base address of a byte address."""
    return address - (address % LINE_BYTES)
