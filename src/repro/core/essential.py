"""Essential-word detection (paper §IV-A1).

A write-back only has to update the words whose values actually changed —
the *essential* words.  The paper weighs three detection points (extended
dirty flags in the LLC, read-before-write at the controller, and
read-before-write inside the PCM chips) and PCMap adopts the third: the
chips compare old and new data during the write's read phase and report
completion through the DIMM status register.

This module provides the comparison itself; the controller counts dirty
words per write in the metrics registry (``writes.dirty_words``).  In
functional simulations the detector diffs real line contents from the
backing store; in statistical simulations the trace generator supplies
dirty masks directly and the detector only validates them.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.memory.request import MemoryRequest, WORDS_PER_LINE
from repro.memory.storage import MemoryStorage


def diff_words(old: Tuple[int, ...], new: Tuple[int, ...]) -> int:
    """Dirty-word mask from an old/new word-pair comparison."""
    if len(old) != WORDS_PER_LINE or len(new) != WORDS_PER_LINE:
        raise ValueError("lines must have 8 words")
    mask = 0
    bit = 1
    for old_word, new_word in zip(old, new):
        if old_word != new_word:
            mask |= bit
        bit <<= 1
    return mask


class EssentialWordDetector:
    """Determines (or validates) the dirty mask of each write-back."""

    def __init__(self, storage: Optional[MemoryStorage] = None):
        self.storage = storage

    def detect(self, request: MemoryRequest) -> int:
        """Resolve the request's dirty mask; and return it.

        Functional mode (``new_words`` present and a backing store
        attached): perform the chip-level read-before-write comparison —
        silent stores fall out naturally as words whose new value equals
        the stored value.  The comparison *narrows* any mask the cache
        supplied (a word flagged dirty by the cache but holding an
        unchanged value is a silent store, paper §III-B).

        Statistical mode: trust the trace-provided mask.
        """
        if not request.is_write:
            raise ValueError("essential-word detection applies to writes only")
        mask = request.dirty_mask
        if self.storage is not None and request.new_words is not None:
            old = self.storage.read_line(request.line_address).words
            request.old_words = old
            comparison = diff_words(old, request.new_words)
            mask = comparison & mask if request.dirty_mask else comparison
            request.dirty_mask = mask
        return request.dirty_mask
