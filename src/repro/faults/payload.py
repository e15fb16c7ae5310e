"""Concrete write payloads for functional fault campaigns.

The synthetic trace generators emit *shape* — addresses, dirty masks,
gaps — but no data values (``new_words is None``), and the functional
storage then treats a write as "no change".  Fault campaigns need real
payloads so commits actually move memory state and the golden model has
something to mirror.  :class:`WritePayloadAdapter` wraps a core's
record stream and fills in ``new_words`` for every dirty write-back.

Two modes:

* ``"static"`` — the payload is :func:`static_word`, a pure function of
  ``(line, word)``.  Writing the same line twice writes the same words,
  so the *final* memory state is independent of write ordering.  The
  cross-system convergence check depends on this: PCMap's schedulers
  legitimately reorder same-line writes relative to the baseline, and
  order-dependent payloads would diverge for reasons that are not bugs.
* ``"random"`` — fresh ``getrandbits(64)`` values from a per-adapter
  seeded stream for every dirty word.  Exercises the PCC drift and ECC
  re-encode paths much harder (every overwrite changes the word) and is
  what the fault campaigns use.

Records that are not dirty write-backs — reads, and the silent
(``dirty_mask == 0``) write-backs the paper's §IV essential-word
detector study relies on — pass through *unchanged*: giving a silent
write-back fresh payload words would make the detector see every word
as modified and expand the mask, changing the experiment.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Iterator

from repro.memory.request import WORDS_PER_LINE
from repro.trace.record import AccessKind, TraceRecord

_WORD_MASK = (1 << 64) - 1

# Distinct mixing constants from the cold pattern's, so "the payload
# happens to equal the cold word" never aliases a missed commit.
_PAY_1 = 0xD6E8FEB86659FD93
_PAY_2 = 0xA3B195354A39B70D


def static_word(line_address: int, word: int) -> int:
    """Pure ``(line, word) -> payload`` — order-independent final state."""
    z = (line_address * (WORDS_PER_LINE + 1) + word + 0x2545F4914F6CDD1D) & _WORD_MASK
    z = ((z ^ (z >> 29)) * _PAY_1) & _WORD_MASK
    z = ((z ^ (z >> 32)) * _PAY_2) & _WORD_MASK
    return z ^ (z >> 29)


class WritePayloadAdapter:
    """Iterator wrapper filling in ``new_words`` on dirty write-backs."""

    def __init__(
        self,
        records: Iterator[TraceRecord],
        mode: str = "random",
        seed: int = 1,
        core_id: int = 0,
    ):
        if mode not in ("static", "random"):
            raise ValueError(f"unknown payload mode: {mode!r}")
        self._records = iter(records)
        self.mode = mode
        self.rng = random.Random((seed * 0x100000001B3) ^ (core_id * 0x01000193))

    def __iter__(self) -> "WritePayloadAdapter":
        return self

    def __next__(self) -> TraceRecord:
        record = next(self._records)
        if (
            record.kind is not AccessKind.WRITE_BACK
            or record.dirty_mask == 0
            or record.new_words is not None
        ):
            return record
        line = record.address // 64
        if self.mode == "static":
            words = tuple(
                static_word(line, w) if record.dirty_mask & (1 << w) else 0
                for w in range(WORDS_PER_LINE)
            )
        else:
            words = tuple(
                self.rng.getrandbits(64) if record.dirty_mask & (1 << w) else 0
                for w in range(WORDS_PER_LINE)
            )
        return dataclasses.replace(record, new_words=words)
