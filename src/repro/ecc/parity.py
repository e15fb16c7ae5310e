"""PCC (Parity Correction Code) — the tenth chip of a PCMap rank.

RoW (paper §IV-B) treats the chip busy with an ongoing write as if it were
a failed chip and reconstructs the word it would have returned from the
other seven data words plus a striped XOR parity word, exactly like the
rotating parity of RAID-5.  The PCC word of a line is simply the XOR of
its eight data words; reconstruction of any single missing word is the XOR
of the remaining seven with the parity.

These helpers operate on tuples of 64-bit integers (one per 8-byte word of
the 64-byte line).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

WORDS_PER_LINE = 8
_WORD_MASK = (1 << 64) - 1


def _check_words(words: Sequence[int], expected: int = WORDS_PER_LINE) -> None:
    if len(words) != expected:
        raise ValueError(f"expected {expected} words, got {len(words)}")
    for word in words:
        if not 0 <= word <= _WORD_MASK:
            raise ValueError(f"word out of 64-bit range: {word:#x}")


def compute_parity(words: Sequence[int]) -> int:
    """XOR parity word over the eight data words of a line."""
    _check_words(words)
    parity = 0
    for word in words:
        parity ^= word
    return parity


def reconstruct_word(
    partial_words: Sequence[Optional[int]], parity: int
) -> Tuple[int, ...]:
    """Rebuild a line with exactly one missing word from the PCC parity.

    ``partial_words`` is the eight-entry word list with ``None`` in the
    position served by the busy (write-involved) chip.  Returns the full
    reconstructed line.  Raises ``ValueError`` unless exactly one word is
    missing — the PCC scheme can only tolerate a single busy chip, which
    is why RoW is restricted to writes with one essential word (§IV-B).
    """
    if len(partial_words) != WORDS_PER_LINE:
        raise ValueError(
            f"expected {WORDS_PER_LINE} entries, got {len(partial_words)}"
        )
    missing = [i for i, word in enumerate(partial_words) if word is None]
    if len(missing) != 1:
        raise ValueError(
            f"PCC reconstruction needs exactly 1 missing word, got {len(missing)}"
        )
    if not 0 <= parity <= _WORD_MASK:
        raise ValueError(f"parity out of 64-bit range: {parity:#x}")
    acc = parity
    for word in partial_words:
        if word is None:
            continue
        if not 0 <= word <= _WORD_MASK:
            raise ValueError(f"word out of 64-bit range: {word:#x}")
        acc ^= word
    rebuilt = list(partial_words)
    rebuilt[missing[0]] = acc
    return tuple(rebuilt)  # type: ignore[arg-type]
