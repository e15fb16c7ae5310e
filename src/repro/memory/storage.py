"""Functional backing store for the PCM array.

In functional mode the simulator keeps real line contents so that the
essential-word detector, the SECDED codec and the PCC reconstruction all
operate on actual bits (tests prove end-to-end data integrity this way).
Only touched lines are materialised; untouched lines read as a
deterministic pseudo-random pattern derived from the line address so that
"cold" reads still produce stable, checkable data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

from repro.ecc import hamming, parity
from repro.memory.request import WORDS_PER_LINE

_WORD_MASK = (1 << 64) - 1


@lru_cache(maxsize=32768)
def _cold_pattern(line_address: int) -> Tuple[int, ...]:
    """Deterministic initial contents of an untouched line.

    A splitmix64-style mix of the line address and word index — cheap,
    stable across runs, and bit-dense enough to exercise the ECC paths.
    Memoised (the pattern is a pure function of the address): sweeps
    re-materialise the same cold lines across systems and seeds.
    """
    words = []
    for i in range(WORDS_PER_LINE):
        z = (line_address * WORDS_PER_LINE + i + 0x9E3779B97F4A7C15) & _WORD_MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _WORD_MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _WORD_MASK
        words.append(z ^ (z >> 31))
    return tuple(words)


@lru_cache(maxsize=32768)
def _cold_line(line_address: int) -> Tuple[Tuple[int, ...], Tuple[int, ...], int]:
    """Fully derived ``(words, checks, pcc)`` template of a cold line.

    Pure function of the address, so the SECDED line encode and the PCC
    parity are computed once per line *process-wide* and shared by every
    :class:`MemoryStorage` instance (the tuples are immutable; stores
    replace whole :class:`StoredLine` records, never mutate them).
    """
    words = _cold_pattern(line_address)
    return words, hamming.encode_line(words), parity.compute_parity(words)


@dataclass
class StoredLine:
    """A materialised line with its code words."""

    words: Tuple[int, ...]
    checks: Tuple[int, ...]  #: SECDED byte per word (the ECC chip's word)
    pcc: int                 #: XOR parity word (the PCC chip's word)


class MemoryStorage:
    """Sparse functional image of the PCM main memory."""

    def __init__(self, keep_pcc: bool = True):
        self.keep_pcc = keep_pcc
        self._lines: Dict[int, StoredLine] = {}
        #: Writes whose per-word comparison found no change (silent words).
        self.silent_word_writes = 0
        #: Total dirty words actually committed to the array.
        self.committed_words = 0

    # ------------------------------------------------------------------
    def _materialise(self, line_address: int) -> StoredLine:
        line = self._lines.get(line_address)
        if line is None:
            words, checks, pcc = _cold_line(line_address)
            line = StoredLine(
                words=words,
                checks=checks,
                pcc=pcc if self.keep_pcc else 0,
            )
            self._lines[line_address] = line
        return line

    # ------------------------------------------------------------------
    def read_line(self, line_address: int) -> StoredLine:
        """Full line as the chips would return it (data + ECC + PCC)."""
        return self._materialise(line_address)

    def read_word(self, line_address: int, word: int) -> int:
        """One 64-bit data word (a single chip's contribution)."""
        if not 0 <= word < WORDS_PER_LINE:
            raise ValueError(f"word index out of range: {word}")
        return self._materialise(line_address).words[word]

    def diff_mask(self, line_address: int, new_words: Tuple[int, ...]) -> int:
        """Dirty-word mask: which words of ``new_words`` differ from memory.

        This is the read-before-write comparison the PCM chips perform
        (paper §IV-A1, approach 3).
        """
        if len(new_words) != WORDS_PER_LINE:
            raise ValueError("expected 8 words")
        old = self._materialise(line_address).words
        mask = 0
        bit = 1
        silent = 0
        for old_word, new_word in zip(old, new_words):
            if old_word != new_word:
                mask |= bit
            else:
                silent += 1
            bit <<= 1
        self.silent_word_writes += silent
        return mask

    def write_line(
        self,
        line_address: int,
        new_words: Tuple[int, ...],
        dirty_mask: Optional[int] = None,
    ) -> int:
        """Commit the dirty words of a write-back; returns the mask used.

        When ``dirty_mask`` is ``None`` it is derived by comparison (a
        differential write).  Clean words are left untouched; the ECC and
        PCC words are updated incrementally for the words that changed.
        """
        old = self._materialise(line_address)
        if dirty_mask is None:
            dirty_mask = self.diff_mask(line_address, new_words)
        mask = dirty_mask & ((1 << WORDS_PER_LINE) - 1)
        if not mask:
            return dirty_mask
        words = list(old.words)
        checks = list(old.checks)
        pcc = old.pcc
        keep_pcc = self.keep_pcc
        committed = 0
        remaining = mask
        while remaining:
            i = (remaining & -remaining).bit_length() - 1
            remaining &= remaining - 1
            new_word = new_words[i]
            if keep_pcc:
                pcc ^= words[i] ^ new_word
            words[i] = new_word
            checks[i] = hamming.encode(new_word)
            committed += 1
        self.committed_words += committed
        self._lines[line_address] = StoredLine(tuple(words), tuple(checks), pcc)
        return dirty_mask

    # ------------------------------------------------------------------
    # RoW's codec steps (paper §IV-B).  They live with the store so that
    # the codec loads only with it: a timing-only run never imports it.
    # ------------------------------------------------------------------
    def reconstruct_line(
        self, line_address: int, missing_word: int
    ) -> Tuple[int, ...]:
        """The line as a RoW read returns it while ``missing_word``'s
        chip is busy: the other seven words plus the PCC parity word."""
        stored = self.read_line(line_address)
        partial = [
            None if w == missing_word else stored.words[w]
            for w in range(WORDS_PER_LINE)
        ]
        return parity.reconstruct_word(partial, stored.pcc)

    def word_corrupted(self, line_address: int, word: int, value: int) -> bool:
        """The deferred SECDED verify of a reconstructed word: ``True``
        when ``value`` fails the check or differs from the stored word."""
        stored = self.read_line(line_address)
        result = hamming.decode(value, stored.checks[word])
        return (
            not result.ok or result.data != stored.words[word]
            or value != stored.words[word]
        )

    # ------------------------------------------------------------------
    # Fault injection (used to exercise RoW's deferred verification)
    # ------------------------------------------------------------------
    def corrupt_bit(self, line_address: int, word: int, bit: int) -> None:
        """Flip one data bit *without* updating ECC/PCC.

        Models a soft error in the array; a subsequent SECDED decode will
        report a correctable single-bit error.
        """
        if not 0 <= bit < 64:
            raise ValueError(f"bit index out of range: {bit}")
        line = self._materialise(line_address)
        words = list(line.words)
        words[word] ^= 1 << bit
        self._lines[line_address] = StoredLine(tuple(words), line.checks, line.pcc)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of materialised lines."""
        return len(self._lines)

    def __contains__(self, line_address: int) -> bool:
        return line_address in self._lines
