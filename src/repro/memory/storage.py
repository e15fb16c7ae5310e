"""Functional backing store for the PCM array.

In functional mode the simulator keeps real line contents so that the
essential-word detector, the SECDED codec and the PCC reconstruction all
operate on actual bits (tests prove end-to-end data integrity this way).
Only touched lines are materialised; untouched lines read as a
deterministic pseudo-random pattern derived from the line address so that
"cold" reads still produce stable, checkable data.

Timing-only simulations never build a store, so they never import numpy:
:class:`MemoryStorage` resolves :mod:`repro.ecc.batch`'s optional vector
path when it is constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.ecc import batch, hamming, parity
from repro.memory.request import WORDS_PER_LINE

_WORD_MASK = (1 << 64) - 1

#: Below this many lines the scalar path wins: numpy's per-call overhead
#: on 8-element arrays is a measured ~4x *regression* per line, while a
#: full batch amortises to ~3x faster — so single-line operations stay
#: scalar and only genuine batches take the vector path.
_BATCH_MIN_LINES = 16


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
        #: Whether the batch methods may take the vector path.  Reading
        #: ``batch.HAS_NUMPY`` here imports numpy while a functional run
        #: is built, never inside its run.
        self._vector = batch.HAS_NUMPY
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
    # Batch fast path (repro.ecc.batch; scalar fallback is automatic)
    # ------------------------------------------------------------------
    def prefetch(self, line_addresses: Iterable[int]) -> int:
        """Materialise many cold lines at once; returns how many were new.

        With numpy available the cold patterns, SECDED check bytes and
        PCC parities of every missing line are computed as three array
        operations (:func:`repro.ecc.batch.cold_line_words` +
        :func:`repro.ecc.batch.encode_lines`) — bit-identical to the
        scalar :func:`_cold_line` template, just amortised.  Without
        numpy (or below :data:`_BATCH_MIN_LINES`) it degrades to the
        per-line path, so callers never need to gate on the extra.

        Prefetching is semantically invisible: it inserts exactly the
        records lazy materialisation would, touches no counters, and
        never overwrites a line that already exists.
        """
        lines = self._lines
        missing = [a for a in line_addresses if a not in lines]
        if not missing:
            return 0
        if self._vector and len(missing) >= _BATCH_MIN_LINES:
            np = batch.np
            addresses = np.array(missing, dtype=np.uint64)
            words = batch.cold_line_words(addresses)
            checks, pcc = batch.encode_lines(words)
            # .tolist() yields plain Python ints — the stored tuples are
            # indistinguishable from the scalar path's.
            pcc_values = pcc.tolist() if self.keep_pcc else [0] * len(missing)
            for address, w, c, p in zip(
                missing, words.tolist(), checks.tolist(), pcc_values
            ):
                lines[address] = StoredLine(tuple(w), tuple(c), p)
        else:
            for address in missing:
                self._materialise(address)
        return len(missing)

    def diff_masks(
        self,
        line_addresses: Sequence[int],
        new_lines: Sequence[Tuple[int, ...]],
    ) -> List[int]:
        """Batch :meth:`diff_mask`: dirty-word masks for many write-backs.

        Same read-before-write comparison and ``silent_word_writes``
        accounting as the scalar call, vectorised when numpy is present.
        """
        if len(line_addresses) != len(new_lines):
            raise ValueError("line_addresses and new_lines length mismatch")
        if not (self._vector and len(line_addresses) >= _BATCH_MIN_LINES):
            return [
                self.diff_mask(address, words)
                for address, words in zip(line_addresses, new_lines)
            ]
        self.prefetch(line_addresses)
        np = batch.np
        old = np.array(
            [self._lines[a].words for a in line_addresses], dtype=np.uint64
        )
        new = np.array(new_lines, dtype=np.uint64)
        if new.shape != old.shape:
            raise ValueError("expected 8 words per line")
        changed = old != new
        masks = np.packbits(changed, axis=-1, bitorder="little")[:, 0]
        self.silent_word_writes += int(changed.size - changed.sum())
        return masks.tolist()

    def write_lines(
        self,
        line_addresses: Sequence[int],
        new_lines: Sequence[Tuple[int, ...]],
        dirty_masks: Optional[Sequence[Optional[int]]] = None,
    ) -> List[int]:
        """Batch :meth:`write_line` over many independent write-backs.

        The vector path recomputes check bytes with the batch encoder
        and folds the PCC update (``pcc ^= old ^ new`` over the dirty
        words) as one XOR reduction per line.  Subclasses that override
        :meth:`write_line` (the fault-injecting storage's ledger
        bookkeeping) automatically fall back to the per-line call, so
        the batch API is always safe to use.

        ``line_addresses`` must not repeat within one call on the vector
        path: the commits are computed against a single snapshot.
        """
        if len(line_addresses) != len(new_lines):
            raise ValueError("line_addresses and new_lines length mismatch")
        if dirty_masks is not None and len(dirty_masks) != len(new_lines):
            raise ValueError("dirty_masks length mismatch")
        scalar_override = (
            type(self).write_line is not MemoryStorage.write_line
        )
        mixed_masks = dirty_masks is not None and any(
            m is None for m in dirty_masks
        )
        if (
            scalar_override
            or mixed_masks
            or not self._vector
            or len(line_addresses) < _BATCH_MIN_LINES
        ):
            return [
                self.write_line(
                    address,
                    words,
                    None if dirty_masks is None else dirty_masks[i],
                )
                for i, (address, words) in enumerate(
                    zip(line_addresses, new_lines)
                )
            ]
        if len(set(line_addresses)) != len(line_addresses):
            raise ValueError(
                "write_lines: duplicate line addresses in one batch"
            )
        self.prefetch(line_addresses)
        np = batch.np
        lines = self._lines
        old = np.array(
            [lines[a].words for a in line_addresses], dtype=np.uint64
        )
        old_checks = np.array(
            [lines[a].checks for a in line_addresses], dtype=np.uint8
        )
        old_pcc = np.array(
            [lines[a].pcc for a in line_addresses], dtype=np.uint64
        )
        new = np.array(new_lines, dtype=np.uint64)
        if new.shape != old.shape:
            raise ValueError("expected 8 words per line")
        if dirty_masks is None:
            changed = old != new
            masks = np.packbits(changed, axis=-1, bitorder="little")[:, 0]
            self.silent_word_writes += int(changed.size - changed.sum())
            out_masks = masks.tolist()
        else:
            out_masks = [int(m) & 0xFF for m in dirty_masks]
            masks = np.array(out_masks, dtype=np.uint8)
            bits = np.arange(WORDS_PER_LINE, dtype=np.uint8)
            changed = (masks[:, None] >> bits) & np.uint8(1)
            changed = changed.astype(bool)
        committed = int(changed.sum())
        if committed:
            words = np.where(changed, new, old)
            checks = np.where(changed, batch.encode_words(new), old_checks)
            if self.keep_pcc:
                delta = np.bitwise_xor.reduce(
                    np.where(changed, old ^ new, np.uint64(0)), axis=-1
                )
                pcc = (old_pcc ^ delta).tolist()
            else:
                pcc = old_pcc.tolist()
            touched = changed.any(axis=-1).tolist()
            for i, (address, is_dirty) in enumerate(
                zip(line_addresses, touched)
            ):
                if is_dirty:
                    lines[address] = StoredLine(
                        tuple(words[i].tolist()),
                        tuple(checks[i].tolist()),
                        pcc[i],
                    )
            self.committed_words += committed
        # Scalar write_line returns the caller's mask (pre-truncation)
        # when one is supplied; mirror that exactly.
        if dirty_masks is not None:
            return [int(m) for m in dirty_masks]
        return out_masks

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
