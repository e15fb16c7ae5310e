"""Differential validation: a shadow golden memory + the checks.

The simulated array can legitimately diverge from the intended memory
contents — that is what fault injection *does* — but every divergence
must be accounted for in the storage's fault ledger.  The oracle pins
the relation down exactly:

    raw word        == golden word  XOR  ledger data flip
    raw check byte  == encode(golden word)  XOR  ledger check flip
    raw PCC         == XOR of golden words  XOR  ledger PCC flip

:class:`GoldenMemory` is the shadow model: a trivial word-addressed map
that mirrors every *commit* (the intended values of a write-back) and
derives untouched lines from the same cold pattern as the simulated
storage.  It knows nothing about timing, scheduling, ECC, PCC
reconstruction, scrubbing, or faults — which is the point: any bug in
those layers that corrupts state without a ledger entry breaks the
relation above and is caught either at the next read completion or by
the end-of-run sweep.

The oracle deliberately checks *storage line state*, not the data words
a request carries: controllers forward pending writes into reads, so a
request's payload can legitimately be newer than the array.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.ecc import hamming
from repro.memory.request import WORDS_PER_LINE
from repro.memory.storage import _cold_pattern


class GoldenMemory:
    """The intended memory contents: commits applied, nothing else."""

    def __init__(self) -> None:
        self._lines: Dict[int, Tuple[int, ...]] = {}
        self.commits = 0

    def commit(self, line_address: int, new_words: Tuple[int, ...], mask: int) -> None:
        """Apply the committed words of one write-back."""
        if not mask:
            return
        words = list(self._lines.get(line_address) or _cold_pattern(line_address))
        for i in range(WORDS_PER_LINE):
            if mask & (1 << i):
                words[i] = new_words[i]
        self._lines[line_address] = tuple(words)
        self.commits += 1

    def read(self, line_address: int) -> Tuple[int, ...]:
        """The intended words of a line (cold pattern if never written)."""
        return self._lines.get(line_address) or _cold_pattern(line_address)

    def __len__(self) -> int:
        return len(self._lines)

    def fingerprint(self) -> str:
        """Order-independent digest of every written line's final state.

        Two runs that committed the same values to the same lines — in
        any order — produce the same fingerprint; this is what the
        cross-system convergence check compares.
        """
        digest = hashlib.sha256()
        for line_address in sorted(self._lines):
            digest.update(line_address.to_bytes(8, "little"))
            for word in self._lines[line_address]:
                digest.update(word.to_bytes(8, "little"))
        return digest.hexdigest()


@dataclass
class OracleViolation:
    """One detected divergence between golden model and simulated array."""

    line_address: int
    slot: str        #: "word[i]", "check[i]", or "pcc"
    expected: int
    actual: int
    when: str        #: "read" or "final"

    def __str__(self) -> str:
        return (
            f"line 0x{self.line_address:x} {self.slot} ({self.when}): "
            f"expected 0x{self.expected:016x}, got 0x{self.actual:016x}"
        )


@dataclass
class DifferentialOracle:
    """Checks simulated storage against :class:`GoldenMemory`.

    Wire :meth:`on_commit` as the storage's ``oracle`` (the
    fault-injecting storage calls it inside ``write_line``, so golden
    and array commit atomically), and :meth:`on_read_complete` as each
    controller's ``read_completion_hook``.
    """

    golden: GoldenMemory = field(default_factory=GoldenMemory)
    violations: List[OracleViolation] = field(default_factory=list)
    reads_checked: int = 0
    lines_checked: int = 0

    # -- wiring ---------------------------------------------------------
    def on_commit(self, line_address: int, new_words: Tuple[int, ...], mask: int) -> None:
        self.golden.commit(line_address, new_words, mask)

    def on_read_complete(self, request) -> None:
        """Per-read check: the accessed line must satisfy the ledger relation."""
        storage = self._storage
        if storage is None:
            return
        self.reads_checked += 1
        self.check_line(storage, request.line_address, when="read")

    def attach(self, storage) -> "DifferentialOracle":
        """Remember the storage to check reads against (fluent)."""
        self._storage = storage
        return self

    _storage: object = None

    # -- checks ---------------------------------------------------------
    def check_line(self, storage, line_address: int, when: str = "final") -> bool:
        """Assert the ledger relation for one line; record violations."""
        raw = storage.raw_line(line_address)
        golden = self.golden.read(line_address)
        before = len(self.violations)
        for i in range(WORDS_PER_LINE):
            expected = golden[i] ^ storage.data_flip(line_address, i)
            if raw.words[i] != expected:
                self.violations.append(
                    OracleViolation(line_address, f"word[{i}]", expected, raw.words[i], when)
                )
            expected_check = hamming.encode(golden[i]) ^ storage.check_flip(line_address, i)
            if raw.checks[i] != expected_check:
                self.violations.append(
                    OracleViolation(line_address, f"check[{i}]", expected_check, raw.checks[i], when)
                )
        if storage.keep_pcc:
            pcc = 0
            for word in golden:
                pcc ^= word
            expected_pcc = pcc ^ storage.pcc_flip(line_address)
            if raw.pcc != expected_pcc:
                self.violations.append(
                    OracleViolation(line_address, "pcc", expected_pcc, raw.pcc, when)
                )
        self.lines_checked += 1
        return len(self.violations) == before

    def check_all(self, storage) -> bool:
        """End-of-run sweep: :meth:`check_line` on every materialised
        line, in address order."""
        clean = True
        for line_address in sorted(storage.lines()):
            clean = self.check_line(storage, line_address, when="final") and clean
        return clean

    # -- reporting ------------------------------------------------------
    @property
    def ok(self) -> bool:
        return not self.violations

    def assert_clean(self) -> None:
        if self.violations:
            head = "; ".join(str(v) for v in self.violations[:5])
            raise AssertionError(
                f"differential oracle: {len(self.violations)} violation(s): {head}"
            )

    def as_dict(self) -> dict:
        return {
            "reads_checked": self.reads_checked,
            "lines_checked": self.lines_checked,
            "golden_commits": self.golden.commits,
            "golden_lines": len(self.golden),
            "violations": len(self.violations),
            "first_violations": [str(v) for v in self.violations[:5]],
        }
