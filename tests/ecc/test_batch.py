"""Scalar/vector parity suite for the batch encoder and storage prefetch.

The contract under test: every ``repro.ecc.batch`` array operation and
``MemoryStorage.prefetch`` are **bit-identical** to the scalar
implementation they accelerate.  That equivalence is what lets the
storage layer pick whichever path is available without moving golden
traces or perf fingerprints.

Two layers of evidence:

* hypothesis fuzz over random words, lines and line addresses,
* storage-level prefetch-vs-lazy differential runs, plus a subprocess
  leg that re-imports everything under ``REPRO_NO_NUMPY=1`` and proves
  the fallback produces the same bytes.

The exhaustive corruption classes of the decoder live with it, in
``tests/ecc/test_hamming.py``.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc import batch, hamming, parity
from repro.ecc.hamming import DecodeStatus
from repro.memory.storage import MemoryStorage, _cold_pattern

requires_numpy = pytest.mark.skipif(
    not batch.HAS_NUMPY, reason="numpy unavailable (scalar-only build)"
)

WORD = st.integers(min_value=0, max_value=(1 << 64) - 1)
LINE = st.tuples(*([WORD] * 8))


# ----------------------------------------------------------------------
# Word-level fuzz parity
# ----------------------------------------------------------------------
@requires_numpy
@settings(max_examples=200, deadline=None)
@given(st.lists(WORD, min_size=1, max_size=64))
def test_encode_words_matches_scalar(words):
    np = batch.np
    got = batch.encode_words(np.array(words, dtype=np.uint64))
    assert got.tolist() == [hamming.encode(w) for w in words]


@requires_numpy
@settings(max_examples=100, deadline=None)
@given(st.lists(WORD, min_size=1, max_size=32))
def test_decode_of_clean_encoding_is_clean(words):
    """Batch-encoded check bytes are valid codewords for the decoder."""
    np = batch.np
    checks = batch.encode_words(np.array(words, dtype=np.uint64)).tolist()
    for word, check in zip(words, checks):
        assert hamming.decode(word, check) == hamming.DecodeResult(
            word, DecodeStatus.CLEAN, -1
        )


@requires_numpy
@settings(max_examples=100, deadline=None)
@given(st.lists(LINE, min_size=1, max_size=16))
def test_encode_lines_matches_scalar(lines):
    np = batch.np
    checks, pcc = batch.encode_lines(np.array(lines, dtype=np.uint64))
    assert checks.tolist() == [list(hamming.encode_line(l)) for l in lines]
    assert pcc.tolist() == [parity.compute_parity(l) for l in lines]


@requires_numpy
@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=1,
                max_size=32))
def test_cold_line_words_matches_scalar_pattern(addresses):
    np = batch.np
    got = batch.cold_line_words(np.array(addresses, dtype=np.uint64))
    assert got.tolist() == [list(_cold_pattern(a)) for a in addresses]


@requires_numpy
def test_encode_lines_requires_eight_words():
    np = batch.np
    with pytest.raises(ValueError, match="last axis"):
        batch.encode_lines(np.zeros((4, 7), dtype=np.uint64))


# ----------------------------------------------------------------------
# Storage prefetch vs lazy materialisation
# ----------------------------------------------------------------------
@requires_numpy
def test_prefetch_matches_lazy_materialisation():
    rng = random.Random(7)
    addresses = rng.sample(range(1 << 28), 64)
    fast, slow = MemoryStorage(), MemoryStorage()
    assert fast.prefetch(addresses) == len(addresses)
    for address in addresses:
        assert fast.read_line(address) == slow.read_line(address)
    # Idempotent, counter-free, and never overwrites a written line.
    assert fast.prefetch(addresses) == 0
    fast.write_line(addresses[0], (1,) * 8)
    written = fast.read_line(addresses[0])
    fast.prefetch(addresses)
    assert fast.read_line(addresses[0]) == written
    assert fast.silent_word_writes == slow.silent_word_writes


@requires_numpy
def test_corrupt_bit_then_batch_decode_reports_correctable():
    """A vector-prefetched line's codes catch a flipped bit: the line
    decode corrects that word and finds every other word clean."""
    storage = MemoryStorage()
    addresses = list(range(100, 132))
    storage.prefetch(addresses)
    victim = addresses[3]
    original = storage.read_line(victim).words[2]
    storage.corrupt_bit(victim, word=2, bit=17)
    line = storage.read_line(victim)
    _, results = hamming.decode_line(line.words, line.checks)
    assert results[2].status is DecodeStatus.CORRECTED_DATA
    assert results[2].data == original
    for i, result in enumerate(results):
        if i != 2:
            assert result.status is DecodeStatus.CLEAN


# ----------------------------------------------------------------------
# The no-numpy build, exercised for real in a subprocess
# ----------------------------------------------------------------------
_FALLBACK_PROBE = textwrap.dedent(
    """
    import random

    from repro.ecc import batch
    from repro.memory.storage import MemoryStorage

    assert not batch.HAS_NUMPY
    assert batch.np is None
    reason = batch.numpy_disabled_reason()
    assert reason and "REPRO_NO_NUMPY" in reason, reason

    # Array entry points refuse loudly rather than half-working.
    for fn, args in (
        (batch.encode_words, ([1, 2],)),
        (batch.encode_lines, ([[0] * 8],)),
        (batch.cold_line_words, ([3],)),
    ):
        try:
            fn(*args)
        except RuntimeError as error:
            assert "REPRO_NO_NUMPY" in str(error)
        else:
            raise AssertionError(f"{fn.__name__} did not raise")

    # Prefetch silently takes the scalar route.
    rng = random.Random(5)
    addresses = rng.sample(range(1 << 24), 32)
    batched, scalar = MemoryStorage(), MemoryStorage()
    assert batched.prefetch(addresses) == len(addresses)
    for address in addresses:
        assert batched.read_line(address) == scalar.read_line(address)
    print("FALLBACK-OK")
    """
)


def test_no_numpy_fallback_subprocess():
    """Re-import the stack under REPRO_NO_NUMPY=1 and prove the scalar
    fallback is complete and byte-identical for storage prefetch."""
    env = dict(os.environ, REPRO_NO_NUMPY="1")
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-c", _FALLBACK_PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "FALLBACK-OK" in proc.stdout
