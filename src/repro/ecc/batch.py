"""Vectorized batch SECDED/PCC encoder (the ``repro[fast]`` path).

:mod:`repro.ecc.hamming` encodes one 64-bit word per Python call — fine
for spot checks, but the simulator's functional layer encodes words by
the thousand (the epoch prefetch of cold lines, the fault oracle's
end-of-run sweep).  This module lifts the same byte-sliced table
construction onto numpy arrays so a whole batch of words — or whole
cache lines of eight words plus their check bytes and PCC parity — is
encoded in a handful of array operations:

* **encode** — the 8×256 contribution tables of the scalar fast path are
  stacked into one ``(8, 256)`` ``uint8`` array; encoding N words is
  eight ``np.take`` gathers XORed together, exactly mirroring
  ``hamming.encode``'s eight table lookups.
* **lines** — 64-byte lines are ``(N, 8)`` ``uint64`` arrays; check
  bytes come from the word encoder and the PCC word is an XOR reduction
  along the word axis (:mod:`repro.ecc.parity` semantics).
* **cold lines** — the splitmix64-style cold pattern of
  :mod:`repro.memory.storage` is a pure function of the line address, so
  it vectorises exactly (``uint64`` arithmetic wraps mod 2**64 just like
  the masked Python-int arithmetic).

numpy is an *optional* dependency (``pip install repro[fast]``) and loads
on first use: the first read of ``HAS_NUMPY`` or ``np``, or the first
vector call, imports it, never ``import repro``.  When it is missing or
broken — or when ``REPRO_NO_NUMPY`` is set in the environment, which CI's
fallback leg uses to exercise this path deliberately — ``HAS_NUMPY`` is
``False`` and every caller falls back to the scalar implementations.
The scalar and vector paths are held bit-identical by the parity fuzz
suite (``tests/ecc/test_batch.py``), which is what lets the storage layer
switch between them freely without moving the golden traces.  Decoding
stays scalar (:func:`repro.ecc.hamming.decode`): no run decodes in bulk.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Optional, Tuple

from repro.ecc import hamming

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "HAS_NUMPY",
    "numpy_disabled_reason",
    "encode_words",
    "encode_lines",
    "cold_line_words",
]

# numpy resolves on first use, never at import: ``import repro`` and every
# timing-only run skip it.  :func:`_load_numpy` decides the path once and
# binds the names below (``HAS_NUMPY`` and ``np`` are served by the module
# ``__getattr__`` until then).
_loaded = False
_np: Any = None
_disabled_reason: Optional[str] = None
#: (8, 256) stacked byte-contribution tables — row ``b`` is the check
#: byte of the word whose byte ``b`` is the column value (all other
#: bytes zero); GF(2)-linearity makes encode the XOR of eight rows.
_ENC_TABLE: Any = None
_U64: Any = None
_SHIFTS: Any = None
_BYTE: Any = None


def __getattr__(name: str) -> Any:
    """``HAS_NUMPY`` and ``np`` resolve on their first read (PEP 562)."""
    if name in ("HAS_NUMPY", "np"):
        _load_numpy()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _load_numpy() -> Any:
    """numpy, or ``None`` when it is absent, disabled or broken.

    Decided once, on the first read of ``HAS_NUMPY``/``np`` or the first
    vector call, after which both are plain module attributes.
    """
    global _loaded, _np, _disabled_reason
    global _ENC_TABLE, _U64, _SHIFTS, _BYTE
    if _loaded:
        return _np
    if os.environ.get("REPRO_NO_NUMPY"):
        _disabled_reason = "REPRO_NO_NUMPY is set in the environment"
    else:
        try:
            import numpy as _np
        except ImportError as error:
            _disabled_reason = (
                f"numpy cannot be imported ({error}); pip install repro[fast]"
            )
    if _np is not None:
        np = _np
        _ENC_TABLE = np.array(hamming._ENC_TABLE, dtype=np.uint8)
        _U64 = np.uint64
        _SHIFTS = tuple(_U64(8 * b) for b in range(8))
        _BYTE = _U64(0xFF)
    globals().update(HAS_NUMPY=_np is not None, np=_np)
    _loaded = True
    return _np


def numpy_disabled_reason() -> Optional[str]:
    """Why the vector path is unavailable, or ``None`` when it is live."""
    _load_numpy()
    return _disabled_reason


def _require_numpy() -> Any:
    """numpy for a vector entry point; raises on the scalar path."""
    np = _load_numpy()
    if np is None:
        raise RuntimeError(
            f"repro.ecc.batch vector path unavailable: {_disabled_reason}"
        )
    return np


# ----------------------------------------------------------------------
# Word-level batch codec
# ----------------------------------------------------------------------
def encode_words(words: "np.ndarray") -> "np.ndarray":
    """SECDED check bytes of a ``uint64`` array of data words.

    Accepts any shape; returns ``uint8`` of the same shape.  Mirrors
    :func:`repro.ecc.hamming.encode` (eight table lookups XORed).
    """
    np = _require_numpy()
    w = np.ascontiguousarray(words, dtype=_U64)
    flat = w.reshape(-1)
    out = np.take(_ENC_TABLE[0], (flat & _BYTE).astype(np.intp))
    for b in range(1, 8):
        out ^= np.take(
            _ENC_TABLE[b], ((flat >> _SHIFTS[b]) & _BYTE).astype(np.intp)
        )
    return out.reshape(w.shape)


# ----------------------------------------------------------------------
# Line-level batch codec
# ----------------------------------------------------------------------
def encode_lines(lines: "np.ndarray") -> Tuple["np.ndarray", "np.ndarray"]:
    """Check bytes and PCC parity of an ``(..., 8)`` array of lines.

    Returns ``(checks, pcc)`` where ``checks`` matches the input shape
    and ``pcc`` drops the word axis — the XOR of the eight data words,
    i.e. :func:`repro.ecc.parity.compute_parity` over every line at once.
    """
    np = _require_numpy()
    arr = np.ascontiguousarray(lines, dtype=_U64)
    if arr.shape[-1] != 8:
        raise ValueError(f"last axis must hold 8 words, got {arr.shape}")
    checks = encode_words(arr)
    pcc = np.bitwise_xor.reduce(arr, axis=-1)
    return checks, pcc


# ----------------------------------------------------------------------
# Cold-line pattern (mirrors repro.memory.storage._cold_pattern)
# ----------------------------------------------------------------------
_COLD_GAMMA = 0x9E3779B97F4A7C15
_COLD_MIX1 = 0xBF58476D1CE4E5B9
_COLD_MIX2 = 0x94D049BB133111EB


def cold_line_words(line_addresses: "np.ndarray") -> "np.ndarray":
    """Deterministic cold contents of many lines as an ``(N, 8)`` array.

    Bit-identical to :func:`repro.memory.storage._cold_pattern`: uint64
    arithmetic wraps modulo 2**64 exactly like the masked Python-int
    splitmix64 mix.
    """
    np = _require_numpy()
    addresses = np.ascontiguousarray(line_addresses, dtype=_U64)
    z = (
        addresses[..., None] * _U64(8)
        + np.arange(8, dtype=_U64)
        + _U64(_COLD_GAMMA)
    )
    z = (z ^ (z >> _U64(30))) * _U64(_COLD_MIX1)
    z = (z ^ (z >> _U64(27))) * _U64(_COLD_MIX2)
    return z ^ (z >> _U64(31))
