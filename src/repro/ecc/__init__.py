"""Error detection and correction substrates: SECDED Hamming and PCC parity."""

from repro.ecc import hamming, parity
from repro.ecc.hamming import DecodeResult, DecodeStatus, decode, encode
from repro.ecc.parity import compute_parity, reconstruct_word

__all__ = [
    "hamming",
    "parity",
    "DecodeResult",
    "DecodeStatus",
    "decode",
    "encode",
    "compute_parity",
    "reconstruct_word",
]
