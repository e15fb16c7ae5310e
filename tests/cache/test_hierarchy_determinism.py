"""The cache hierarchy's memory-level stream, pinned per policy.

The hierarchy (and the replacement policies behind it) must never iterate
a hash-ordered container on a decision path: the same trace and config
must produce a byte-identical write-back stream whatever PYTHONHASHSEED
the interpreter started with.  Mirrors the synthetic-trace pin in
``tests/trace/test_synthetic.py``.

The stream is also pinned to a digest per policy, with and without
functional words, so any change to hit levels, fills or write-backs
(address, mask or words) fails here.  The addresses come from the high
bits of the LCG state: its low bits cycle with period 512, which walks
the 512 lines in a fixed order on which LRU and CLOCK emit the same
stream.
"""

import os
import subprocess
import sys

import pytest

import repro

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Replays a deterministic pseudo-random access pattern through a tiny
#: three-level hierarchy, with and without ``track_words``, and prints
#: one digest of each memory-level stream — hit levels, fills, and
#: write-back addresses, masks and words, in order.
_SCRIPT = """
import hashlib
from repro.cache.dram_cache import DramCacheConfig
from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig

LINE = 64
for track_words in (False, True):
    hierarchy = CacheHierarchy(
        n_cores=2,
        config=HierarchyConfig(
            l1_size=4 * LINE, l1_associativity=2,
            l2_size=16 * LINE, l2_associativity=2,
            dram_cache=DramCacheConfig(size_bytes=64 * LINE, associativity=2),
            replacement={policy!r},
            track_words=track_words,
        ),
    )
    h = hashlib.sha256()
    state = 12345
    for i in range(4000):
        state = (state * 1103515245 + 12345) % (1 << 31)
        high = state >> 12
        address = (high % 512) * LINE + (high % 8) * 8
        is_write = high % 3 == 0
        value = high if track_words and is_write else None
        outcome = hierarchy.reference(i % 2, address, is_write, value)
        h.update(repr((outcome.hit_level, tuple(outcome.fills))).encode())
        for wb in outcome.write_backs:
            h.update(repr((wb.address, wb.dirty_mask, wb.words)).encode())
    print(h.hexdigest())
"""

#: (without words, with words) digests per policy.
PINNED = {
    "lru": (
        "520eb41cdb0038c8e04897956266086aa377758e9b5811a57cf282608954d46f",
        "2a8e72179ba0d803548c724735030311e3c7428b8b5c3e0dfdb08a599a5f7e11",
    ),
    "clock": (
        "7b9f80fc143716a7f00659e112a1e0daf0b323f825f82536ad1f310215d01977",
        "27212cbbfac2d003099cb535dee413fc53ac410eeab59514fb46d65dcfe1a022",
    ),
    "mac": (
        "c490580cc07349ab83df150dfb5b4547ddb877c9a6ee51c7c7c26a1596dabf0c",
        "189b1297aff9bee8644d704e81d67782219236cf9fa88ce64f01240a3a27d0be",
    ),
}


def test_pins_tell_the_policies_apart():
    assert len({digests[0] for digests in PINNED.values()}) == 3
    assert len({digests[1] for digests in PINNED.values()}) == 3


@pytest.mark.parametrize("policy", ["lru", "clock", "mac"])
def test_writeback_stream_identical_across_hash_seeds(policy):
    streams = set()
    for hash_seed in ("0", "1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=_SRC)
        proc = subprocess.run(
            [sys.executable, "-c", _SCRIPT.format(policy=policy)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        streams.add(tuple(proc.stdout.split()))
    assert len(streams) == 1, (
        f"{policy} hierarchy stream depends on PYTHONHASHSEED: {streams}"
    )
    assert streams.pop() == PINNED[policy]
