"""Property tests: the columnar cache is bit-identical to the reference.

:class:`~repro.cache.set_assoc.ArraySetCache` must reproduce the
object-per-line reference model (:mod:`tests.cache.reference`) stream
for stream — every hit/miss verdict, every victim choice, every
write-back record, under all three replacement policies.  Hypothesis
drives random access streams (and mixed probe/install/invalidate/
merge_dirty/contains op sequences) through both on a tiny
eviction-heavy geometry and asserts the observable sequences match
exactly.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.set_assoc import ArraySetCache
from tests.cache.reference import SetAssociativeCache

LINE = 64
SETS = 4
ASSOC = 2
#: Line pool spanning 6 tags per set: far more tags than ways, so every
#: policy's victim selection is exercised constantly.
N_LINES = SETS * 6

POLICIES = ("lru", "clock", "mac")


def _pair(policy):
    size = LINE * SETS * ASSOC
    return (
        SetAssociativeCache(size, ASSOC, policy=policy),
        ArraySetCache(size, ASSOC, policy=policy),
    )


def _assert_same_stats(obj, arr):
    for field in ("hits", "misses", "evictions",
                  "clean_evictions", "dirty_evictions"):
        assert getattr(arr.stats, field) == getattr(obj.stats, field), field


def _assert_same_lines(obj, arr):
    """Every line of the pool: resident in both or neither, with one
    dirty mask."""
    for line in range(N_LINES):
        obj_state = obj.line_state(line * LINE)
        arr_state = arr.line_state(line * LINE)
        assert (arr_state is None) == (obj_state is None), line
        if obj_state is not None:
            assert arr_state.dirty_mask == obj_state.dirty_mask, line


accesses = st.lists(
    st.tuples(st.integers(0, N_LINES - 1), st.booleans()),
    max_size=200,
)


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=50, deadline=None)
@given(stream=accesses)
def test_access_streams_are_bit_identical(policy, stream):
    obj, arr = _pair(policy)
    for line, is_write in stream:
        address = line * LINE + (line % 8) * 8
        obj_hit, obj_ev = obj.access(address, is_write)
        arr_hit, arr_ev = arr.access(address, is_write)
        assert arr_hit == obj_hit
        if obj_ev is None:
            assert arr_ev is None
        else:
            assert arr_ev is not None
            assert arr_ev.address == obj_ev.address
            assert arr_ev.dirty_mask == obj_ev.dirty_mask
    _assert_same_stats(obj, arr)
    _assert_same_lines(obj, arr)
    assert arr.resident_lines() == obj.resident_lines()


#: One mixed operation: (op_code, line, mask_or_write).
mixed_ops = st.lists(
    st.tuples(
        st.sampled_from(["access", "probe", "install",
                         "invalidate", "merge_dirty", "contains"]),
        st.integers(0, N_LINES - 1),
        st.integers(0, 255),
    ),
    max_size=150,
)


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=25, deadline=None)
@given(ops=mixed_ops)
def test_mixed_op_sequences_are_bit_identical(policy, ops):
    obj, arr = _pair(policy)
    for op, line, extra in ops:
        address = line * LINE
        if op == "access":
            assert (
                arr.access(address, bool(extra & 1))[0]
                == obj.access(address, bool(extra & 1))[0]
            )
        elif op == "probe":
            obj_hit = obj.probe(address, dirty_mask=extra)
            arr_hit = arr.probe(address, dirty_mask=extra)
            # Return types differ by contract (CacheLine vs slab index);
            # only hit/miss and the merged state must agree.
            assert (arr_hit is not None) == (obj_hit is not None)
        elif op == "install":
            obj_ev = obj.install(address)
            arr_ev = arr.install(address)
            assert (obj_ev is None) == (arr_ev is None)
            if obj_ev is not None:
                assert arr_ev.address == obj_ev.address
                assert arr_ev.dirty_mask == obj_ev.dirty_mask
        elif op == "invalidate":
            obj_ev = obj.invalidate(address)
            arr_ev = arr.invalidate(address)
            assert (obj_ev is None) == (arr_ev is None)
            if obj_ev is not None:
                assert arr_ev.address == obj_ev.address
                assert arr_ev.dirty_mask == obj_ev.dirty_mask
        elif op == "merge_dirty":
            obj.merge_dirty(address, extra)
            arr.merge_dirty(address, extra)
        elif op == "contains":
            for i in range(20):
                probe = (line + i) % N_LINES * LINE
                assert arr.contains(probe) == obj.contains(probe)
        obj_state = obj.line_state(address)
        arr_state = arr.line_state(address)
        assert (obj_state is None) == (arr_state is None)
        if obj_state is not None:
            assert arr_state.dirty_mask == obj_state.dirty_mask
    _assert_same_stats(obj, arr)
    _assert_same_lines(obj, arr)


def test_seeded_smoke_equivalence():
    """Deterministic (non-hypothesis) leg: one seeded stream per policy."""
    for policy in POLICIES:
        rng = random.Random(99)
        obj, arr = _pair(policy)
        for _ in range(800):
            address = rng.randrange(N_LINES) * LINE
            is_write = rng.random() < 0.3
            assert (
                arr.access(address, is_write)[0]
                == obj.access(address, is_write)[0]
            )
        _assert_same_stats(obj, arr)
        _assert_same_lines(obj, arr)
