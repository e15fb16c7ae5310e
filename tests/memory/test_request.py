"""Unit tests for memory request records."""

import pytest

from repro.memory.request import (
    MemoryRequest,
    RequestKind,
    make_read,
    make_write,
)


def test_make_read_defaults():
    req = make_read(1, 0x1000)
    assert req.kind is RequestKind.READ
    assert req.is_read and not req.is_write
    assert req.dirty_mask == 0


def test_make_write_carries_mask():
    req = make_write(2, 0x40, 0b1010_0001)
    assert req.is_write
    assert req.dirty_words == (0, 5, 7)
    assert req.dirty_count == 3


def test_unaligned_address_rejected():
    with pytest.raises(ValueError):
        make_read(1, 0x1001)


def test_read_with_dirty_mask_rejected():
    with pytest.raises(ValueError):
        MemoryRequest(1, RequestKind.READ, 0, dirty_mask=1)


def test_mask_out_of_range_rejected():
    with pytest.raises(ValueError):
        make_write(1, 0, 1 << 8)


def test_new_words_length_checked():
    with pytest.raises(ValueError):
        make_write(1, 0, 1, new_words=(1, 2, 3))


def test_line_address():
    assert make_read(1, 128).line_address == 2


def test_latency_requires_completion():
    req = make_read(1, 0)
    with pytest.raises(ValueError):
        _ = req.latency
    req.arrival = 100
    req.complete(350)
    assert req.latency == 250


def test_effective_latency_uses_requested_at():
    req = make_read(1, 0)
    req.requested_at = 50
    req.arrival = 100
    req.complete(350)
    assert req.latency == 250
    assert req.effective_latency == 300


def test_effective_latency_falls_back_to_arrival():
    req = make_read(1, 0)
    req.arrival = 100
    req.complete(300)
    assert req.effective_latency == 200


def test_complete_fires_callback():
    seen = []
    req = make_read(1, 0)
    req.on_complete = seen.append
    req.complete(123)
    assert seen == [req]
    assert req.completion == 123


def test_dirty_words_empty_for_silent_write():
    req = make_write(1, 0, 0)
    assert req.dirty_words == ()
    assert req.dirty_count == 0
