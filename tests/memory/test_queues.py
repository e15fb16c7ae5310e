"""Unit tests for request queues and drain watermarks."""

import pytest

from repro.memory.queues import RequestQueue, WriteQueue
from repro.memory.request import make_read, make_write
from repro.telemetry.registry import MetricsRegistry


def _reads(n):
    return [make_read(i, i * 64) for i in range(n)]


def test_offer_until_full():
    queue = RequestQueue(capacity=2)
    a, b, c = _reads(3)
    assert queue.offer(a)
    assert queue.offer(b)
    assert not queue.offer(c)
    assert queue.full


def test_push_raises_when_full():
    queue = RequestQueue(capacity=1)
    queue.push(_reads(1)[0])
    with pytest.raises(OverflowError):
        queue.push(make_read(99, 0))


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        RequestQueue(capacity=0)


def test_fifo_order_and_oldest():
    queue = RequestQueue(capacity=4)
    reqs = _reads(3)
    for req in reqs:
        queue.push(req)
    assert queue.entries[0] is reqs[0]
    assert queue.entries == reqs
    assert list(queue) == reqs


def test_remove_frees_space_and_notifies():
    queue = RequestQueue(capacity=1)
    req = _reads(1)[0]
    queue.push(req)
    called = []
    queue.wait_for_space(lambda: called.append(True))
    assert called == []  # still full
    queue.remove(req)
    assert called == [True]


def test_waiter_fires_once():
    queue = RequestQueue(capacity=1)
    a, b = _reads(2)
    queue.push(a)
    calls = []
    queue.wait_for_space(lambda: calls.append(1))
    queue.remove(a)
    queue.push(b)
    queue.remove(b)
    assert calls == [1]


def test_occupancy_and_high_water():
    registry = MetricsRegistry()
    queue = RequestQueue(capacity=4)
    queue.attach_metrics(registry, "q")
    for req in _reads(3):
        queue.push(req)
    queue.remove(queue.entries[0])
    assert queue.occupancy == pytest.approx(0.5)
    assert registry.gauge("q.depth").max_value == 3


def test_write_queue_watermarks():
    queue = WriteQueue(capacity=10, drain_high=0.8, drain_low=0.25)
    writes = [make_write(i, i * 64, 1) for i in range(9)]
    for w in writes[:8]:
        queue.push(w)
    assert not queue.above_high_watermark  # exactly 0.8, needs strictly more
    queue.push(writes[8])
    assert queue.above_high_watermark
    while len(queue) > 2:
        queue.remove(queue.entries[0])
    assert len(queue) <= queue.low_count  # a drain stops here


def test_write_queue_invalid_watermarks():
    with pytest.raises(ValueError):
        WriteQueue(capacity=4, drain_high=0.2, drain_low=0.5)
    with pytest.raises(ValueError):
        WriteQueue(capacity=4, drain_high=1.5, drain_low=0.1)
