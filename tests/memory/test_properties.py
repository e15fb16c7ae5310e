"""Hypothesis property tests across the memory substrate."""

from hypothesis import given, settings, strategies as st

from repro.memory.bus import BusDirection, ChannelBus
from repro.memory.queues import RequestQueue
from repro.memory.rank import RankState
from repro.memory.request import make_read
from repro.memory.timing import DEFAULT_TIMING
from repro.telemetry.registry import MetricsRegistry


@given(st.lists(st.sampled_from([BusDirection.READ, BusDirection.WRITE]),
                min_size=1, max_size=30))
@settings(max_examples=100)
def test_property_bus_reservations_never_overlap(directions):
    bus = ChannelBus(DEFAULT_TIMING, n_chips=10)
    previous_end = 0
    for direction in directions:
        start, end = bus.reserve(direction, earliest=0)
        assert start >= previous_end
        assert end > start
        previous_end = end


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=9),
                          st.sampled_from([BusDirection.READ, BusDirection.WRITE])),
                min_size=1, max_size=40))
@settings(max_examples=100)
def test_property_partial_bus_per_chip_monotone(operations):
    bus = ChannelBus(DEFAULT_TIMING, n_chips=10)
    last_end = {c: 0 for c in range(10)}
    for chip, direction in operations:
        start, end = bus.reserve_partial(chip, direction, earliest=0)
        assert start >= last_end[chip]
        last_end[chip] = end


@given(st.lists(st.tuples(st.booleans(),
                          st.integers(min_value=0, max_value=9),
                          st.integers(min_value=0, max_value=7),
                          st.integers(min_value=1, max_value=5_000)),
                min_size=1, max_size=60))
@settings(max_examples=100)
def test_property_rank_busy_horizons_never_shrink(operations):
    rank = RankState(DEFAULT_TIMING, n_chips=10, n_banks=8)
    clock = 0
    for is_write, chip, bank, duration in operations:
        before = rank.write_busy[chip]
        start = max(clock, rank.write_ready[chip])
        end = start + duration
        if is_write:
            rank.reserve_chip_write(chip, bank, end, row=None)
            assert rank.write_busy[chip] >= before
        else:
            rank.reserve_read([chip], bank, end, row=None)
            assert rank.write_busy[chip] == before
        clock += duration // 2


@given(st.integers(min_value=1, max_value=16),
       st.lists(st.booleans(), min_size=1, max_size=60))
@settings(max_examples=100)
def test_property_queue_occupancy_invariants(capacity, pushes):
    registry = MetricsRegistry()
    queue = RequestQueue(capacity=capacity)
    queue.attach_metrics(registry, "q")
    next_id = 0
    for push in pushes:
        if push and not queue.full:
            next_id += 1
            queue.push(make_read(next_id, next_id * 64))
        elif not queue.empty:
            queue.remove(queue.entries[0])
        assert 0 <= len(queue) <= capacity
        assert 0.0 <= queue.occupancy <= 1.0
        assert registry.gauge("q.depth").max_value <= capacity


@given(st.floats(min_value=1.1, max_value=10.0))
@settings(max_examples=50)
def test_property_timing_ratio_roundtrip(ratio):
    timing = DEFAULT_TIMING.with_write_to_read_ratio(ratio)
    assert timing.array_write_ns / timing.array_read_ns == __import__("pytest").approx(ratio)
    assert timing.array_write_ns == DEFAULT_TIMING.array_write_ns
