"""Unit tests for the channel bus model (turnaround, partial buses)."""

import pytest

from repro.memory.bus import BusDirection, ChannelBus
from repro.memory.timing import DEFAULT_TIMING


@pytest.fixture
def bus():
    return ChannelBus(DEFAULT_TIMING, n_chips=10)


def test_first_reservation_starts_at_earliest(bus):
    start, end = bus.reserve(BusDirection.READ, earliest=100)
    assert start == 100
    assert end == 100 + DEFAULT_TIMING.burst_ticks


def test_back_to_back_same_direction(bus):
    _s1, e1 = bus.reserve(BusDirection.READ, 0)
    s2, _e2 = bus.reserve(BusDirection.READ, 0)
    # tCCD (4 cycles) equals the burst, so bursts pack back-to-back.
    assert s2 == e1


def test_write_to_read_turnaround(bus):
    _s1, e1 = bus.reserve(BusDirection.WRITE, 0)
    s2, _e2 = bus.reserve(BusDirection.READ, 0)
    assert s2 == e1 + DEFAULT_TIMING.cycles(DEFAULT_TIMING.tWTR)


def test_read_to_write_turnaround(bus):
    _s1, e1 = bus.reserve(BusDirection.READ, 0)
    s2, _e2 = bus.reserve(BusDirection.WRITE, 0)
    assert s2 == e1 + DEFAULT_TIMING.cycles(DEFAULT_TIMING.tRTW)


def test_earliest_beyond_busy_time_wins(bus):
    bus.reserve(BusDirection.READ, 0)
    start, _end = bus.reserve(BusDirection.READ, 10_000)
    assert start == 10_000


def test_custom_duration(bus):
    start, end = bus.reserve(BusDirection.READ, 0, duration=777)
    assert end - start == 777


def test_partial_buses_independent(bus):
    s0, e0 = bus.reserve_partial(0, BusDirection.WRITE, 0)
    s1, _e1 = bus.reserve_partial(1, BusDirection.READ, 0)
    # Different sub-links: no serialisation, no turnaround.
    assert s0 == 0 and s1 == 0
    # Same sub-link serialises.
    s0b, _ = bus.reserve_partial(0, BusDirection.WRITE, 0)
    assert s0b >= e0


def test_partial_bus_direction_turnaround(bus):
    _s, e = bus.reserve_partial(3, BusDirection.WRITE, 0)
    s2, _ = bus.reserve_partial(3, BusDirection.READ, 0)
    assert s2 == e + DEFAULT_TIMING.cycles(DEFAULT_TIMING.tWTR)


def test_full_width_burst_occupies_sub_links(bus):
    _s, e = bus.reserve(BusDirection.READ, 0)
    s2, _ = bus.reserve_partial(5, BusDirection.READ, 0)
    assert s2 >= e


def test_partial_chip_out_of_range(bus):
    with pytest.raises(ValueError):
        bus.reserve_partial(10, BusDirection.READ, 0)


def test_free_at_tracks_full_bus(bus):
    _s, e = bus.reserve(BusDirection.READ, 50)
    # Same-direction bursts follow back to back: the next one, on the
    # full bus or one sub-link, starts exactly when this one frees it.
    assert bus.reserve_partial(0, BusDirection.READ, 0)[0] == e
    assert bus.reserve(BusDirection.READ, 0)[0] == e
