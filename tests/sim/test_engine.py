"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine, ns_to_ticks, ticks_to_ns


def test_ns_tick_conversion_roundtrip():
    assert ns_to_ticks(2.5) == 25
    assert ticks_to_ns(25) == 2.5


def test_ns_to_ticks_rounds():
    assert ns_to_ticks(0.84) == 8
    assert ns_to_ticks(0.86) == 9


def test_events_fire_in_time_order():
    engine = Engine()
    fired = []
    engine.schedule_at(30, lambda: fired.append("c"))
    engine.schedule_at(10, lambda: fired.append("a"))
    engine.schedule_at(20, lambda: fired.append("b"))
    engine.run()
    assert fired == ["a", "b", "c"]


def test_same_tick_events_fire_in_schedule_order():
    engine = Engine()
    fired = []
    for label in "abcde":
        engine.schedule_at(5, lambda label=label: fired.append(label))
    engine.run()
    assert fired == list("abcde")


def test_clock_advances_to_event_time():
    engine = Engine()
    seen = []
    engine.schedule_at(42, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [42]
    assert engine.now == 42


def test_schedule_after_is_relative():
    engine = Engine()
    times = []
    engine.schedule_at(10, lambda: engine.call_after(5, lambda: times.append(engine.now)))
    engine.run()
    assert times == [15]


def test_cannot_schedule_in_the_past():
    engine = Engine()
    engine.schedule_at(10, lambda: None)
    engine.run()
    with pytest.raises(ValueError):
        engine.schedule_at(5, lambda: None)


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(ValueError):
        engine.call_after(-1, lambda: None)


def test_cancelled_event_does_not_fire():
    engine = Engine()
    fired = []
    handle = engine.schedule_at(10, lambda: fired.append("x"))
    handle.cancel()
    engine.run()
    assert fired == []


def test_run_until_stops_before_later_events():
    engine = Engine()
    fired = []
    engine.schedule_at(10, lambda: fired.append(10))
    engine.schedule_at(100, lambda: fired.append(100))
    engine.run(until=50)
    assert fired == [10]
    assert engine.now == 50
    engine.run()
    assert fired == [10, 100]


def test_run_until_advances_clock_when_queue_drains():
    engine = Engine()
    engine.run(until=77)
    assert engine.now == 77


def test_run_max_events_budget():
    engine = Engine()
    fired = []
    for i in range(10):
        engine.schedule_at(i + 1, lambda i=i: fired.append(i))
    count = engine.run(max_events=3)
    assert count == 3
    assert fired == [0, 1, 2]


def test_step_returns_false_when_idle():
    engine = Engine()
    assert engine.step() is False


def test_events_scheduled_during_run_are_processed():
    engine = Engine()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 5:
            engine.call_after(10, chain, depth + 1)

    engine.schedule_at(0, lambda: chain(0))
    engine.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert engine.now == 50


def test_run_returns_event_count():
    engine = Engine()
    for i in range(7):
        engine.schedule_at(i, lambda: None)
    assert engine.run() == 7


def test_call_at_passes_args_without_handle():
    engine = Engine()
    seen = []
    engine.call_at(10, seen.append, "a")
    engine.call_at(5, seen.append, "b")
    engine.run()
    assert seen == ["b", "a"]


def test_call_after_is_relative():
    engine = Engine()
    times = []
    engine.call_at(10, lambda: engine.call_after(5, times.append, engine.now))
    engine.run()
    # The arg is evaluated at scheduling time (tick 10), not dispatch.
    assert times == [10]
    assert engine.now == 15


def test_call_at_rejects_past_times():
    engine = Engine()
    engine.call_at(10, lambda: None)
    engine.run()
    with pytest.raises(ValueError):
        engine.call_at(5, lambda: None)


def test_call_at_and_schedule_at_share_seq_ordering():
    engine = Engine()
    fired = []
    engine.call_at(5, fired.append, "a")
    engine.schedule_at(5, lambda: fired.append("b"))
    engine.call_at(5, fired.append, "c")
    engine.run()
    assert fired == ["a", "b", "c"]
