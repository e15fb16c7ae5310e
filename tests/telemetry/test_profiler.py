"""Unit tests for the engine's dispatch count and run profiles."""

import pytest

from repro.sim.engine import Engine
from repro.telemetry import RunProfile, WallClock


def test_engine_counts_and_profiles_dispatches():
    engine = Engine()
    fired = []
    for delay in (5, 1, 9):
        engine.call_after(delay, fired.append, delay)
    engine.run()
    assert fired == [1, 5, 9]
    assert engine.events_dispatched == 3


def test_run_profile_summary_and_merge():
    profile = RunProfile(events_dispatched=1000, wall_seconds=0.5)
    assert profile.events_per_second == pytest.approx(2000)
    assert "1000 events" in profile.summary()

    other = RunProfile(events_dispatched=500, wall_seconds=0.5)
    profile.merge(other)
    assert profile.events_dispatched == 1500
    assert profile.wall_seconds == pytest.approx(1.0)

    empty = RunProfile()
    assert empty.events_per_second == 0.0


def test_wall_clock_measures_elapsed():
    with WallClock() as clock:
        sum(range(1000))
    assert clock.elapsed > 0
