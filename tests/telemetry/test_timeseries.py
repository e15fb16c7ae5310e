"""Unit tests for the columnar time-series ring buffer and sampler."""

import pytest

from repro.telemetry.timeseries import (
    DEFAULT_CADENCE_TICKS,
    TimeSeries,
    TimeseriesSampler,
)


def test_timeseries_append_and_columns():
    series = TimeSeries(["a", "b"], cadence_ticks=10, capacity=8)
    series.append(0, [1.0, 2.0])
    series.append(10, [3.0, 4.0])
    assert len(series) == 2
    assert series.dropped == 0
    assert series.ticks() == [0, 10]
    assert series.column("a") == [1.0, 3.0]
    assert series.column("b") == [2.0, 4.0]
    assert series.rows() == [
        {"tick": 0, "a": 1.0, "b": 2.0},
        {"tick": 10, "a": 3.0, "b": 4.0},
    ]


def test_timeseries_ring_overwrites_oldest():
    series = TimeSeries(["x"], cadence_ticks=1, capacity=3)
    for tick in range(5):
        series.append(tick, [float(tick * 10)])
    assert len(series) == 3
    assert series.total_samples == 5
    assert series.dropped == 2
    # Chronological order is preserved across the wrap point.
    assert series.ticks() == [2, 3, 4]
    assert series.column("x") == [20.0, 30.0, 40.0]


def test_timeseries_validation():
    with pytest.raises(ValueError):
        TimeSeries([])
    with pytest.raises(ValueError):
        TimeSeries(["a", "a"])
    with pytest.raises(ValueError):
        TimeSeries(["a"], cadence_ticks=0)
    with pytest.raises(ValueError):
        TimeSeries(["a"], capacity=0)
    series = TimeSeries(["a", "b"])
    with pytest.raises(ValueError):
        series.append(0, [1.0])


def test_timeseries_as_dict_round_trip():
    series = TimeSeries(["a", "b"], cadence_ticks=5, capacity=2)
    for tick in (0, 5, 10):
        series.append(tick, [float(tick), float(-tick)])
    data = series.as_dict()
    assert data["cadence_ticks"] == 5
    assert data["total_samples"] == 3
    assert data["dropped"] == 1
    assert data["ticks"] == [5, 10]
    assert data["columns"] == {"a": [5.0, 10.0], "b": [-5.0, -10.0]}

    rebuilt = TimeSeries.from_dict(data)
    assert rebuilt.as_dict() == data

    bad = dict(data)
    bad["columns"] = {"a": [5.0, 10.0], "b": [-5.0]}
    with pytest.raises(ValueError):
        TimeSeries.from_dict(bad)


def test_sampler_samples_on_cadence_boundaries():
    sampler = TimeseriesSampler(cadence_ticks=100)
    ticks = []
    sampler.add_probe("t", lambda: ticks[-1])
    # First call samples immediately (initial state), then once per
    # crossed boundary — a jump over several boundaries yields ONE sample.
    for now in (3, 40, 99, 100, 150, 420, 430, 500):
        ticks.append(now)
        sampler.maybe_sample(now)
    assert sampler.series.ticks() == [3, 100, 420, 500]
    assert sampler.series.column("t") == [3.0, 100.0, 420.0, 500.0]


def test_sampler_probe_registration_rules():
    sampler = TimeseriesSampler()
    assert sampler.cadence_ticks == DEFAULT_CADENCE_TICKS
    with pytest.raises(RuntimeError):
        _ = sampler.series  # no probes yet
    sampler.add_probe("a", lambda: 1)
    with pytest.raises(ValueError):
        sampler.add_probe("a", lambda: 2)
    sampler.sample(0)
    with pytest.raises(RuntimeError):
        sampler.add_probe("b", lambda: 3)  # frozen after first sample
    with pytest.raises(ValueError):
        TimeseriesSampler(cadence_ticks=0)
