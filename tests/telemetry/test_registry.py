"""Unit tests for the metrics registry instruments."""

import pytest

from repro.telemetry import MetricsRegistry
from repro.telemetry.registry import DEFAULT_BUCKETS, Gauge, Histogram


def test_counter_math():
    registry = MetricsRegistry()
    counter = registry.counter("reads")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    assert registry.value("reads") == 5
    assert counter.as_dict() == {"type": "counter", "value": 5}


def test_gauge_tracks_maximum():
    gauge = MetricsRegistry().gauge("queue.depth")
    gauge.inc()
    gauge.inc()
    gauge.inc(-1)
    gauge.inc(3)
    assert gauge.value == 4
    assert gauge.max_value == 4
    gauge.set(1)
    assert gauge.value == 1
    assert gauge.max_value == 4
    assert gauge.as_dict() == {"type": "gauge", "value": 1, "max": 4}


def test_gauge_set_vs_inc_contract():
    """``set`` is absolute, ``inc`` is relative; both share max."""
    gauge = Gauge()
    gauge.set(5)
    gauge.inc(2)       # relative: 5 -> 7
    assert gauge.value == 7 and gauge.max_value == 7
    gauge.set(2)       # absolute: ignores current value
    assert gauge.value == 2 and gauge.max_value == 7
    gauge.inc(-3)      # relative: 2 -> -1
    assert gauge.value == -1 and gauge.max_value == 7


def test_gauge_negative_round_trips_through_export():
    """A negative-going gauge exports its true value; max holds at the
    initial 0 because the gauge held 0 before the first update."""
    gauge = Gauge()
    gauge.inc(-4)
    assert gauge.value == -4
    assert gauge.max_value == 0
    assert gauge.as_dict() == {"type": "gauge", "value": -4, "max": 0}

    from repro.telemetry.export import to_openmetrics

    text = to_openmetrics({"depth": gauge.as_dict()})
    assert "repro_depth -4\n" in text
    assert "repro_depth_max 0\n" in text


def test_histogram_bucket_placement():
    histogram = Histogram(buckets=(10, 20, 40))
    for value in (5, 10, 11, 39, 40, 41, 1000):
        histogram.observe(value)
    # counts: <=10, <=20, <=40, overflow
    assert histogram.counts == [2, 1, 2, 2]
    assert histogram.count == 7
    assert histogram.min_seen == 5
    assert histogram.max_seen == 1000
    assert histogram.mean == pytest.approx(sum((5, 10, 11, 39, 40, 41, 1000)) / 7)


def test_histogram_percentile():
    histogram = Histogram(buckets=(10, 20, 40))
    for value in (1, 2, 15, 30, 30):
        histogram.observe(value)
    # q = 0 is the exact observed minimum, not the first bucket bound.
    assert histogram.percentile(0.0) == 1.0
    assert histogram.percentile(0.4) == 10.0
    assert histogram.percentile(0.6) == 20.0
    # q = 1 is the exact observed maximum — it must not saturate at the
    # top bucket bound (40).
    assert histogram.percentile(1.0) == 30.0
    # Overflow bucket reports the observed maximum.
    histogram.observe(999)
    assert histogram.percentile(1.0) == 999.0


def test_histogram_percentile_exact_bucket_edges():
    """An integral target rank selects the lower bucket, even when the
    floating-point product q * count rounds just above the edge."""
    histogram = Histogram(buckets=(10, 20))
    for value in (5, 6, 7, 15, 16, 17, 18, 19, 25, 26):
        histogram.observe(value)
    # q * count = 0.3 * 10: float product is 3.0000000000000004; the
    # 3rd observation (7) still lives in the first bucket.
    assert histogram.percentile(0.3) == 10.0
    assert histogram.percentile(0.8) == 20.0
    # One observation past the edge moves to the next bucket.
    assert histogram.percentile(0.31) == 20.0
    # Quantiles landing in the overflow bucket report the exact max.
    assert histogram.percentile(0.95) == 26.0


def test_histogram_percentile_clamps_to_observed_range():
    """Bucket bounds never leak outside [min_seen, max_seen]."""
    histogram = Histogram(buckets=(100, 200))
    histogram.observe(150)
    for q in (0.0, 0.5, 1.0):
        assert histogram.percentile(q) == 150.0


def test_histogram_empty_and_validation():
    histogram = Histogram()
    assert histogram.buckets == DEFAULT_BUCKETS
    assert histogram.mean == 0.0
    assert histogram.percentile(0.5) == 0.0
    with pytest.raises(ValueError):
        Histogram(buckets=())
    with pytest.raises(ValueError):
        Histogram(buckets=(5, 3, 1))
    with pytest.raises(ValueError):
        histogram.percentile(1.5)


def test_histogram_as_dict_round_numbers():
    histogram = MetricsRegistry().histogram("lat", buckets=(1, 2))
    histogram.observe(1)
    histogram.observe(3)
    data = histogram.as_dict()
    assert data["type"] == "histogram"
    # The explicit overflow bound keeps buckets and counts zippable.
    assert data["buckets"] == [1, 2, "+Inf"]
    assert data["counts"] == [1, 0, 1]
    assert len(data["buckets"]) == len(data["counts"])
    assert data["count"] == 2
    assert data["sum"] == 4.0
    assert data["min"] == 1 and data["max"] == 3
    assert data["p50"] == 1.0 and data["p99"] == 3.0


def test_registry_get_or_create_is_idempotent():
    registry = MetricsRegistry()
    first = registry.counter("x")
    second = registry.counter("x")
    assert first is second
    assert len(registry) == 1
    assert "x" in registry
    assert registry.names() == ["x"]


def test_registry_kind_collision_raises():
    registry = MetricsRegistry()
    registry.counter("clash")
    with pytest.raises(TypeError):
        registry.gauge("clash")
    with pytest.raises(TypeError):
        registry.histogram("clash")


def test_registry_as_dict_sorted():
    registry = MetricsRegistry()
    registry.counter("b").inc()
    registry.gauge("a").set(2)
    dump = registry.as_dict()
    assert list(dump) == ["a", "b"]
    assert dump["a"]["value"] == 2
    assert dump["b"]["value"] == 1
    assert registry.value("missing", default=-7) == -7
    assert registry.get("missing") is None
