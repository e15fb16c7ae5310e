"""Unit tests for trace events, sinks and tracers."""

import gc
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import (
    NULL_TRACER,
    EventType,
    JsonlSink,
    ListSink,
    NullTracer,
    RingBufferSink,
    Telemetry,
    TraceEvent,
    Tracer,
)


def read_jsonl(path):
    """The events a :class:`JsonlSink` wrote, one JSON object a line."""
    with open(path) as handle:
        return [TraceEvent.from_dict(json.loads(line)) for line in handle]


def _event(tick=100, **kwargs):
    return TraceEvent(type=EventType.REQUEST_ISSUE, tick=tick, **kwargs)


def _reservation(
    tracer, kind="write", chips=(0, 3, 9), start=10, end=1210, reason="Wr-1",
    reason_id=-1,
):
    tracer.emit_reservation(
        kind, chips, bank=2, start=start, end=end, channel=0, rank=1,
        reason=reason, reason_id=reason_id,
    )


def test_event_to_dict_is_compact():
    event = _event(channel=1, req_id=42, kind="read")
    record = event.to_dict()
    assert record == {
        "type": "request.issue", "tick": 100,
        "channel": 1, "req_id": 42, "kind": "read",
    }
    # Defaulted coordinates are omitted entirely.
    assert "rank" not in record and "reason" not in record


def test_event_dict_round_trip():
    event = TraceEvent(
        type=EventType.CHIP_RESERVE, tick=5, channel=0, rank=1, chip=9,
        bank=3, req_id=7, start=5, end=1205, kind="write",
        reason="code-update", extra={"words": 2},
    )
    assert TraceEvent.from_dict(event.to_dict()) == event


def test_ring_buffer_eviction():
    sink = RingBufferSink(capacity=3)
    tracer = Tracer([sink])
    for tick in range(5):
        tracer.emit(EventType.REQUEST_ISSUE, tick)
    assert sink.total_seen == 5
    assert len(sink) == 3
    assert sink.evicted == 2
    assert [e.tick for e in sink.events] == [2, 3, 4]
    with pytest.raises(ValueError):
        RingBufferSink(capacity=0)


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "events.jsonl"
    events = [
        _event(tick=1, req_id=1),
        TraceEvent(type=EventType.ROW_DECLINE, tick=2, reason="write-pressure"),
        TraceEvent(type=EventType.WOW_OPEN, tick=3, extra={"group_size": 3}),
    ]
    with JsonlSink(path) as sink:
        tracer = Tracer([sink])
        tracer.emit(EventType.REQUEST_ISSUE, 1, req_id=1)
        tracer.emit(EventType.ROW_DECLINE, 2, reason="write-pressure")
        tracer.emit(EventType.WOW_OPEN, 3, extra={"group_size": 3})
    assert sink.written == 3
    assert read_jsonl(path) == events


def test_tracer_fans_out_to_all_sinks():
    a, b = ListSink(), ListSink()
    tracer = Tracer([a, b])
    tracer.emit(EventType.REQUEST_ISSUE, 100)
    tracer.emit(EventType.REQUEST_ISSUE, 200)
    assert tracer.emitted == 2
    assert len(a.events) == len(b.events) == 2
    assert [e.tick for e in tracer.events()] == [100, 200]


def test_null_tracer_is_disabled():
    assert NULL_TRACER.enabled is False
    assert isinstance(NULL_TRACER, NullTracer)
    NULL_TRACER.emit(EventType.REQUEST_ISSUE, 100)  # discards silently
    _reservation(NULL_TRACER)
    NULL_TRACER.close()


def test_telemetry_bundle_defaults():
    disabled = Telemetry.disabled()
    assert disabled.tracer is NULL_TRACER
    assert disabled.metrics.names() == []

    recording = Telemetry.recording()
    assert recording.tracer.enabled is True
    recording.tracer.emit(EventType.REQUEST_ISSUE, 100)
    assert recording.tracer.events() == [_event()]
    # Each bundle gets its own registry.
    assert recording.metrics is not disabled.metrics


# ----------------------------------------------------------------------
# Records are stored; views are built on read
# ----------------------------------------------------------------------
_COORDINATE = st.integers(0, 2**40)

#: TraceEvent's fields after ``type``; a field left out keeps its default.
_FIELDS = st.fixed_dictionaries(
    {"tick": st.integers(0, 2**40)},
    optional={
        "channel": _COORDINATE,
        "rank": _COORDINATE,
        "chip": _COORDINATE,
        "bank": _COORDINATE,
        "req_id": st.integers(0, 2**63),
        "start": _COORDINATE,
        "end": _COORDINATE,
        "kind": st.sampled_from(["read", "write"]),
        "reason": st.text(max_size=16),
        "extra": st.one_of(
            st.none(),
            st.dictionaries(st.text(max_size=8), st.integers(), max_size=3),
        ),
    },
)


@pytest.mark.parametrize("event_type", list(EventType))
@settings(max_examples=40, deadline=None)
@given(fields=_FIELDS)
def test_record_view_equals_the_event_of_the_same_fields(event_type, fields):
    sink = ListSink()
    Tracer([sink]).emit(event_type, **fields)
    # One record, a row or (a field out of a row's range) kept whole.
    assert len(sink.records) == 1
    (view,) = sink.events
    assert view == TraceEvent(event_type, **fields)
    assert view.type is event_type


def test_records_without_extra_are_untracked_by_the_collector():
    # Rows are bytes in a bytearray: the collector has nothing to track.
    ring, full = RingBufferSink(capacity=50), ListSink()
    tracer = Tracer([ring, full])

    def record(n):
        for req_id in range(n):
            tracer.emit(EventType.REQUEST_ISSUE, 5, channel=1, req_id=req_id,
                        kind="read", reason="row-overlap")
            _reservation(tracer, reason="Wr-", reason_id=req_id)

    record(1)  # interns the strings and the chips tuple
    gc.collect()
    tracked = len(gc.get_objects())
    record(500)
    gc.collect()
    assert len(gc.get_objects()) <= tracked
    assert len(full.records) == 1002 and len(ring) == 50


def test_reservation_hands_off_a_pair_per_chip():
    sink = ListSink()
    tracer = Tracer([sink])
    _reservation(tracer, chips=(0, 3))
    _reservation(tracer, kind="read", chips=(4,), start=-1, end=50,
                 reason="Rd-2")
    assert tracer.emitted == 6
    assert sink.events == [
        TraceEvent(EventType.CHIP_RESERVE, 10, 0, 1, 0, 2, -1, 10, 1210,
                   "write", "Wr-1"),
        TraceEvent(EventType.CHIP_RELEASE, 1210, 0, 1, 0, 2, -1, 10, 1210,
                   "write", "Wr-1"),
        TraceEvent(EventType.CHIP_RESERVE, 10, 0, 1, 3, 2, -1, 10, 1210,
                   "write", "Wr-1"),
        TraceEvent(EventType.CHIP_RELEASE, 1210, 0, 1, 3, 2, -1, 10, 1210,
                   "write", "Wr-1"),
        # No start: the reservation is stamped at its end.
        TraceEvent(EventType.CHIP_RESERVE, 50, 0, 1, 4, 2, -1, -1, 50,
                   "read", "Rd-2"),
        TraceEvent(EventType.CHIP_RELEASE, 50, 0, 1, 4, 2, -1, -1, 50,
                   "read", "Rd-2"),
    ]


def test_reservation_is_one_record_and_an_empty_one_is_none():
    ring, full = RingBufferSink(capacity=2), ListSink()
    tracer = Tracer([ring, full])
    _reservation(tracer, chips=(0, 3, 9))
    _reservation(tracer, chips=())
    assert tracer.emitted == ring.total_seen == 6
    assert len(full.records) == 1
    assert len(ring) == 2 and ring.evicted == 4
    assert ring.events == full.events[-2:]


@pytest.mark.parametrize("capacity", [1, 4, 5, 11, 64])
def test_ring_keeps_the_last_events_across_emits_and_hand_offs(capacity):
    ring, full = RingBufferSink(capacity=capacity), ListSink()
    tracer = Tracer([ring, full])
    tracer.emit(EventType.REQUEST_ENQUEUE, 1, req_id=1)
    _reservation(tracer)  # six events, more than some rings hold
    tracer.emit(EventType.REQUEST_ISSUE, 10, req_id=1)
    _reservation(tracer, kind="read", chips=(4,), start=20, end=50)
    tracer.emit(EventType.REQUEST_COMPLETE, 60, req_id=1)
    assert tracer.emitted == ring.total_seen == len(full.events) == 11
    # One record per emit and one per reservation.
    assert len(full.records) == 5
    kept = min(capacity, 11)
    assert len(ring) == kept
    assert ring.evicted == 11 - kept
    assert ring.events == full.events[-kept:]


#: One step of a traced run: an emit (``None``) or a reservation's chips.
_STEP = st.one_of(
    st.none(),
    st.lists(st.integers(0, 9), min_size=1, max_size=10).map(tuple),
)


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(1, 64),
    steps=st.lists(_STEP, max_size=40),
    straddle=st.integers(0, 9),
)
def test_record_bounded_ring_returns_exactly_the_last_events(
    capacity, steps, straddle, tmp_path_factory
):
    path = tmp_path_factory.mktemp("ring") / "events.jsonl"
    ring, full = RingBufferSink(capacity=capacity), ListSink()
    with JsonlSink(path) as jsonl:
        tracer = Tracer([ring, full, jsonl])
        # Fill up to just short of the capacity in events, then reserve
        # across the boundary, then run the drawn interleaving.
        for tick in range(max(capacity - 1 - straddle, 0)):
            tracer.emit(EventType.REQUEST_ISSUE, tick, req_id=tick)
        _reservation(tracer, chips=tuple(range(straddle + 1)))
        for tick, chips in enumerate(steps, start=capacity):
            if chips is None:
                tracer.emit(EventType.ROW_DECLINE, tick, reason="busy")
            else:
                _reservation(tracer, chips=chips, start=tick, end=tick + 5)
    events = full.events
    assert len(events) == tracer.emitted
    assert ring.events == events[-capacity:]
    assert len(ring) == min(capacity, tracer.emitted)
    assert ring.evicted == tracer.emitted - len(ring)
    assert ring.total_seen == tracer.emitted
    assert read_jsonl(path) == events


def test_read_jsonl_returns_the_emitted_events(tmp_path):
    path = tmp_path / "events.jsonl"
    full = ListSink()
    with JsonlSink(path) as jsonl:
        tracer = Tracer([jsonl, full])
        tracer.emit(EventType.WRITE_PAUSE, 424, channel=3, rank=0, req_id=7,
                    end=2074, extra={"remaining_ticks": 900, "pauses_used": 1})
        _reservation(tracer)
        tracer.emit(EventType.DRAIN_EXIT, 500, channel=3,
                    extra={"write_queue_depth": 2})
    assert jsonl.written == tracer.emitted == 8
    assert read_jsonl(path) == full.events


def test_rows_read_back_labels_wide_records_and_overflowing_codes():
    ring, full = RingBufferSink(capacity=5), ListSink()
    tracer = Tracer([ring, full])
    _reservation(tracer, chips=(1,), reason="Rd-", reason_id=7)
    _reservation(tracer, chips=(2,), reason="code-update")
    # Fields a row cannot hold: the record is kept whole.
    tracer.emit(EventType.REQUEST_ISSUE, 1, channel=2**40, req_id=2**63)
    _reservation(tracer, chips=(0, 1), start=2**70)
    # More distinct strings than a row's code byte: the rest go whole.
    for n in range(300):
        tracer.emit(EventType.ROW_DECLINE, n, reason=f"r{n}",
                    extra={"n": n} if n % 3 else None)
    events = full.events
    assert [(e.reason, e.chip) for e in events[:4]] == [
        ("Rd-7", 1), ("Rd-7", 1), ("code-update", 2), ("code-update", 2),
    ]
    assert (events[4].channel, events[4].req_id) == (2**40, 2**63)
    assert [e.start for e in events[5:9]] == [2**70] * 4
    assert [(e.reason, e.extra) for e in events[9:]] == [
        (f"r{n}", {"n": n} if n % 3 else None) for n in range(300)
    ]
    assert len(full.records) == 304
    assert ring.events == events[-5:]
    # Rows decode with their tracer's codes: a sink serves one tracer.
    with pytest.raises(ValueError):
        Tracer([full])
