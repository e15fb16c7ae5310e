"""Structured event tracing: typed events, sinks, and the null tracer.

Every interesting moment in the simulator — request lifecycle steps,
RoW/WoW scheduling decisions, rollbacks, write pauses, chip reservations —
is an event with a type from :class:`EventType` plus a small set of
integer coordinates (channel/rank/chip/bank/request) and an optional
free-form ``extra`` mapping.

Emit-site contract: hot paths guard every emission with::

    if self.tracer.enabled:
        self.tracer.emit(EventType.X, tick, channel=..., req_id=...)

so a disabled run (:data:`NULL_TRACER`) pays exactly one attribute check
per site — no record is built, no string is formatted.

An enabled run stores each event as a *record*: one plain tuple of
:class:`TraceEvent`'s fields in declaration order, with the type as its
string value.  Chip occupancy, the bulk of a trace, is stored once per
rank reservation instead: one record that starts with its event count
and holds the chips tuple, bank, span, kind and label, and reads back as
a ``chip.reserve``/``chip.release`` pair per chip.  Records hold only
ints, strs, tuples of ints, ``None`` and the ``extra`` dict, so the
garbage collector untracks every record without ``extra`` instead of
scanning it.  Sinks keep records; :class:`TraceEvent` objects are built
only when a sink's ``events`` is read, or a line is written to a JSONL
file.
"""

from __future__ import annotations

import enum
import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Iterable, List, Optional, Tuple, Union

from repro.telemetry.registry import MetricsRegistry


class EventType(str, enum.Enum):
    """Taxonomy of traced moments (see docs/TELEMETRY.md)."""

    # Request lifecycle
    REQUEST_ENQUEUE = "request.enqueue"
    REQUEST_ISSUE = "request.issue"
    REQUEST_COMPLETE = "request.complete"
    # RoW (read-over-write) decisions
    ROW_ATTEMPT = "row.attempt"
    ROW_SERVE = "row.serve"
    ROW_DECLINE = "row.decline"
    # WoW (write-over-write) grouping
    WOW_OPEN = "wow.open"
    WOW_JOIN = "wow.join"
    WOW_CLOSE = "wow.close"
    # Verification outcome
    ROLLBACK = "rollback"
    # Write pausing (prior-art comparator controller)
    WRITE_PAUSE = "write.pause"
    WRITE_RESUME = "write.resume"
    # Resource occupancy
    CHIP_RESERVE = "chip.reserve"
    CHIP_RELEASE = "chip.release"
    # Drain-mode transitions
    DRAIN_ENTER = "drain.enter"
    DRAIN_EXIT = "drain.exit"


@dataclass(slots=True)
class TraceEvent:
    """One structured trace event: the read-side view of a record.

    ``tick`` is the engine time the event was emitted; occupancy events
    additionally carry the reserved ``[start, end)`` span.  Unset integer
    coordinates stay at -1 so records serialise compactly and uniformly.
    """

    type: EventType
    tick: int
    channel: int = -1
    rank: int = -1
    chip: int = -1
    bank: int = -1
    req_id: int = -1
    start: int = -1
    end: int = -1
    kind: str = ""      #: "read"/"write" for occupancy and request events
    reason: str = ""    #: decline reason, pause cause, completion class...
    extra: Optional[dict] = None

    def to_dict(self) -> dict:
        """Compact JSON-safe form: only non-default fields are kept."""
        record = {"type": self.type.value, "tick": self.tick}
        for key in ("channel", "rank", "chip", "bank", "req_id", "start", "end"):
            value = getattr(self, key)
            if value != -1:
                record[key] = value
        if self.kind:
            record["kind"] = self.kind
        if self.reason:
            record["reason"] = self.reason
        if self.extra:
            record["extra"] = self.extra
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "TraceEvent":
        return cls(
            type=EventType(record["type"]),
            tick=record["tick"],
            channel=record.get("channel", -1),
            rank=record.get("rank", -1),
            chip=record.get("chip", -1),
            bank=record.get("bank", -1),
            req_id=record.get("req_id", -1),
            start=record.get("start", -1),
            end=record.get("end", -1),
            kind=record.get("kind", ""),
            reason=record.get("reason", ""),
            extra=record.get("extra"),
        )


_TYPES = {event_type.value: event_type for event_type in EventType}


def _views(records: Iterable[tuple]) -> List[TraceEvent]:
    """The :class:`TraceEvent` of each record, in order.

    A reservation record expands to a ``chip.reserve``/``chip.release``
    pair per chip, stamped at its start (its end when it has none).
    """
    types = _TYPES
    reserve, release = EventType.CHIP_RESERVE, EventType.CHIP_RELEASE
    views: List[TraceEvent] = []
    append = views.append
    for record in records:
        head = record[0]
        if head.__class__ is str:
            append(TraceEvent(types[head], *record[1:]))
            continue
        _count, chips, bank, start, end, kind, reason, channel, rank = record
        tick = start if start >= 0 else end
        for chip in chips:
            append(TraceEvent(reserve, tick, channel, rank, chip, bank, -1,
                              start, end, kind, reason))
            append(TraceEvent(release, end, channel, rank, chip, bank, -1,
                              start, end, kind, reason))
    return views


# ======================================================================
# Sinks: each keeps the records it is handed (``append``)
# ======================================================================
class ListSink:
    """Unbounded in-memory sink (tests, short traced runs)."""

    def __init__(self) -> None:
        self.records: List[tuple] = []
        # The list's own method: a record costs one builtin call.
        self.append = self.records.append

    @property
    def events(self) -> List[TraceEvent]:
        return _views(self.records)

    def close(self) -> None:
        pass


class RingBufferSink:
    """Keeps only the most recent ``capacity`` events (flight recorder).

    The ring holds the last ``capacity`` records.  Each record is at least
    one event, so they hold at least the last ``capacity`` events, and a
    read trims the views to exactly those.
    """

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._records: Deque[tuple] = deque(maxlen=capacity)
        #: Total events ever offered, including the evicted ones.
        self.total_seen = 0

    def append(self, record: tuple) -> None:
        self._records.append(record)
        head = record[0]
        # A reservation record starts with its event count.
        self.total_seen += 1 if head.__class__ is str else head

    def __len__(self) -> int:
        """Events retained (at most ``capacity``)."""
        return min(self.capacity, self.total_seen)

    @property
    def events(self) -> List[TraceEvent]:
        return _views(self._records)[-self.capacity:]

    @property
    def evicted(self) -> int:
        return self.total_seen - len(self)

    def close(self) -> None:
        pass


class JsonlSink:
    """Streams events to a file, one JSON object per line."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._handle = open(self.path, "w")
        self.written = 0

    def append(self, record: tuple) -> None:
        handle = self._handle
        for event in _views((record,)):
            json.dump(event.to_dict(), handle, separators=(",", ":"))
            handle.write("\n")
            self.written += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# ======================================================================
# Tracers
# ======================================================================
class NullTracer:
    """Disabled tracer: emit sites see ``enabled == False`` and skip.

    ``emit``/``emit_reservation`` still exist (and discard) so non-hot-path
    callers may emit unconditionally, but instrumented hot paths must check
    ``enabled`` first — tests/telemetry/test_overhead.py enforces that
    discipline.
    """

    enabled = False

    def emit(self, *fields, **named) -> None:
        pass

    def emit_reservation(self, *fields, **named) -> None:
        pass

    def close(self) -> None:
        pass


#: Shared default instance; stateless, safe to reuse everywhere.
NULL_TRACER = NullTracer()


class Tracer:
    """Fans emitted records out to one or more sinks."""

    enabled = True

    def __init__(self, sinks: Optional[Iterable] = None):
        self.sinks = list(sinks) if sinks is not None else [ListSink()]
        self.emitted = 0

    def emit(
        self, type: EventType, tick: int, channel: int = -1, rank: int = -1,
        chip: int = -1, bank: int = -1, req_id: int = -1, start: int = -1,
        end: int = -1, kind: str = "", reason: str = "",
        extra: Optional[dict] = None,
    ) -> None:
        """Record one event; the arguments are :class:`TraceEvent`'s fields."""
        # ``_value_`` is the plain attribute behind the ``value`` property.
        record = (
            type._value_, tick, channel, rank, chip, bank, req_id,
            start, end, kind, reason, extra,
        )
        self.emitted += 1
        for sink in self.sinks:
            sink.append(record)

    def emit_reservation(
        self, kind: str, chips: Tuple[int, ...], bank: int, start: int,
        end: int, channel: int, rank: int, reason: str,
    ) -> None:
        """Record one rank reservation as one record.

        It counts, and reads back, as a ``chip.reserve``/``chip.release``
        pair per chip.  ``chips`` is kept as given, so it must be a tuple;
        an empty one records nothing, so every record is at least one
        event (what keeps a ring's last records covering its capacity).
        """
        if not chips:
            return
        count = 2 * len(chips)
        record = (count, chips, bank, start, end, kind, reason, channel, rank)
        self.emitted += count
        for sink in self.sinks:
            sink.append(record)

    def events(self) -> List[TraceEvent]:
        """Events (a fresh list) from the first sink exposing ``events``."""
        for sink in self.sinks:
            events = getattr(sink, "events", None)
            if events is not None:
                return events
        return []

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


# ======================================================================
# The bundle the simulator threads through the stack
# ======================================================================
@dataclass
class Telemetry:
    """Tracer + metrics registry handed to every instrumented component.

    The registry is always live (cheap); the tracer defaults to
    :data:`NULL_TRACER` so tracing is strictly opt-in.
    """

    tracer: Union[Tracer, NullTracer] = NULL_TRACER
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @classmethod
    def disabled(cls) -> "Telemetry":
        """Registry only — the default for ordinary runs."""
        return cls()

    @classmethod
    def recording(cls, sinks: Optional[Iterable] = None) -> "Telemetry":
        """Registry plus an enabled tracer (default: unbounded list sink)."""
        return cls(tracer=Tracer(sinks))
