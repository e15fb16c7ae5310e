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

An enabled run stores each event as a *record*: one fixed-width
:data:`ROW` of 40 bytes, packed by one ``struct`` call.  It holds the
tick, request id, start and end as 64-bit ints, the type and the
tracer's codes for the ``kind`` and ``reason`` strings as bytes, and the
coordinates as small ints.  Chip occupancy, the bulk of a trace, is
stored once per rank reservation instead: one row with a code for its
chips tuple and its label as a prefix code plus a request id, which
reads back as a ``chip.reserve``/``chip.release`` pair per chip.  An
``extra`` mapping waits in a sparse side table keyed by the row's
offset, and a record a row cannot hold (a coordinate out of range, a
code table full) is kept whole there.  The list and ring sinks keep
their rows in one ``bytearray`` each; :class:`TraceEvent` objects are
built only when a sink's ``events`` is read, or a line is written to a
JSONL file.
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Tuple, Union

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


# ======================================================================
# Rows: the stored form of a record
# ======================================================================
#: One record: tick, req_id (a reservation's label id), start and end as
#: 64-bit ints; the type code and the ``kind`` and ``reason`` (label
#: prefix) codes as bytes; channel and rank as signed bytes; chip (a
#: reservation's chips code) as a signed 16-bit int; bank as a signed
#: byte.  40 bytes, little-endian, no padding.
ROW = struct.Struct("<qqqqBBBbbhb")
ROW_BYTES = ROW.size
_pack = ROW.pack

#: Type codes: an event type's position in :class:`EventType`, then one
#: code for a reservation row and one each for the two kinds of record
#: kept whole in the side table.
_EVENT_TYPES = tuple(EventType)
_TYPE_CODES = {event_type: code for code, event_type in enumerate(_EVENT_TYPES)}
_RESERVATION = len(_EVENT_TYPES)
_WIDE_EVENT = 254
_WIDE_RESERVATION = 255
_WIDE_EVENT_ROW = _pack(0, 0, 0, 0, _WIDE_EVENT, 0, 0, 0, 0, 0, 0)
_WIDE_RESERVATION_ROW = _pack(0, 0, 0, 0, _WIDE_RESERVATION, 0, 0, 0, 0, 0, 0)


def _label(prefix: str, label_id: int) -> str:
    """A reservation's ``reason``: the prefix, then the id unless negative."""
    return prefix if label_id < 0 else f"{prefix}{label_id}"


class _Codes:
    """One intern table: ``codes[value]`` is a value's code once it has
    one, and ``values[code]`` reads it back.

    ``codes`` is a plain dict, so a value seen before costs one lookup.
    ``intern`` gives a new value the next code; once ``limit`` values
    hold codes, a new one gets ``limit`` and is not stored: the code does
    not fit its row field, so the record is kept whole instead.
    """

    def __init__(self, limit: int) -> None:
        self.codes: dict = {}
        self.values: list = []
        self.limit = limit

    def intern(self, value) -> int:
        codes = self.codes
        if value in codes:
            return codes[value]
        code = len(self.values)
        if code < self.limit:
            self.values.append(value)
            codes[value] = code
        return code


class _Rows:
    """Records as rows in one ``bytearray``; a ring when bounded.

    A store given a ``capacity`` overwrites its oldest row in place once
    it holds that many.  ``side`` holds the side-table entries of the
    rows held, keyed by byte offset.  The rows decode with the intern
    tables of the one tracer the store is bound to.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.rows = bytearray()
        self.side: dict = {}
        self.tracer: Optional["Tracer"] = None
        #: Byte offset of the next row, and bytes held.  In a full ring
        #: the next row overwrites the oldest, which sits at ``_offset``.
        self._offset = 0
        self._size = 0
        self._limit = -1 if capacity is None else capacity * ROW_BYTES

    def bind(self, tracer: "Tracer") -> None:
        if self.tracer is not None and self.tracer is not tracer:
            raise ValueError("a trace sink records for one tracer only")
        self.tracer = tracer

    def append(self, row: bytes, side=None) -> None:
        offset = self._offset
        end = offset + ROW_BYTES
        if offset == self._size:
            self.rows += row
            self._size = end
        else:
            self.rows[offset:end] = row
            if offset in self.side:
                del self.side[offset]
        if side is not None:
            self.side[offset] = side
        self._offset = 0 if end == self._limit else end

    def __len__(self) -> int:
        """Rows held."""
        return self._size // ROW_BYTES

    def views(self) -> List[TraceEvent]:
        """The events of the rows held, oldest first."""
        if self.tracer is None:
            return []
        rows, side, oldest, size = self.rows, self.side, self._offset, self._size
        if 0 < oldest < size:
            rows = rows[oldest:] + rows[:oldest]
            side = {(at - oldest) % size: value for at, value in side.items()}
        return self.tracer.decode(rows, side)


# ======================================================================
# Sinks: each keeps or writes the rows it is handed (``append``)
# ======================================================================
class ListSink:
    """Unbounded in-memory sink (tests, short traced runs)."""

    def __init__(self) -> None:
        self.records = _Rows()
        # The store's own methods: a record costs one call.
        self.append = self.records.append
        self.bind = self.records.bind

    @property
    def events(self) -> List[TraceEvent]:
        return self.records.views()

    def close(self) -> None:
        pass


class RingBufferSink:
    """Keeps only the most recent ``capacity`` events (flight recorder).

    The ring holds the last ``capacity`` records, overwriting the oldest
    row in place.  Each record is at least one event, so they hold at
    least the last ``capacity`` events, and a read trims the views to
    exactly those.
    """

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._records = _Rows(capacity)
        self.append = self._records.append
        self.bind = self._records.bind

    @property
    def total_seen(self) -> int:
        """Total events ever offered, including the evicted ones: all
        the tracer emitted, since it offers every sink each one."""
        tracer = self._records.tracer
        return 0 if tracer is None else tracer.emitted

    def __len__(self) -> int:
        """Events retained (at most ``capacity``)."""
        return min(self.capacity, self.total_seen)

    @property
    def events(self) -> List[TraceEvent]:
        return self._records.views()[-self.capacity:]

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
        self._tracer: Optional["Tracer"] = None
        self.written = 0

    def bind(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def append(self, row: bytes, side=None) -> None:
        handle = self._handle
        for event in self._tracer.decode(row, {} if side is None else {0: side}):
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
    """Packs each emitted record into a row and hands it to every sink.

    The tracer interns strings and chips tuples to its own codes, and
    decodes the rows it packed.  Each sink is bound to it when it is
    built, so a list or ring sink records for one tracer only.
    """

    enabled = True

    def __init__(self, sinks: Optional[Iterable] = None):
        self.sinks = list(sinks) if sinks is not None else [ListSink()]
        #: Events emitted (every sink is offered each one).
        self.emitted = 0
        #: ``kind`` and ``reason`` strings and reservation label prefixes.
        self.texts = _Codes(1 << 8)
        #: Reservation chips tuples.
        self.chips = _Codes(1 << 15)
        for sink in self.sinks:
            sink.bind(self)

    def emit(
        self, type: EventType, tick: int, channel: int = -1, rank: int = -1,
        chip: int = -1, bank: int = -1, req_id: int = -1, start: int = -1,
        end: int = -1, kind: str = "", reason: str = "",
        extra: Optional[dict] = None,
    ) -> None:
        """Record one event; the arguments are :class:`TraceEvent`'s fields."""
        texts = self.texts.codes
        try:
            row = _pack(
                tick, req_id, start, end, _TYPE_CODES[type], texts[kind],
                texts[reason], channel, rank, chip, bank,
            )
            side = extra
        except (KeyError, struct.error, TypeError):
            row, side = self._event_row(
                type, tick, channel, rank, chip, bank, req_id, start, end,
                kind, reason, extra,
            )
        self.emitted += 1
        for sink in self.sinks:
            sink.append(row, side)

    def _event_row(
        self, type, tick, channel, rank, chip, bank, req_id, start, end,
        kind, reason, extra,
    ) -> tuple:
        """``emit``'s row and side entry when a string is new to the intern
        table, or a field does not fit the row (kept whole beside it)."""
        texts = self.texts
        try:
            return _pack(
                tick, req_id, start, end, _TYPE_CODES[type],
                texts.intern(kind), texts.intern(reason), channel, rank,
                chip, bank,
            ), extra
        except (struct.error, TypeError):
            record = (type, tick, channel, rank, chip, bank, req_id, start,
                      end, kind, reason, extra)
            return _WIDE_EVENT_ROW, record

    def emit_reservation(
        self, kind: str, chips: Tuple[int, ...], bank: int, start: int,
        end: int, channel: int, rank: int, reason: str, reason_id: int = -1,
    ) -> None:
        """Record one rank reservation as one record.

        It counts, and reads back, as a ``chip.reserve``/``chip.release``
        pair per chip, whose ``reason`` is ``reason`` followed by
        ``reason_id`` unless that is negative (``"Rd-"`` and 7 read back
        as ``"Rd-7"``).  ``chips`` must be a tuple; an empty one records
        nothing, so every record is at least one event (what keeps a
        ring's last records covering its capacity).
        """
        if not chips:
            return
        texts = self.texts.codes
        try:
            row = _pack(
                0, reason_id, start, end, _RESERVATION, texts[kind],
                texts[reason], channel, rank, self.chips.codes[chips], bank,
            )
            side = None
        except (KeyError, struct.error, TypeError):
            row, side = self._reservation_row(
                kind, chips, bank, start, end, channel, rank, reason, reason_id,
            )
        self.emitted += 2 * len(chips)
        for sink in self.sinks:
            sink.append(row, side)

    def _reservation_row(
        self, kind, chips, bank, start, end, channel, rank, reason, reason_id,
    ) -> tuple:
        """``emit_reservation``'s row and side entry when a string or the
        chips tuple is new, or a field does not fit the row."""
        texts = self.texts
        try:
            return _pack(
                0, reason_id, start, end, _RESERVATION, texts.intern(kind),
                texts.intern(reason), channel, rank, self.chips.intern(chips),
                bank,
            ), None
        except (struct.error, TypeError):
            record = (kind, chips, bank, start, end, channel, rank,
                      _label(reason, reason_id))
            return _WIDE_RESERVATION_ROW, record

    def decode(self, rows, side: dict) -> List[TraceEvent]:
        """The :class:`TraceEvent` of each row of ``rows``, in order.

        ``side`` maps a row's byte offset in ``rows`` to its ``extra``,
        or to the whole record of a wide row.  A reservation expands to
        a ``chip.reserve``/``chip.release`` pair per chip, stamped at its
        start (its end when it has none).
        """
        types, texts, chip_sets = _EVENT_TYPES, self.texts.values, self.chips.values
        reserve, release = EventType.CHIP_RESERVE, EventType.CHIP_RELEASE
        get = side.get
        views: List[TraceEvent] = []
        append = views.append
        offset = -ROW_BYTES
        for (tick, req_id, start, end, code, kind, reason,
             channel, rank, chip, bank) in ROW.iter_unpack(rows):
            offset += ROW_BYTES
            if code < _RESERVATION:
                append(TraceEvent(
                    types[code], tick, channel, rank, chip, bank, req_id,
                    start, end, texts[kind], texts[reason], get(offset),
                ))
                continue
            if code == _WIDE_EVENT:
                append(TraceEvent(*side[offset]))
                continue
            if code == _RESERVATION:
                chips, kind = chip_sets[chip], texts[kind]
                reason = _label(texts[reason], req_id)
            else:
                kind, chips, bank, start, end, channel, rank, reason = side[offset]
            tick = start if start >= 0 else end
            for chip in chips:
                append(TraceEvent(reserve, tick, channel, rank, chip, bank, -1,
                                  start, end, kind, reason))
                append(TraceEvent(release, end, channel, rank, chip, bank, -1,
                                  start, end, kind, reason))
        return views

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
