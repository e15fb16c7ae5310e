"""Plain-text trace file I/O.

Traces are exchangeable as line-oriented text — one record per line::

    <gap_instructions> <R|W|L|S> <hex address> [<hex dirty mask>]

``R`` = line read, ``W`` = write-back (with mask), ``L``/``S`` =
load/store for full-hierarchy traces.  Comment lines start with ``#``.
The format round-trips exactly; see ``tests/trace/test_trace_io.py``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Union

from repro.trace.record import AccessKind, TraceRecord

_KIND_TO_CODE = {
    AccessKind.READ: "R",
    AccessKind.WRITE_BACK: "W",
    AccessKind.LOAD: "L",
    AccessKind.STORE: "S",
}
_CODE_TO_KIND = {code: kind for kind, code in _KIND_TO_CODE.items()}


def format_record(record: TraceRecord) -> str:
    """Serialise one record to its text line."""
    parts = [
        str(record.gap_instructions),
        _KIND_TO_CODE[record.kind],
        f"{record.address:#x}",
    ]
    if record.kind is AccessKind.WRITE_BACK:
        parts.append(f"{record.dirty_mask:#x}")
    return " ".join(parts)


def parse_record(line: str) -> TraceRecord:
    """Parse one text line back into a record."""
    parts = line.split()
    if len(parts) < 3:
        raise ValueError(f"malformed trace line: {line!r}")
    gap = int(parts[0])
    try:
        kind = _CODE_TO_KIND[parts[1]]
    except KeyError:
        raise ValueError(f"unknown access code {parts[1]!r} in {line!r}") from None
    address = int(parts[2], 16)
    dirty_mask = 0
    if kind is AccessKind.WRITE_BACK:
        if len(parts) < 4:
            raise ValueError(f"write-back line missing dirty mask: {line!r}")
        dirty_mask = int(parts[3], 16)
    return TraceRecord(
        gap_instructions=gap, kind=kind, address=address, dirty_mask=dirty_mask
    )


def save_trace(path: Union[str, Path], records: Iterable[TraceRecord]) -> int:
    """Write records to ``path``; returns the record count."""
    count = 0
    with open(path, "w") as handle:
        handle.write("# repro trace v1: gap kind address [dirty_mask]\n")
        for record in records:
            handle.write(format_record(record) + "\n")
            count += 1
    return count


def iter_trace(path: Union[str, Path]) -> Iterator[TraceRecord]:
    """Stream records from a trace file."""
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            yield parse_record(line)
