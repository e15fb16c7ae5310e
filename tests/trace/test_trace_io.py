"""Unit tests for trace file I/O."""

import pytest

from repro.trace.record import AccessKind, TraceRecord
from repro.trace.synthetic import SyntheticTraceGenerator
from repro.trace.trace_io import (
    format_record,
    iter_trace,
    parse_record,
    save_trace,
)
from repro.trace.workloads import get_workload


def test_format_read():
    record = TraceRecord(12, AccessKind.READ, 0x1000)
    assert format_record(record) == "12 R 0x1000"


def test_format_write_back_includes_mask():
    record = TraceRecord(0, AccessKind.WRITE_BACK, 0x40, dirty_mask=0xA5)
    assert format_record(record) == "0 W 0x40 0xa5"


def test_parse_roundtrip():
    original = TraceRecord(7, AccessKind.WRITE_BACK, 0x2000, dirty_mask=0x3)
    assert parse_record(format_record(original)) == original


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_record("12 R")
    with pytest.raises(ValueError):
        parse_record("12 X 0x40")
    with pytest.raises(ValueError):
        parse_record("12 W 0x40")  # missing mask


def test_save_and_load_file_roundtrip(tmp_path):
    generator = SyntheticTraceGenerator(get_workload("MP1"), seed=5)
    records = generator.take(300)
    path = tmp_path / "mp1.trace"
    count = save_trace(path, records)
    assert count == 300
    loaded = list(iter_trace(path))
    assert loaded == records


def test_iter_trace_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text("# header\n\n5 R 0x40\n# mid comment\n0 W 0x80 0x1\n")
    records = list(iter_trace(path))
    assert len(records) == 2
    assert records[0].kind is AccessKind.READ
    assert records[1].dirty_mask == 1
