"""Unit tests for trace records."""

import pytest

from repro.trace.record import AccessKind, TraceRecord


def test_read_record():
    record = TraceRecord(10, AccessKind.READ, 128)
    assert record.line_address == 2


def test_write_back_carries_mask():
    record = TraceRecord(0, AccessKind.WRITE_BACK, 64, dirty_mask=0b11)
    assert record.dirty_mask == 0b11


def test_memory_level_records_must_be_aligned():
    with pytest.raises(ValueError):
        TraceRecord(0, AccessKind.READ, 3)
    with pytest.raises(ValueError):
        TraceRecord(0, AccessKind.WRITE_BACK, 65)


def test_loads_may_be_unaligned():
    record = TraceRecord(0, AccessKind.LOAD, 0x1003)
    assert record.address == 0x1003


def test_negative_gap_rejected():
    with pytest.raises(ValueError):
        TraceRecord(-1, AccessKind.READ, 0)


def test_mask_only_on_write_backs():
    with pytest.raises(ValueError):
        TraceRecord(0, AccessKind.READ, 0, dirty_mask=1)
    with pytest.raises(ValueError):
        TraceRecord(0, AccessKind.LOAD, 0, dirty_mask=1)


def test_mask_range_checked():
    with pytest.raises(ValueError):
        TraceRecord(0, AccessKind.WRITE_BACK, 0, dirty_mask=256)


def test_records_are_immutable():
    record = TraceRecord(0, AccessKind.READ, 0)
    with pytest.raises(AttributeError):
        record.address = 64  # type: ignore[misc]
