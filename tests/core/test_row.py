"""Independent unit tests for repro.core.row (RoW window engine)."""

import pytest

from repro.core.row import ReadOverWritePolicy
from repro.memory.timing import DEFAULT_TIMING

from tests.conftest import ShadowIrlpRecorder, harness


def counter(h, name) -> int:
    return h.controller.telemetry.metrics.counter(name).value


def row_policy(h) -> ReadOverWritePolicy:
    policy = h.controller.policies.policies[1]  # after silent-write
    assert isinstance(policy, ReadOverWritePolicy)
    return policy


def test_chain_composition():
    h = harness("row-nr")
    assert [p.name for p in h.controller.policies.policies] == [
        "silent-write", "row-window", "fine-write",
    ]


# ----------------------------------------------------------------------
# Decline reasons
# ----------------------------------------------------------------------
def test_declines_without_queued_reads():
    h = harness("row-nr")
    w = h.write(0, 0b1)
    h.run()
    assert w.completion > 0  # fine-write fallback served it
    assert counter(h, "row.attempts") >= 1
    assert counter(h, "row.declined.no-queued-reads") >= 1
    assert counter(h, "row.windows") == 0


def test_declines_writes_with_too_many_essential_words():
    h = harness("row-nr")  # row_max_essential_words defaults to 1
    h.read(1000)
    w = h.write(0, 0b11)  # two essential words
    h.run()
    assert w.completion > 0
    assert counter(h, "row.declined.too-many-essential-words") >= 1
    assert counter(h, "row.windows") == 0


def test_declines_under_write_pressure_when_wow_available():
    h = harness("rwow-nr")
    for i in range(28):  # above the 80% high watermark
        h.write(i, 0b1)
    for i in range(4):
        h.read(1000 + i)
    h.run_until(h.engine.now + 2 * DEFAULT_TIMING.array_write_ticks)
    assert counter(h, "row.declined.write-pressure") >= 1
    h.run()
    assert h.all_done()


# ----------------------------------------------------------------------
# Window service
# ----------------------------------------------------------------------
def test_window_overlaps_read_with_write():
    # A RoW window opens when a read is queued while writes drain:
    # outside drain a queued-but-unready read blocks write issue.
    h = harness("row-nr")
    writes = [h.write(i, 0b1) for i in range(28)]
    r = h.read(1000)  # same rank, different line
    h.run()
    assert counter(h, "row.windows") >= 1
    assert h.stats.row_reads >= 1
    # The overlapped read finished without waiting out the drain.
    assert r.completion < max(w.completion for w in writes)


def test_overlap_cap_bounds_reads_per_window():
    h = harness("row-nr", row_max_overlapped_reads=1)
    h.write(0, 0b1)
    for i in range(3):
        h.read(1000 + i)
    h.run()
    windows = counter(h, "row.windows")
    served = (
        h.stats.row_reads
        + h.stats.row_normal_overlap_reads
    )
    assert served <= windows * 1
    assert h.all_done()


# ----------------------------------------------------------------------
# Deferred verification and rollback
# ----------------------------------------------------------------------
def _run_reconstructing_workload(rate: float):
    """Drain of chip-0 writes + reads that must reconstruct word 0."""
    h = harness("row-nr", row_rollback_rate=rate)
    for i in range(28):
        h.write(i, 0b1)  # every window keeps chip 0 write-busy
    for i in range(4):
        h.read(1000 + i)
    h.run()
    assert h.all_done()
    return h


def test_reconstructed_reads_verify_and_may_roll_back():
    h = _run_reconstructing_workload(rate=1.0)
    stats = h.stats
    assert stats.verify_count >= 1
    assert stats.rollbacks >= 1


def test_zero_rollback_rate_never_rolls_back():
    h = _run_reconstructing_workload(rate=0.0)
    assert h.stats.verify_count >= 1
    assert h.stats.rollbacks == 0


# ----------------------------------------------------------------------
# IRLP folding of RoW windows
# ----------------------------------------------------------------------
def _row_window_kicked_at_its_end(kick_at=None, kick_first=True):
    """Run row-nr's first RoW window, optionally with a controller kick at
    ``kick_at`` queued before (``kick_first``) or after the window's
    deferred PCC step; returns (recorder, window, data end, what the kick
    saw of the window)."""
    h = harness("row-nr")
    c = h.controller
    c.irlp = shadow = ShadowIrlpRecorder()
    opened = {}
    seen = {}

    def kick() -> None:
        row_window = opened["window"]
        seen["end_before"] = row_window.end
        c._kick()
        seen["open_after"] = row_window in c._open_windows
        seen["holds_after"] = row_window.holds

    issue = c.fine.issue_fine_write

    def issue_fine_write(req, decoded, now, window, defer_pcc=False):
        result = issue(req, decoded, now, window=window, defer_pcc=defer_pcc)
        if defer_pcc and not opened:
            opened["window"], opened["data_end"] = window, result[1]
            if kick_at is not None and not kick_first:
                c.engine.call_at(kick_at, kick)  # queued after the step
        return result

    c.fine.issue_fine_write = issue_fine_write
    if kick_at is not None and kick_first:
        c.engine.call_at(kick_at, kick)  # queued before the step
    for i in range(28):
        h.write(i, 0b1)
    h.read(1000)
    h.run()
    assert h.all_done()
    return shadow, opened["window"], opened["data_end"], seen


@pytest.mark.parametrize("kick_first", [True, False], ids=["prune-first", "step-first"])
def test_row_window_folds_after_its_deferred_step(kick_first):
    """The PCC step fires at the window's end tick and widens the window;
    a kick at that tick prunes it first or finds it already widened."""
    *_, data_end, _seen = _row_window_kicked_at_its_end()
    shadow, window, again, seen = _row_window_kicked_at_its_end(
        data_end, kick_first
    )
    assert again == data_end
    assert window.end > data_end  # the step widened the window
    if kick_first:
        # Pruned at its data end, while the step still held it.
        assert seen == {"end_before": data_end, "open_after": False,
                        "holds_after": 1}
    else:
        assert seen["end_before"] == window.end and seen["open_after"]
    assert window.holds == 0
    assert shadow.values() == shadow.expected_values()
    assert shadow.spans() == shadow.expected_spans()
