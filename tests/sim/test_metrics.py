"""Unit tests for IRLP windows and statistics containers."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.systems import make_system
from repro.sim.engine import ticks_to_ns
from repro.sim.metrics import (
    IrlpRecorder,
    MAX_IRLP,
    MemoryStats,
    SimulationResult,
    WriteWindow,
    merge_intervals,
)
from repro.sim.simulator import SimulationParams, SystemSimulator
from repro.telemetry import MetricsRegistry


# ----------------------------------------------------------------------
# merge_intervals
# ----------------------------------------------------------------------
def test_merge_empty():
    assert merge_intervals([]) == []


def test_merge_disjoint_sorted():
    assert merge_intervals([(0, 5), (10, 15)]) == [(0, 5), (10, 15)]


def test_merge_overlapping():
    assert merge_intervals([(0, 10), (5, 20)]) == [(0, 20)]


def test_merge_touching_intervals_join():
    assert merge_intervals([(0, 10), (10, 20)]) == [(0, 20)]


def test_merge_unsorted_input():
    assert merge_intervals([(10, 12), (0, 3), (2, 5)]) == [(0, 5), (10, 12)]


def test_merge_nested():
    assert merge_intervals([(0, 100), (10, 20), (30, 40)]) == [(0, 100)]


# ----------------------------------------------------------------------
# WriteWindow
# ----------------------------------------------------------------------
def test_single_chip_full_window_irlp_is_one():
    window = WriteWindow(0, 100)
    window.add_activity(3, 0, 100)
    assert window.irlp() == pytest.approx(1.0)


def test_irlp_counts_parallel_chips():
    window = WriteWindow(0, 100)
    for chip in range(4):
        window.add_activity(chip, 0, 100)
    assert window.irlp() == pytest.approx(4.0)


def test_irlp_partial_occupancy():
    window = WriteWindow(0, 100)
    window.add_activity(0, 0, 100)
    window.add_activity(1, 0, 50)
    assert window.irlp() == pytest.approx(1.5)


def test_irlp_clips_activity_to_window():
    window = WriteWindow(50, 150)
    window.add_activity(0, 0, 200)  # extends both sides
    assert window.irlp() == pytest.approx(1.0)


def test_irlp_same_chip_overlaps_not_double_counted():
    window = WriteWindow(0, 100)
    window.add_activity(0, 0, 80)
    window.add_activity(0, 40, 100)
    assert window.irlp() == pytest.approx(1.0)


def test_irlp_instantaneous_count_capped():
    window = WriteWindow(0, 100)
    for chip in range(MAX_IRLP + 3):
        window.add_activity(chip, 0, 100)
    assert window.irlp() == pytest.approx(float(MAX_IRLP))


def test_empty_window_irlp_zero():
    assert WriteWindow(10, 10).irlp() == 0.0


def test_zero_length_activity_ignored():
    window = WriteWindow(0, 100)
    window.add_activity(0, 50, 50)
    assert window.irlp() == 0.0


def test_absorb_initialises_placeholder():
    window = WriteWindow(-1, -1)
    window.absorb(100, 200)
    assert (window.start, window.end) == (100, 200)
    window.absorb(50, 150)
    assert (window.start, window.end) == (50, 200)


def test_extend_grows_end_only():
    window = WriteWindow(10, 20)
    window.extend(15)
    assert window.end == 20
    window.extend(40)
    assert window.end == 40


def test_service_end_tracks_maximum():
    window = WriteWindow(0, 100)
    window.note_service_end(120)
    window.note_service_end(110)
    assert window.service_end == 120
    assert window.busy_end == 120


def test_busy_end_defaults_to_window_end():
    assert WriteWindow(0, 100).busy_end == 100


def reference_irlp(window):
    """IRLP as computed before the one-sort sweep: merge each chip's
    clipped intervals, then sweep the merged spans' endpoints."""
    if window.end <= window.start:
        return 0.0
    per_chip = {}
    for chip, start, end in window.activities:
        clipped = (max(start, window.start), min(end, window.end))
        if clipped[1] > clipped[0]:
            per_chip.setdefault(chip, []).append(clipped)
    events = []
    for intervals in per_chip.values():
        for start, end in merge_intervals(intervals):
            events.append((start, +1))
            events.append((end, -1))
    events.sort()
    busy = 0
    count = 0
    previous = window.start
    for time, delta in events:
        busy += min(count, MAX_IRLP) * (time - previous)
        count += delta
        previous = time
    busy += min(count, MAX_IRLP) * (window.end - previous)
    return busy / (window.end - window.start)


# Small coordinates so intervals often touch, nest and repeat; twelve
# chips so more than MAX_IRLP can be busy at once.
_activities = st.lists(
    st.tuples(
        st.integers(0, 11), st.integers(0, 60), st.integers(0, 40)
    ).map(lambda t: (t[0], t[1], t[1] + t[2])),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(
    span=st.tuples(st.integers(0, 40), st.integers(0, 80)),
    activities=_activities,
    grow=st.none() | st.tuples(st.integers(-10, 60), st.integers(0, 120)),
)
# Ten chips busy at once (the cap binds), each with a touching pair and
# a nested interval, in a window that then grows past them.
@example(
    span=(0, 100),
    activities=[
        (chip, start, end)
        for chip in range(MAX_IRLP + 2)
        for start, end in ((0, 50), (50, 100), (10, 20))
    ],
    grow=(-10, 130),
)
def test_irlp_equals_the_per_chip_merge_reference(span, activities, grow):
    window = WriteWindow(span[0], span[0] + span[1])
    for chip, start, end in activities:
        window.add_activity(chip, start, end)
    assert window.irlp() == reference_irlp(window)
    if grow is not None:
        # A WoW window grows after its activity is recorded; the memoised
        # value must not survive that.
        window.absorb(grow[0], grow[0] + grow[1])
        assert window.irlp() == reference_irlp(window)


# ----------------------------------------------------------------------
# IrlpRecorder
# ----------------------------------------------------------------------
def _irlp_summary(*recorders):
    """``MainMemory.irlp_summary`` over one recorder per channel."""
    from types import SimpleNamespace

    from repro.memory.memsys import MainMemory

    memory = SimpleNamespace(
        controllers=[SimpleNamespace(irlp=r) for r in recorders]
    )
    return MainMemory.irlp_summary(memory)


def test_recorder_average_over_windows():
    recorder = IrlpRecorder()
    w1 = recorder.open_window(0, 100)
    w1.add_activity(0, 0, 100)
    w2 = recorder.open_window(200, 300)
    w2.add_activity(0, 200, 300)
    w2.add_activity(1, 200, 300)
    w2.add_activity(2, 200, 300)
    mean, peak = _irlp_summary(recorder)
    assert mean == pytest.approx(2.0)
    assert peak == pytest.approx(3.0)


def test_recorder_empty_average_is_zero():
    recorder = IrlpRecorder()
    assert _irlp_summary(recorder) == (0.0, 0.0)
    recorder.open_window(50, 50)  # zero duration: never averaged
    assert _irlp_summary(recorder) == (0.0, 0.0)


def test_drain_busy_ticks_unions_service_spans():
    recorder = IrlpRecorder()
    w1 = recorder.open_window(0, 100)
    w1.note_service_end(150)
    recorder.open_window(120, 200)  # overlaps w1's tail
    assert recorder.drain_busy_ticks() == 200


def test_recorder_folds_final_windows_in_creation_order():
    recorder = IrlpRecorder()
    early = recorder.open_window(0, 100)
    early.add_activity(0, 0, 100)
    late = recorder.open_window(10, 20)
    late.add_activity(1, 10, 20)
    late.add_activity(2, 10, 20)
    recorder.release(late)  # final, but waits behind the open ``early``
    assert list(recorder._pending) == [early, late]
    recorder.release(early)
    assert not recorder._pending
    early.add_activity(3, 0, 100)  # no longer read
    assert recorder.values() == [1.0, 2.0]
    assert recorder.spans() == [(0, 100), (10, 20)]


def test_held_window_folds_once_its_last_hold_goes():
    recorder = IrlpRecorder()
    window = recorder.open_window(0, 100)
    window.add_activity(0, 0, 100)
    recorder.hold(window)  # a deferred step will still widen it
    recorder.release(window)  # dropped from the open set
    assert list(recorder._pending) == [window]
    window.extend(200)
    window.note_service_end(250)
    recorder.release(window)
    assert not recorder._pending
    assert recorder.values() == [0.5]
    assert recorder.spans() == [(0, 250)]


def test_recorder_keeps_the_last_four_windows_opened():
    recorder = IrlpRecorder()
    windows = [recorder.open_window(t, t + 10) for t in range(0, 60, 10)]
    for window in windows:
        recorder.release(window)
    assert list(recorder.recent) == windows[-4:]


# ----------------------------------------------------------------------
# MemoryStats
# ----------------------------------------------------------------------
def test_from_registry_reads_latency_and_delays():
    metrics = MetricsRegistry()
    latency = metrics.histogram("read.latency_ns")
    for ticks, delayed in ((100, False), (300, True)):
        metrics.counter("reads.completed").inc()
        metrics.counter("read.latency_ticks").inc(ticks)
        latency.observe(ticks_to_ns(ticks))
        if delayed:
            metrics.counter("reads.delayed_by_write").inc()
    stats = MemoryStats.from_registry(metrics)
    assert stats.reads_completed == 2
    assert stats.mean_read_latency_ticks == pytest.approx(200.0)
    assert stats.read_latency_max == 300
    assert stats.delayed_read_fraction == pytest.approx(0.5)


def test_from_registry_dirty_words_and_chip_writes():
    metrics = MetricsRegistry()
    dirty = metrics.histogram("writes.dirty_words", buckets=tuple(range(9)))
    for count in (0, 3, 3):
        metrics.counter("requests.write.enqueued").inc()
        dirty.observe(count)
    for chip in (10, 9, 2, 9):
        metrics.counter(f"chip{chip}.word_writes").inc()
    metrics.counter("chip4.word_writes")  # registered, never written
    stats = MemoryStats.from_registry(metrics)
    assert stats.writes_completed == 3
    assert stats.silent_writes == 1
    assert stats.dirty_word_histogram == [1, 0, 0, 2, 0, 0, 0, 0, 0]
    assert stats.mean_dirty_words == pytest.approx(2.0)
    assert stats.chip_word_writes == {2: 1, 9: 2, 10: 1}
    # Ascending chip order, whatever order the chips were first written
    # in or their registry names sort in.
    assert list(stats.chip_word_writes) == [2, 9, 10]


def test_chip_write_imbalance_is_pinned_across_pythons():
    # The squared deviations are added left to right: CPython 3.12's
    # compensated ``sum`` read ...037 on this run, 3.10 and 3.11 ...038.
    result = SystemSimulator(
        make_system("rwow-rd"), "canneal",
        SimulationParams(target_requests=1500, seed=3),
    ).run()
    assert result.memory.chip_write_imbalance() == 0.6340100700502038


def test_merge_combines_counters():
    a = MemoryStats(reads_completed=1, reads_delayed_by_write=1)
    b = MemoryStats(
        reads_completed=1, writes_completed=1, row_reads=7,
        dirty_word_histogram=[0, 0, 0, 0, 1, 0, 0, 0, 0],
    )
    a.merge(b)
    assert a.reads_completed == 2
    assert a.writes_completed == 1
    assert a.row_reads == 7
    assert a.reads_delayed_by_write == 1
    assert a.dirty_word_histogram[4] == 1


def test_empty_stats_ratios_are_zero():
    stats = MemoryStats.from_registry(MetricsRegistry())
    assert stats == MemoryStats()
    assert stats.mean_read_latency_ticks == 0.0
    assert stats.delayed_read_fraction == 0.0
    assert stats.mean_dirty_words == 0.0


# ----------------------------------------------------------------------
# SimulationResult
# ----------------------------------------------------------------------
def _result(**overrides):
    base = dict(
        system_name="baseline",
        workload_name="test",
        sim_ticks=1000,
        instructions=10_000,
        cpu_cycles=5_000,
        memory=MemoryStats(),
        irlp_average=2.4,
        irlp_max=7.0,
        write_service_busy_ticks=10_000,
    )
    base.update(overrides)
    return SimulationResult(**base)


def test_ipc_is_instructions_over_cycles():
    assert _result().ipc == pytest.approx(2.0)


def test_ipc_zero_cycles():
    assert _result(cpu_cycles=0).ipc == 0.0


def test_write_throughput_per_microsecond():
    stats = MemoryStats(writes_completed=10)
    # 10 writes over 10_000 ticks = 1000 ns = 1 us
    result = _result(memory=stats, write_service_busy_ticks=10_000)
    assert result.write_throughput == pytest.approx(10.0)


def test_write_throughput_zero_busy_time():
    assert _result(write_service_busy_ticks=0).write_throughput == 0.0
