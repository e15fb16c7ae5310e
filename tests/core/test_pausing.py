"""Unit tests for the write-pausing comparator (its policy chain)."""

import pytest

from repro.core.pausing import WritePausingPolicy
from repro.core.systems import make_system
from repro.memory.controller import MemoryController
from repro.memory.request import make_read, make_write
from repro.memory.timing import DEFAULT_TIMING
from repro.sim.engine import Engine
from repro.telemetry import EventType, ListSink, Telemetry

from tests.conftest import harness


def pauses(h) -> int:
    """Pauses taken so far, from the run's one record of them."""
    return h.controller.telemetry.metrics.value("write.pauses")


def test_factory_builds_pausing_controller():
    controller = MemoryController(Engine(), make_system("write-pausing"))
    (policy,) = controller.policies.policies
    assert isinstance(policy, WritePausingPolicy)
    assert controller.fine is None
    assert [p.name for p in controller.policies.policies] == ["write-pausing"]


def test_pausing_incompatible_with_pcmap():
    with pytest.raises(ValueError):
        make_system("write-pausing", fine_grained_writes=True)


def test_write_completes_without_reads():
    h = harness("write-pausing")
    w = h.write(0, 0xFF)
    h.run()
    assert w.completion > 0
    assert w.latency >= DEFAULT_TIMING.array_write_ticks
    assert pauses(h) == 0


def test_read_preempts_ongoing_write():
    h = harness("write-pausing")
    w = h.write(0, 0xFF)
    # Let the write get into its array phase, then submit a read.
    h.run_until(h.engine.now + DEFAULT_TIMING.array_write_ticks // 3)
    r = h.read(500)
    h.run()
    assert pauses(h) >= 1
    # The read finished before the (paused) write did.
    assert r.completion < w.completion
    assert w.completion > 0


def test_pausing_beats_baseline_read_latency_for_sparse_writes():
    """Pausing pays off when reads land mid-write outside drains (its
    design point); during drains it behaves like the baseline."""

    def read_latency(system):
        h = harness(system)
        latencies = []
        for i in range(12):
            h.write(i, 0xFF)
            h.run_until(h.engine.now + DEFAULT_TIMING.array_write_ticks // 3)
            r = h.read(1000 + i)
            h.run_until(h.engine.now + 4 * DEFAULT_TIMING.array_write_ticks)
            latencies.append(r)
        h.run()
        return sum(r.latency for r in latencies) / len(latencies)

    assert read_latency("write-pausing") < read_latency("baseline")


def test_pause_budget_bounds_write_latency():
    h = harness("write-pausing")
    w = h.write(0, 0xFF)
    h.run_until(h.engine.now + DEFAULT_TIMING.array_write_ticks // 4)
    # A stream of reads tries to starve the write.
    for i in range(12):
        try:
            h.read(2000 + i)
        except OverflowError:
            break
    h.run()
    assert w.completion > 0
    # At most MAX_PAUSES pauses were taken for this write.
    assert pauses(h) <= WritePausingPolicy.MAX_PAUSES


# ----------------------------------------------------------------------
# Quantum slicing
# ----------------------------------------------------------------------
def test_quantum_is_quarter_write_latency():
    h = harness("write-pausing")
    (policy,) = h.controller.policies.policies
    expected = max(
        1,
        int(DEFAULT_TIMING.array_write_ticks
            * WritePausingPolicy.PAUSE_QUANTUM_FRACTION),
    )
    assert policy._quantum_ticks == expected


def test_quantum_slicing_adds_no_latency_when_unpaused():
    """Back-to-back quanta must complete at the same tick as one
    monolithic coarse write — slicing only creates pause *opportunities*."""
    hp = harness("write-pausing")
    hb = harness("baseline")
    wp = hp.write(0, 0xFF)
    wb = hb.write(0, 0xFF)
    hp.run()
    hb.run()
    assert pauses(hp) == 0
    assert wp.completion == wb.completion


# ----------------------------------------------------------------------
# Resume ordering
# ----------------------------------------------------------------------
def test_resume_waits_for_preempting_reads():
    sink = ListSink()
    engine = Engine()
    controller = MemoryController(
        engine,
        make_system("write-pausing"),
        channel_id=0,
        telemetry=Telemetry.recording([sink]),
    )
    stride = 64 * 4  # land on channel 0 of the 4-channel geometry
    write = make_write(1, 0, 0xFF)
    controller.submit(write)
    engine.run(until=engine.now + DEFAULT_TIMING.array_write_ticks // 3)
    read = make_read(2, 500 * stride)
    controller.submit(read)
    engine.run()

    pause = next(
        e for e in sink.events if e.type is EventType.WRITE_PAUSE
    )
    resume = next(
        e for e in sink.events if e.type is EventType.WRITE_RESUME
    )
    read_done = next(
        e for e in sink.events
        if e.type is EventType.REQUEST_COMPLETE and e.kind == "read"
    )
    # Pause -> read drains -> resume -> write completes, in that order.
    assert pause.tick < resume.tick
    assert read_done.tick <= resume.tick
    assert write.completion > resume.tick
    assert pause.extra["remaining_ticks"] == resume.extra["remaining_ticks"]


def test_resume_overhead_is_charged():
    """A paused write finishes later than an unpaused one by at least the
    resume overhead."""
    clean = harness("write-pausing")
    w_clean = clean.write(0, 0xFF)
    clean.run()

    paused = harness("write-pausing")
    w_paused = paused.write(0, 0xFF)
    paused.run_until(paused.engine.now + DEFAULT_TIMING.array_write_ticks // 3)
    paused.read(500)
    paused.run()
    assert pauses(paused) >= 1
    overhead = DEFAULT_TIMING.cycles(
        WritePausingPolicy.RESUME_OVERHEAD_CYCLES
    )
    assert w_paused.completion >= w_clean.completion + overhead


# ----------------------------------------------------------------------
# Drain-watermark interaction
# ----------------------------------------------------------------------
def test_no_pausing_under_drain_pressure():
    """Above the high watermark, preemption is disallowed: the drain
    degenerates to the baseline policy and reads wait."""
    h = harness("write-pausing")
    for i in range(28):  # 28/32 > the 80% high watermark -> drain mode
        h.write(i, 0xFF)
    r = h.read(999)
    h.run_until(h.engine.now + 4 * DEFAULT_TIMING.array_write_ticks)
    assert pauses(h) == 0
    assert r.completion < 0  # the read is still waiting out the drain
    h.run()
    assert h.all_done()


def test_pausing_resumes_after_drain_exits():
    """Once the drain empties the queue below the low watermark, reads
    preempt writes again."""
    h = harness("write-pausing")
    for i in range(28):
        h.write(i, 0xFF)
    h.run()  # drain everything
    assert pauses(h) == 0
    w = h.write(100, 0xFF)
    h.run_until(h.engine.now + DEFAULT_TIMING.array_write_ticks // 3)
    r = h.read(999)
    h.run()
    assert pauses(h) >= 1
    assert r.completion < w.completion


def test_all_requests_complete_under_mixed_load():
    h = harness("write-pausing")
    import random

    rng = random.Random(3)
    for i in range(60):
        if rng.random() < 0.4:
            try:
                h.read(rng.randrange(1 << 12))
            except OverflowError:
                pass
        else:
            try:
                h.write(rng.randrange(1 << 12), rng.randrange(1, 256))
            except OverflowError:
                pass
        h.run_until(h.engine.now + 400)
    h.run()
    assert h.all_done()
