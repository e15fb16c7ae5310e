"""Unit tests for the trace-driven core model."""

import pytest

from repro.core.systems import make_system
from repro.cpu.core import CoreParams, TraceCore
from repro.memory.memsys import MainMemory
from repro.sim.engine import Engine
from repro.trace.record import AccessKind, TraceRecord


def _system(engine, name="baseline", **overrides):
    return MainMemory(engine, make_system(name, **overrides))


def _run_core(records, params=None, system="baseline", limit=10_000):
    engine = Engine()
    memory = _system(engine, system)
    core = TraceCore(
        engine, 0, iter(records), memory, params or CoreParams(), limit
    )
    core.start()
    engine.run(max_events=10_000_000)
    return core, memory, engine


def _submitted(records, params):
    """Run a core on the baseline; returns it and its requests in the
    order it submitted them, each stamped on arrival and completion."""
    engine = Engine()
    memory = _system(engine)
    requests = []
    submit = memory.submit

    def record(request):
        requests.append(request)
        submit(request)

    memory.submit = record
    core = TraceCore(engine, 0, iter(records), memory, params, 100)
    core.start()
    engine.run(max_events=10_000_000)
    return core, requests


def test_compute_only_trace_runs_at_base_cpi():
    params = CoreParams(base_cpi=2.0)
    core, _memory, _engine = _run_core([], params=params, limit=1000)
    assert core.done
    assert core.instructions_retired == 1000
    assert core.ipc == pytest.approx(1.0 / params.base_cpi, rel=0.01)


def test_reads_issue_and_complete():
    records = [TraceRecord(100, AccessKind.READ, i * 64) for i in range(10)]
    core, memory, _ = _run_core(records, limit=2000)
    assert core.done
    assert core.reads_issued == 10
    assert memory.aggregate_stats().reads_completed == 10


def test_writes_issue_without_stalling_ipc_much():
    records = [TraceRecord(500, AccessKind.WRITE_BACK, i * 64, dirty_mask=1) for i in range(5)]
    params = CoreParams(base_cpi=1.0)
    core, memory, _ = _run_core(records, params=params, limit=3000)
    assert core.done
    assert core.writes_issued == 5
    # Sparse writes never back-pressure: IPC stays near base.
    assert core.ipc == pytest.approx(1.0, rel=0.05)


def test_mlp_limit_stalls_core():
    # 64 dependent-ish reads with no instruction gap: the core can only
    # keep `max_outstanding_reads` in flight.
    records = [TraceRecord(0, AccessKind.READ, i * 64 * 4096) for i in range(64)]
    params = CoreParams(max_outstanding_reads=2)
    core, reads = _submitted(records, params)
    assert core.done
    assert len(reads) == 64
    for i, read in enumerate(reads):
        in_flight = sum(1 for r in reads[:i] if r.completion > read.arrival)
        assert in_flight < params.max_outstanding_reads, i
    # Reads waited for the window: submitted after the core first tried.
    assert any(r.arrival > r.requested_at for r in reads)


def test_full_write_queue_backpressures():
    records = [
        TraceRecord(0, AccessKind.WRITE_BACK, i * 64 * 4, dirty_mask=0xFF)
        for i in range(64)
    ]
    core, writes = _submitted(records, CoreParams())
    assert core.done
    assert len(writes) == 64
    # Zero-gap records all want tick 0: only a full write queue (every
    # line maps to channel 0) can hold a submit back.
    capacity = make_system("baseline").write_queue_capacity
    assert all(w.arrival == 0 for w in writes[:capacity])
    assert writes[capacity].arrival > 0


def test_instruction_limit_respected():
    records = [TraceRecord(10_000, AccessKind.READ, 0)]
    core, _memory, _ = _run_core(records, limit=500)
    assert core.instructions_retired == 500


def test_finite_trace_retires_remaining_budget():
    records = [TraceRecord(10, AccessKind.READ, 0)]
    core, _memory, _ = _run_core(records, limit=1000)
    assert core.done
    assert core.instructions_retired == 1000


def test_cpu_cycles_requires_finish():
    engine = Engine()
    memory = _system(engine)
    core = TraceCore(engine, 0, iter([]), memory, CoreParams(), 100)
    with pytest.raises(ValueError):
        _ = core.cpu_cycles


def test_rollback_penalty_slows_core():
    # RoW system with guaranteed rollbacks: interleave enough writes to
    # trigger drains plus reads that get RoW-served.
    def records():
        for i in range(40):
            yield TraceRecord(5, AccessKind.WRITE_BACK, i * 64 * 4, dirty_mask=1)
        for i in range(30):
            yield TraceRecord(20, AccessKind.READ, (1000 + i) * 64 * 4)

    engine = Engine()
    memory = MainMemory(engine, make_system("row-nr", row_rollback_rate=1.0))
    core = TraceCore(engine, 0, records(), memory, CoreParams(), 5000)
    core.start()
    engine.run(max_events=10_000_000)
    assert core.done
    if memory.aggregate_stats().row_reads:
        assert core.rollback_model.rollbacks > 0
        assert core.rollback_model.penalty_cycles_total > 0


def test_core_params_cycle_ticks():
    assert CoreParams(cpu_ghz=2.5).cycle_ticks == 4
