"""Rollback cost model and its coupling into the trace core.

Three layers:

* the :class:`RollbackModel` arithmetic itself (depth accounting),
* how :class:`TraceCore` converts a failed deferred verification into
  delay on the *next* trace record (re-execution ordering), and
* the ordering contract with the deferred-verify completion path: the
  read completes (unstalling the MLP window) strictly before its verify
  callback fires, and a clean verify charges nothing.
"""

from repro.cpu.core import CoreParams, TraceCore
from repro.cpu.rollback import RollbackModel
from repro.memory.request import MemoryRequest, RequestKind
from repro.sim.engine import Engine
from repro.trace.record import AccessKind, TraceRecord


def test_penalty_is_flush_plus_refetch():
    model = RollbackModel(flush_cycles=40, refetch_cycles=60)
    assert model.penalty_cycles == 100


def test_on_rollback_accumulates():
    model = RollbackModel(flush_cycles=10, refetch_cycles=5)
    assert model.on_rollback() == 15
    assert model.on_rollback() == 15
    assert model.rollbacks == 2
    assert model.penalty_cycles_total == 30


def test_fresh_model_has_no_cost():
    model = RollbackModel()
    assert model.rollbacks == 0
    assert model.penalty_cycles_total == 0


def test_depth_accounting_is_linear():
    model = RollbackModel(flush_cycles=7, refetch_cycles=11)
    for depth in range(1, 6):
        model.on_rollback()
        assert model.rollbacks == depth
        assert model.penalty_cycles_total == depth * 18


# ---------------------------------------------------------------------------
# TraceCore coupling: stub memory with deterministic complete/verify timing.
# ---------------------------------------------------------------------------

class StubMemory:
    """Completes every read after a fixed latency, then verifies it.

    ``rollback_reads`` lists read indices (in submission order) whose
    deferred verification fails.  The complete -> verify ordering mirrors
    the real RoW controller: data is returned (and consumed) first, the
    SECDED verdict lands ``verify_gap`` ticks later.
    """

    def __init__(self, engine, read_latency=1000, verify_gap=400,
                 rollback_reads=()):
        self.engine = engine
        self.read_latency = read_latency
        self.verify_gap = verify_gap
        self.rollback_reads = frozenset(rollback_reads)
        self.reads_seen = 0
        self.submit_ticks = []
        self.events = []  #: ("complete" | "verify", read index, tick)

    def can_accept(self, kind, address):
        return True

    def wait_for_space(self, kind, address, callback):
        raise AssertionError("StubMemory never exerts back-pressure")

    def submit(self, request: MemoryRequest) -> None:
        self.submit_ticks.append(self.engine.now)
        if request.kind is not RequestKind.READ:
            return
        index = self.reads_seen
        self.reads_seen += 1
        self.engine.call_after(self.read_latency, self._complete, request, index)

    def _complete(self, request, index):
        request.completion = self.engine.now
        self.events.append(("complete", index, self.engine.now))
        if request.on_complete is not None:
            request.on_complete(request)
        self.engine.call_after(self.verify_gap, self._verify, request, index)

    def _verify(self, request, index):
        rollback = index in self.rollback_reads
        request.verify_completion = self.engine.now
        request.rolled_back = rollback
        self.events.append(("verify", index, self.engine.now))
        if request.on_verify is not None:
            request.on_verify(request, rollback)


def read_trace(n, gap=10):
    return iter(
        TraceRecord(gap_instructions=gap, kind=AccessKind.READ, address=64 * i)
        for i in range(n)
    )


def run_core(rollback_reads=(), n_reads=3, gap=10, limit=10_000):
    engine = Engine()
    params = CoreParams()
    memory = StubMemory(engine, rollback_reads=rollback_reads)
    core = TraceCore(engine, 0, read_trace(n_reads, gap), memory, params, limit)
    core.start()
    while engine.step():
        pass
    assert core.done
    return core, memory, params


def test_clean_verify_charges_nothing():
    core, memory, _ = run_core(rollback_reads=())
    assert memory.reads_seen == 3
    assert core.rollback_model.rollbacks == 0
    assert core.rollback_model.penalty_cycles_total == 0
    assert core._penalty_ticks_owed == 0


def test_rollback_counted_once_per_failed_verify():
    core, _, params = run_core(rollback_reads=(0, 2))
    assert core.rollback_model.rollbacks == 2
    assert (
        core.rollback_model.penalty_cycles_total
        == 2 * core.rollback_model.penalty_cycles
    )
    assert core.rollback_model.penalty_cycles == (
        params.rollback_flush_cycles + params.rollback_refetch_cycles
    )


def test_penalty_delays_the_next_record_exactly():
    # Same trace with and without a rollback on the first read: the only
    # timing difference allowed is the flush+refetch penalty applied to
    # the first record whose gap delay is computed *after* the verdict.
    # With gap=500 (2000 cycles = 8000 ticks between records) read 0's
    # verify (submit + 1000 + 400 ticks) lands while record 1 is already
    # scheduled, so record 2 is the one that absorbs the penalty.
    clean_core, clean_mem, params = run_core(
        rollback_reads=(), n_reads=4, gap=500
    )
    hit_core, hit_mem, _ = run_core(rollback_reads=(0,), n_reads=4, gap=500)
    penalty_ticks = (
        hit_core.rollback_model.penalty_cycles * params.cycle_ticks
    )
    verify_tick = next(t for what, i, t in hit_mem.events
                       if what == "verify" and i == 0)
    assert hit_mem.submit_ticks[1] > verify_tick  # verdict landed mid-trace
    assert hit_mem.submit_ticks[0] == clean_mem.submit_ticks[0]
    assert hit_mem.submit_ticks[1] == clean_mem.submit_ticks[1]
    for i in (2, 3):
        assert hit_mem.submit_ticks[i] == (
            clean_mem.submit_ticks[i] + penalty_ticks
        )
    # The owed penalty was consumed once, not double-charged.
    assert hit_core._penalty_ticks_owed == 0
    assert hit_core.finish_tick == clean_core.finish_tick + penalty_ticks


def test_multiple_rollbacks_before_next_record_accumulate():
    # Both in-flight reads fail verification while the core is between
    # records: the owed penalty must stack, then drain in one go.
    core, _, params = run_core(rollback_reads=(0, 1), n_reads=2, gap=1)
    assert core.rollback_model.rollbacks == 2
    assert core._penalty_ticks_owed in (
        0,  # consumed by a later record / end-of-trace advance
        2 * core.rollback_model.penalty_cycles * params.cycle_ticks,
    )
    assert (
        core.rollback_model.penalty_cycles_total
        == 2 * core.rollback_model.penalty_cycles
    )


def test_verify_fires_after_completion_for_every_read():
    _, memory, _ = run_core(rollback_reads=(1,), n_reads=5)
    complete_at = {i: t for what, i, t in memory.events if what == "complete"}
    verify_at = {i: t for what, i, t in memory.events if what == "verify"}
    assert set(complete_at) == set(verify_at) == set(range(5))
    for i in range(5):
        assert verify_at[i] > complete_at[i]


def test_completion_unstalls_before_verify_verdict():
    # With an MLP window of 4 and 6 back-to-back reads, read 4 can only
    # issue once a completion returns — and it must not wait for the
    # (later) verify verdict of that read.
    engine = Engine()
    memory = StubMemory(engine, rollback_reads=(0,))
    core = TraceCore(engine, 0, read_trace(6, gap=0), memory, CoreParams(),
                     10_000)
    core.start()
    while engine.step():
        pass
    first_complete = next(t for what, i, t in memory.events
                          if what == "complete" and i == 0)
    first_verify = next(t for what, i, t in memory.events
                        if what == "verify" and i == 0)
    fifth_submit = memory.submit_ticks[4]
    assert first_complete <= fifth_submit < first_verify
    # The fifth read waited on the window, not on its (zero) gap.
    assert fifth_submit > memory.submit_ticks[3]
    # The rollback on read 0 was still charged through the same path.
    assert core.rollback_model.rollbacks == 1
