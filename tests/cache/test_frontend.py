"""Unit tests for the timed DRAM-cache front end.

Driven against a scripted fake memory port so latencies and back-pressure
are exact; one test runs the real MainMemory underneath for integration.
"""

import pytest

from repro.cache.frontend import (
    FILL_ID_BASE,
    WRITE_BACK_ID_BASE,
    DramCacheFrontEnd,
    FrontEndConfig,
    FrontEndStats,
)
from repro.cache.dram_cache import DramCacheConfig
from repro.memory.request import MemoryRequest, RequestKind
from repro.sim.engine import Engine

LINE = 64


class FakeMemory:
    """Scripted MemoryPort: fixed fill latency, togglable write admission."""

    def __init__(self, engine, read_latency=500):
        self.engine = engine
        self.read_latency = read_latency
        self.submitted = []
        self.accept_writes = True
        self._write_waiters = []

    def can_accept(self, kind, address):
        if kind is RequestKind.WRITE:
            return self.accept_writes
        return True

    def submit(self, request):
        request.arrival = self.engine.now
        self.submitted.append(request)
        if request.is_read:
            self.engine.call_after(
                self.read_latency,
                request.complete,
                self.engine.now + self.read_latency,
            )

    def wait_for_space(self, kind, address, callback):
        assert kind is RequestKind.WRITE
        self._write_waiters.append(callback)

    def open_writes(self):
        self.accept_writes = True
        waiters, self._write_waiters = self._write_waiters, []
        for callback in waiters:
            callback()

    @property
    def idle(self):
        return True


def _frontend(engine, memory, *, access_cycles=25, cycle_ticks=4,
              size_bytes=8 * LINE, associativity=2, mshrs=4,
              writeback_buffer=2, replacement="lru"):
    config = FrontEndConfig(
        kind="dram",
        dram=DramCacheConfig(
            size_bytes=size_bytes,
            associativity=associativity,
            access_cycles=access_cycles,
        ),
        replacement=replacement,
        mshrs=mshrs,
        writeback_buffer=writeback_buffer,
    )
    return DramCacheFrontEnd(engine, memory, config, cycle_ticks=cycle_ticks)


def _read(address, req_id=1, core_id=0):
    return MemoryRequest(
        req_id=req_id, kind=RequestKind.READ, address=address, core_id=core_id
    )


def _write(address, dirty_mask, req_id=1, core_id=0):
    return MemoryRequest(
        req_id=req_id, kind=RequestKind.WRITE, address=address,
        core_id=core_id, dirty_mask=dirty_mask,
    )


def _completion_tracker(request, log):
    request.on_complete = lambda req: log.append(
        (req.req_id, req.completion)
    )
    return request


# ---------------------------------------------------------------------------
# Satellite: access_cycles drives scheduled hit latency
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("access_cycles,cycle_ticks", [(25, 4), (100, 4), (1, 10)])
def test_access_cycles_config_round_trips_into_event_timing(
    access_cycles, cycle_ticks
):
    """The once-dead ``DramCacheConfig.access_cycles`` knob must determine
    exactly when a tier hit completes on the engine."""
    engine = Engine()
    memory = FakeMemory(engine)
    frontend = _frontend(
        engine, memory, access_cycles=access_cycles, cycle_ticks=cycle_ticks
    )
    assert frontend.hit_ticks == access_cycles * cycle_ticks

    frontend.dram.cache.install(0)          # make the next read a hit
    done = []
    frontend.submit(_completion_tracker(_read(0), done))
    assert not done                          # hit is an event, not instant
    engine.run()
    assert done == [(1, access_cycles * cycle_ticks)]
    assert frontend.stats.read_hits == 1


def test_miss_latency_is_memory_latency_not_hit_latency():
    engine = Engine()
    memory = FakeMemory(engine, read_latency=500)
    frontend = _frontend(engine, memory)
    done = []
    frontend.submit(_completion_tracker(_read(0), done))
    engine.run()
    assert done == [(1, 500)]
    assert frontend.stats.read_misses == 1
    assert frontend.stats.fills == 1


# ---------------------------------------------------------------------------
# MSHR coalescing
# ---------------------------------------------------------------------------
def test_overlapping_read_misses_coalesce_to_one_fill():
    engine = Engine()
    memory = FakeMemory(engine)
    frontend = _frontend(engine, memory)
    done = []
    frontend.submit(_completion_tracker(_read(0, req_id=1), done))
    frontend.submit(_completion_tracker(_read(0, req_id=2), done))
    frontend.submit(_completion_tracker(_read(0, req_id=3), done))
    assert frontend.mshr_depth == 1
    engine.run()
    # One PCM fill (with a tier-namespace id), all three waiters complete
    # together when it lands.
    fills = [r for r in memory.submitted if r.req_id > FILL_ID_BASE]
    assert len(fills) == 1
    assert sorted(done) == [(1, 500), (2, 500), (3, 500)]
    assert frontend.stats.coalesced == 2
    assert frontend.mshr_depth == 0


def test_write_miss_coalesces_and_merges_pending_mask():
    engine = Engine()
    memory = FakeMemory(engine)
    frontend = _frontend(engine, memory)
    frontend.submit(_write(0, dirty_mask=0b0001, req_id=1))
    frontend.submit(_write(0, dirty_mask=0b1000, req_id=2))
    assert frontend.stats.coalesced == 1
    engine.run()
    line = frontend.dram.cache.line_state(0)
    assert line is not None
    assert line.dirty_mask == 0b1001        # merged at install time
    assert frontend.stats.write_misses == 2
    assert frontend.stats.fills == 1


def test_write_hit_merges_mask_immediately():
    engine = Engine()
    memory = FakeMemory(engine)
    frontend = _frontend(engine, memory)
    frontend.dram.cache.install(0)
    frontend.submit(_write(0, dirty_mask=0b0110))
    assert frontend.dram.cache.line_state(0).dirty_mask == 0b0110
    engine.run()
    assert frontend.stats.write_hits == 1


def test_line_not_visible_before_fill_completes():
    engine = Engine()
    memory = FakeMemory(engine, read_latency=500)
    frontend = _frontend(engine, memory)
    frontend.submit(_read(0))
    assert not frontend.dram.cache.contains(0)
    engine.run(until=499)
    assert not frontend.dram.cache.contains(0)
    engine.run()
    assert frontend.dram.cache.contains(0)


# ---------------------------------------------------------------------------
# Admission control and back-pressure
# ---------------------------------------------------------------------------
def test_mshr_exhaustion_blocks_new_misses_but_not_hits():
    engine = Engine()
    memory = FakeMemory(engine)
    frontend = _frontend(engine, memory, mshrs=2)
    frontend.dram.cache.install(100 * LINE)
    frontend.submit(_read(0, req_id=1))
    frontend.submit(_read(LINE, req_id=2))
    assert frontend.mshr_depth == 2
    assert not frontend.can_accept(RequestKind.READ, 2 * LINE)  # new miss
    assert frontend.can_accept(RequestKind.READ, 0)             # MSHR hit
    assert frontend.can_accept(RequestKind.READ, 100 * LINE)    # cache hit
    engine.run()
    assert frontend.can_accept(RequestKind.READ, 2 * LINE)


def test_space_waiters_wake_after_fill_completion():
    engine = Engine()
    memory = FakeMemory(engine)
    frontend = _frontend(engine, memory, mshrs=1)
    frontend.submit(_read(0))
    woken = []
    frontend.wait_for_space(RequestKind.READ, LINE, lambda: woken.append(1))
    engine.run()
    assert woken == [1]


def test_blocked_producer_is_called_back_only_once_it_can_enter():
    engine = Engine()
    memory = FakeMemory(engine)
    # One MSHR, two one-line sets: lines 0, 2, 4, 6 share set 0.
    frontend = _frontend(engine, memory, size_bytes=2 * LINE,
                         associativity=1, mshrs=1)
    frontend.submit(_write(0, dirty_mask=1))
    engine.run()
    # PCM refuses the dirty eviction, so the tier waits on its queue.
    memory.accept_writes = False
    frontend.submit(_read(2 * LINE, req_id=2))
    engine.run()
    assert frontend.writeback_depth == 1
    frontend.submit(_read(4 * LINE, req_id=3))  # the one MSHR, in flight
    woken = []
    for name, line in (("new miss", 6), ("in flight", 4), ("resident", 2)):
        frontend.wait_for_space(
            RequestKind.READ, line * LINE, lambda name=name: woken.append(name)
        )
    # The write-back drains with the MSHR table still full: only the
    # producers whose line is in flight or resident may enter.
    memory.open_writes()
    assert frontend.writeback_depth == 0 and frontend.mshr_depth == 1
    assert woken == ["in flight", "resident"]
    # The fill frees the MSHR: the new miss is called back, once.
    engine.run()
    assert woken == ["in flight", "resident", "new miss"]


def test_full_writeback_buffer_blocks_writes():
    engine = Engine()
    memory = FakeMemory(engine)
    memory.accept_writes = False
    # assoc-1 cache: every distinct-set fill evicts; dirty lines become
    # write-backs that pile up in the tier buffer while PCM refuses them.
    frontend = _frontend(engine, memory, size_bytes=2 * LINE,
                         associativity=1, writeback_buffer=2)
    for i in (0, 2, 4, 6):  # set 0 each time (2 sets, stride 2 lines)
        frontend.submit(_write(i * LINE, dirty_mask=1, req_id=i))
        engine.run()
    assert frontend.writeback_depth >= 2
    assert not frontend.can_accept(RequestKind.WRITE, 8 * LINE)
    # Reads are still admissible (they don't need a write-back slot).
    assert frontend.can_accept(RequestKind.READ, LINE)
    # When the controller opens up, the tier drains in eviction order and
    # write admission resumes.
    memory.open_writes()
    engine.run()
    assert frontend.writeback_depth == 0
    assert frontend.can_accept(RequestKind.WRITE, 8 * LINE)
    wbs = [r for r in memory.submitted if r.req_id > WRITE_BACK_ID_BASE]
    assert len(wbs) >= 2
    addresses = [r.address for r in wbs]
    assert addresses == sorted(addresses, key=addresses.index)  # in order


def test_dirty_eviction_becomes_pcm_write_with_mask():
    engine = Engine()
    memory = FakeMemory(engine)
    frontend = _frontend(engine, memory, size_bytes=2 * LINE, associativity=1)
    frontend.submit(_write(0, dirty_mask=0b101))
    engine.run()
    frontend.submit(_read(2 * LINE))        # same set -> evicts dirty line 0
    engine.run()
    wbs = [r for r in memory.submitted if r.req_id > WRITE_BACK_ID_BASE]
    assert len(wbs) == 1
    assert wbs[0].address == 0
    assert wbs[0].dirty_mask == 0b101
    assert frontend.stats.write_backs == 1


def test_clean_eviction_issues_no_write_back():
    engine = Engine()
    memory = FakeMemory(engine)
    frontend = _frontend(engine, memory, size_bytes=2 * LINE, associativity=1)
    frontend.submit(_read(0))
    engine.run()
    frontend.submit(_read(2 * LINE))        # evicts clean line 0
    engine.run()
    assert frontend.stats.write_backs == 0
    assert frontend.dram.stats.clean_evictions == 1


# ---------------------------------------------------------------------------
# Verify forwarding (RoW rollback propagation through the tier)
# ---------------------------------------------------------------------------
def test_fill_verify_forwards_to_all_coalesced_readers():
    engine = Engine()
    memory = FakeMemory(engine)
    frontend = _frontend(engine, memory)
    outcomes = []

    def make_reader(req_id):
        request = _read(0, req_id=req_id)
        request.on_verify = lambda req, rollback: outcomes.append(
            (req.req_id, rollback)
        )
        return request

    frontend.submit(make_reader(1))
    frontend.submit(make_reader(2))
    fill = [r for r in memory.submitted if r.req_id > FILL_ID_BASE][0]
    engine.run()
    fill.on_verify(fill, True)              # controller's deferred verify
    assert sorted(outcomes) == [(1, True), (2, True)]
    assert frontend.stats.fill_rollbacks == 1


# ---------------------------------------------------------------------------
# Bookkeeping
# ---------------------------------------------------------------------------
def test_stats_agree_with_cache_counters():
    engine = Engine()
    memory = FakeMemory(engine)
    frontend = _frontend(engine, memory, size_bytes=4 * LINE, associativity=2)
    for i in range(20):
        frontend.submit(_read((i % 6) * LINE, req_id=i))
        engine.run()
    assert frontend.stats.hits == frontend.dram.stats.hits
    assert frontend.stats.read_misses + frontend.stats.write_misses == (
        frontend.dram.stats.misses
    )
    assert frontend.stats.accesses == 20


def test_idle_reflects_inflight_work():
    engine = Engine()
    memory = FakeMemory(engine)
    frontend = _frontend(engine, memory)
    assert frontend.idle
    frontend.submit(_read(0))
    assert not frontend.idle
    engine.run()
    assert frontend.idle


def test_summary_shape():
    engine = Engine()
    memory = FakeMemory(engine)
    frontend = _frontend(engine, memory, replacement="mac")
    frontend.submit(_read(0))
    engine.run()
    summary = frontend.summary()
    assert summary["kind"] == "dram"
    assert summary["replacement"] == "mac"
    assert summary["fills"] == 1
    assert summary["cache"]["misses"] == 1
    assert set(summary["cache"]) == {
        "hits", "misses", "evictions", "dirty_evictions", "clean_evictions"
    }


def test_config_validation():
    with pytest.raises(ValueError):
        FrontEndConfig(kind="sram")
    with pytest.raises(ValueError):
        FrontEndConfig(kind="dram", replacement="random")
    with pytest.raises(ValueError):
        FrontEndConfig(kind="dram", mshrs=0)
    with pytest.raises(ValueError):
        FrontEndConfig(kind="dram", writeback_buffer=0)
    with pytest.raises(ValueError):
        DramCacheFrontEnd(Engine(), FakeMemory(Engine()), FrontEndConfig(), 4)
    assert not FrontEndConfig().enabled
    assert FrontEndConfig(kind="dram").enabled


def test_stats_hit_rate_empty():
    stats = FrontEndStats()
    assert stats.hit_rate == 0.0
    assert stats.accesses == 0
