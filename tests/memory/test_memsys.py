"""Unit tests for the multi-channel memory facade."""


from repro.core.systems import make_system
from repro.memory.memsys import MainMemory
from repro.memory.request import RequestKind, make_read, make_write
from repro.sim.engine import Engine


def _memory(name="baseline", **overrides):
    engine = Engine()
    return engine, MainMemory(engine, make_system(name, **overrides))


def test_one_controller_per_channel():
    _engine, memory = _memory()
    assert len(memory.controllers) == 4


def test_requests_route_by_channel():
    engine, memory = _memory()
    # Consecutive lines interleave over channels.
    for line in range(4):
        req = make_read(line, line * 64)
        memory.submit(req)
    engine.run(max_events=100_000)
    metrics = memory.telemetry.metrics
    for channel in range(len(memory.controllers)):
        assert metrics.value(f"ch{channel}.queue.read.pushed") == 1, channel
    assert memory.aggregate_stats().reads_completed == 4


def test_controller_for_matches_mapper():
    _engine, memory = _memory()
    address = 7 * 64
    decoded = memory.mapper.decode(address)
    assert memory.controller_for(address) is memory.controllers[decoded.channel]


def test_pcmap_config_builds_pcmap_controllers():
    _engine, memory = _memory("rwow-rde")
    assert all(c.fine is not None for c in memory.controllers)


def test_functional_mode_creates_shared_storage():
    _engine, memory = _memory("rwow-rde", functional=True)
    assert memory.storage is not None
    assert all(c.storage is memory.storage for c in memory.controllers)


def test_non_functional_mode_has_no_storage():
    _engine, memory = _memory()
    assert memory.storage is None


def test_idle_property():
    engine, memory = _memory()
    assert memory.idle
    memory.submit(make_write(1, 0, 0b1))
    assert not memory.idle
    engine.run(max_events=10_000)
    assert memory.idle


def test_aggregate_stats_sums_channels():
    engine, memory = _memory()
    for line in range(8):
        memory.submit(make_read(line, line * 64))
    engine.run(max_events=100_000)
    assert memory.aggregate_stats().reads_completed == 8


def test_can_accept_and_wait_for_space():
    engine, memory = _memory()
    address = 0
    assert memory.can_accept(RequestKind.READ, address)
    fired = []
    # Fill channel 0's read queue.
    line = 0
    while memory.can_accept(RequestKind.READ, 0):
        memory.submit(make_read(1000 + line, line * 4 * 64))
        line += 1
        if line > 50:
            break
    if not memory.can_accept(RequestKind.READ, 0):
        memory.wait_for_space(RequestKind.READ, 0, lambda: fired.append(1))
        engine.run(max_events=100_000)
        assert fired == [1]


def test_irlp_helpers_empty_run():
    _engine, memory = _memory()
    assert memory.irlp_summary() == (0.0, 0.0)
    assert memory.write_service_busy_ticks() == 0
