"""Figure 5 — RoW and WoW scheduling timelines (micro-scenarios).

Drives the two example scenarios of Figure 5 through a PCMap channel and
checks the qualitative schedule: (b) reads overlap a one-word write and
finish far earlier than the serialised baseline; (d) chip-disjoint writes
consolidate into one window instead of serialising.

These are hand-built micro-scenarios driven straight into a controller
(not workload x system simulations), so they bypass the sweep runner and
its result cache by design.
"""

from repro.core.systems import make_system
from repro.memory.controller import MemoryController
from repro.memory.request import ServiceClass, make_read, make_write
from repro.memory.timing import DEFAULT_TIMING
from repro.sim.engine import Engine

from benchmarks.common import write_report


def _stride(config):
    return 64 * config.geometry.n_channels


def _row_scenario():
    """Write A (word 3) + reads B, C served by reconstruction."""
    engine = Engine()
    config = make_system("row-nr")
    controller = MemoryController(engine, config, channel_id=0)
    stride = _stride(config)
    for i in range(27):  # push the queue over the drain watermark
        controller.submit(make_write(100 + i, (50 + i) * stride, 0b1000))
    write_a = make_write(1, 10 * stride, 0b1000)
    controller.submit(write_a)
    read_b = make_read(2, 20 * stride)
    read_c = make_read(3, 21 * stride)
    controller.submit(read_b)
    controller.submit(read_c)
    engine.run(max_events=200_000)
    return controller, write_a, read_b, read_c


def _baseline_scenario():
    """The same requests on the baseline: reads wait out the drain."""
    engine = Engine()
    config = make_system("baseline")
    controller = MemoryController(engine, config, channel_id=0)
    stride = _stride(config)
    for i in range(27):
        controller.submit(make_write(100 + i, (50 + i) * stride, 0b1000))
    controller.submit(make_write(1, 10 * stride, 0b1000))
    read_b = make_read(2, 20 * stride)
    read_c = make_read(3, 21 * stride)
    controller.submit(read_b)
    controller.submit(read_c)
    engine.run(max_events=200_000)
    return read_b, read_c


def _wow_scenario():
    """Writes A{2,5}, B{3,6}, C{4}: disjoint chips, one window."""
    engine = Engine()
    config = make_system("wow-nr")
    controller = MemoryController(engine, config, channel_id=0)
    stride = _stride(config)
    writes = {
        "A": make_write(1, 10 * stride, (1 << 2) | (1 << 5)),
        "B": make_write(2, 11 * stride, (1 << 3) | (1 << 6)),
        "C": make_write(3, 12 * stride, 1 << 4),
    }
    for i in range(25):
        controller.submit(make_write(200 + i, (100 + i) * stride, 0b1))
    for write in writes.values():
        controller.submit(write)
    engine.run(max_events=200_000)
    return controller, writes


def test_fig05_row_timeline(benchmark):
    controller, write_a, read_b, read_c = benchmark.pedantic(
        _row_scenario, rounds=1, iterations=1
    )
    base_b, base_c = _baseline_scenario()

    lines = [
        "Figure 5(a)-(b): RoW vs baseline for write A + reads B, C",
        f"  baseline: read B latency {base_b.latency / 10:.0f} ns, "
        f"read C latency {base_c.latency / 10:.0f} ns",
        f"  RoW     : read B latency {read_b.latency / 10:.0f} ns "
        f"({read_b.service_class.value}), read C latency "
        f"{read_c.latency / 10:.0f} ns ({read_c.service_class.value})",
        f"  RoW reads served in parallel with writes: "
        f"{controller.telemetry.metrics.value('row.reads')}",
        f"  engine events dispatched: {controller.engine.events_dispatched}",
    ]
    write_report("fig05_row_timeline", "\n".join(lines))

    assert controller.telemetry.metrics.value('row.reads') >= 2
    assert read_b.service_class is ServiceClass.ROW_OVERLAP
    # The overlapped reads complete far faster than behind the baseline
    # drain (Figure 5(b) vs 5(a)).
    assert read_b.latency < base_b.latency / 2
    assert read_c.latency < base_c.latency / 2


def test_fig05_wow_timeline(benchmark):
    controller, writes = benchmark.pedantic(
        _wow_scenario, rounds=1, iterations=1
    )
    spans = {
        label: (w.start_service, w.completion) for label, w in writes.items()
    }
    lines = ["Figure 5(c)-(d): WoW consolidation of writes A{2,5}, B{3,6}, C{4}"]
    for label, (start, end) in spans.items():
        lines.append(f"  write {label}: service [{start / 10:.0f}, {end / 10:.0f}] ns")
    lines.append(
        f"  groups formed: {controller.telemetry.metrics.value('wow.groups')}, "
        f"members: {controller.telemetry.metrics.value('wow.member_writes')}"
    )
    lines.append(
        f"  engine events dispatched: {controller.engine.events_dispatched}"
    )
    write_report("fig05_wow_timeline", "\n".join(lines))

    assert controller.telemetry.metrics.value('wow.groups') >= 1
    # Consolidation starts all three data phases together (Figure 5(d));
    # the ECC/PCC updates then serialise on the fixed code chips, which
    # is exactly the NR limitation the paper calls out.
    assert all(
        w.service_class is ServiceClass.WOW_MEMBER for w in writes.values()
    )
    starts = [s for s, _e in spans.values()]
    assert max(starts) - min(starts) < DEFAULT_TIMING.array_write_ticks
    overlap = any(
        a[0] < b[1] and b[0] < a[1]
        for la, a in spans.items()
        for lb, b in spans.items()
        if la != lb
    )
    assert overlap
