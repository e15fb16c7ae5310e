#!/usr/bin/env python3
"""Reproduce the paper's Figure 5: RoW and WoW scheduling timelines.

Two micro-scenarios are driven through a single PCMap channel controller
with tracing on, and its chip reservations are rendered as ASCII
chip-by-time grids comparable with Figure 5:

* **RoW** — a write with one essential word (cache line A) overlapped
  with two reads (lines B and C), whose missing words are reconstructed
  from the PCC chip while chip 3 is busy writing.
* **WoW** — three writes with disjoint essential words (A: words 2 and 5,
  B: words 3 and 6, C: word 4) consolidated into one service window.

Run:  python examples/row_wow_timeline.py
"""

from repro.analysis.timeline import occupancy_from_trace, render_occupancy
from repro.core.systems import make_system
from repro.memory.controller import MemoryController
from repro.memory.request import make_read, make_write
from repro.sim.engine import Engine, ticks_to_ns
from repro.telemetry import Telemetry


def render_timeline(events, n_chips, title, tick_step=250):
    """Library renderer with the example's title prepended."""
    return render_occupancy(events, n_chips, title=title, tick_step=tick_step)


def row_scenario():
    """Figure 5(b): one-word write of A overlapped with reads of B and C."""
    engine = Engine()
    config = make_system("row-nr")
    telemetry = Telemetry.recording()
    controller = MemoryController(engine, config, channel_id=0, telemetry=telemetry)

    stride = 64 * config.geometry.n_channels  # stay on channel 0
    # Pre-fill the write queue over the drain watermark so the controller
    # enters drain mode and applies RoW to the head write.
    for i in range(27):
        controller.submit(make_write(100 + i, (50 + i) * stride, 0b1000))
    write_a = make_write(1, 10 * stride, dirty_mask=0b1000)  # word 3
    controller.submit(write_a)
    read_b = make_read(2, 20 * stride)
    read_c = make_read(3, 21 * stride)
    controller.submit(read_b)
    controller.submit(read_c)
    engine.run(max_events=100_000)
    log = occupancy_from_trace(telemetry.tracer.events(), rank=0)

    print(render_timeline(
        [e for e in log if e.end <= max(read_b.completion, read_c.completion) + 2000],
        config.geometry.chips_per_rank,
        "\n=== RoW (cf. Figure 5(b)): Write-A on chip 3 + ECC; reads B, C "
        "reconstruct word 3 from PCC ===",
    ))
    print(f"read B service class: {read_b.service_class.value}, "
          f"latency {ticks_to_ns(read_b.latency):.0f} ns")
    print(f"read C service class: {read_c.service_class.value}, "
          f"latency {ticks_to_ns(read_c.latency):.0f} ns")
    print(f"RoW reads served: {telemetry.metrics.value('row.reads')}")


def wow_scenario():
    """Figure 5(d): three chip-disjoint writes consolidated by WoW."""
    engine = Engine()
    config = make_system("wow-nr")
    telemetry = Telemetry.recording()
    controller = MemoryController(engine, config, channel_id=0, telemetry=telemetry)

    stride = 64 * config.geometry.n_channels
    # The Figure 5 example: A dirties words 2 and 5, B words 3 and 6,
    # C word 4 — all disjoint, so one window serves all three.
    masks = {
        "A": (1 << 2) | (1 << 5),
        "B": (1 << 3) | (1 << 6),
        "C": (1 << 4),
    }
    writes = {}
    for i, (label, mask) in enumerate(masks.items()):
        writes[label] = make_write(i + 1, (10 + i) * stride, mask)
    # Push the queue over the watermark so a drain (and grouping) starts.
    for i in range(25):
        controller.submit(make_write(200 + i, (100 + i) * stride, 0b1))
    for write in writes.values():
        controller.submit(write)
    engine.run(max_events=200_000)

    window_events = [
        e for e in occupancy_from_trace(telemetry.tracer.events(), rank=0)
        if min(w.start_service for w in writes.values()) - 1000
        <= e.start <= max(w.completion for w in writes.values())
    ]
    print(render_timeline(
        window_events,
        config.geometry.chips_per_rank,
        "\n=== WoW (cf. Figure 5(d)): writes A{2,5}, B{3,6}, C{4} "
        "consolidated ===",
    ))
    for label, write in writes.items():
        print(f"write {label}: class={write.service_class.value}, "
              f"service [{ticks_to_ns(write.start_service):.0f}, "
              f"{ticks_to_ns(write.completion):.0f}] ns")
    print(f"WoW groups formed: {telemetry.metrics.value('wow.groups')}, "
          f"member writes: {telemetry.metrics.value('wow.member_writes')}")


if __name__ == "__main__":
    row_scenario()
    wow_scenario()
