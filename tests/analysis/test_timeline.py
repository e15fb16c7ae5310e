"""Unit tests for the occupancy timeline renderer."""

import pytest

from repro.analysis.timeline import (
    OccupancyEvent,
    event_mark,
    render_occupancy,
)


def _event(kind="write", chip=0, start=0, end=100, label=""):
    return OccupancyEvent(kind, chip, 0, start, end, label)


def test_event_marks():
    assert event_mark(_event(kind="write")) == "W"
    assert event_mark(_event(kind="read")) == "R"
    assert event_mark(_event(kind="write", label="code-update")) == "c"


def test_render_empty():
    text = render_occupancy([], n_chips=10, title="T")
    assert "T" in text and "no occupancy" in text


def test_render_marks_cells():
    events = [
        _event(kind="write", chip=3, start=0, end=500),
        _event(kind="read", chip=0, start=250, end=500),
    ]
    text = render_occupancy(events, n_chips=10, tick_step=250)
    lines = text.splitlines()
    chip0 = next(l for l in lines if l.startswith("chip 0"))
    chip3 = next(l for l in lines if l.startswith("chip 3"))
    assert chip0.endswith("|.R|")
    assert chip3.endswith("|WW|")


def test_render_precedence_write_over_read():
    events = [
        _event(kind="read", chip=0, start=0, end=250),
        _event(kind="write", chip=0, start=0, end=250),
    ]
    text = render_occupancy(events, n_chips=10, tick_step=250)
    chip0 = next(l for l in text.splitlines() if l.startswith("chip 0"))
    assert "W" in chip0


def _row_labels(text):
    return [
        line.split("|")[0].strip()
        for line in text.splitlines()
        if "|" in line
    ]


def test_render_names_ecc_pcc_for_ten_chips():
    labels = _row_labels(render_occupancy([_event()], n_chips=10))
    assert "ECC" in labels and "PCC" in labels


def test_render_nine_chip_rank():
    labels = _row_labels(render_occupancy([_event()], n_chips=9))
    assert "ECC" in labels and "PCC" not in labels


def test_render_skips_unknown_starts():
    text = render_occupancy([_event(start=-1)], n_chips=10)
    assert "no occupancy" in text


def test_tick_step_validated():
    with pytest.raises(ValueError):
        render_occupancy([_event()], n_chips=10, tick_step=0)


def test_renderer_consumes_real_controller_log():
    from repro.analysis.timeline import occupancy_from_trace
    from repro.core.systems import make_system
    from repro.memory.controller import MemoryController
    from repro.memory.request import make_write
    from repro.sim.engine import Engine
    from repro.telemetry import Telemetry

    engine = Engine()
    telemetry = Telemetry.recording()
    controller = MemoryController(
        engine, make_system("rwow-rde"), telemetry=telemetry
    )
    controller.submit(make_write(1, 0, 0b11))
    engine.run(max_events=10_000)
    log = occupancy_from_trace(telemetry.tracer.events(), channel=0, rank=0)
    # Two data-word writes plus their ECC and PCC updates.
    assert sorted(event_mark(e) for e in log) == ["W", "W", "c", "c"]
    text = render_occupancy(log, controller.geometry.chips_per_rank)
    assert "W" in text and "c" in text


def test_occupancy_from_trace_filters_and_lifts():
    from repro.analysis.timeline import occupancy_from_trace
    from repro.telemetry import EventType, TraceEvent

    events = [
        TraceEvent(type=EventType.CHIP_RESERVE, tick=0, channel=0, rank=0,
                   chip=1, bank=2, start=0, end=100, kind="write",
                   reason="code-update"),
        TraceEvent(type=EventType.CHIP_RESERVE, tick=0, channel=1, rank=0,
                   chip=3, start=0, end=50, kind="read"),
        TraceEvent(type=EventType.REQUEST_ISSUE, tick=5, channel=0),
    ]
    lifted = occupancy_from_trace(events, channel=0)
    assert len(lifted) == 1
    assert lifted[0].chip == 1
    assert lifted[0].label == "code-update"
    assert event_mark(lifted[0]) == "c"
    assert len(occupancy_from_trace(events)) == 2


def test_grid_renders_from_recorded_trace():
    from repro.analysis.timeline import occupancy_from_trace, render_occupancy
    from repro.core.systems import make_system
    from repro.memory.controller import MemoryController
    from repro.memory.request import make_write
    from repro.sim.engine import Engine
    from repro.telemetry import Telemetry

    engine = Engine()
    telemetry = Telemetry.recording()
    controller = MemoryController(
        engine, make_system("rwow-rde"), telemetry=telemetry
    )
    controller.submit(make_write(1, 0, 0b11))
    engine.run(max_events=10_000)
    text = render_occupancy(
        occupancy_from_trace(telemetry.tracer.events()),
        controller.geometry.chips_per_rank,
    )
    assert "W" in text and "c" in text
