"""Tracing stores plain records and builds ``TraceEvent`` views on read.

The traced reference run (``rwow-rde`` on canneal, seed 7, 3000
requests: 6150 events / 364931 ticks) emits 55,701 trace events into a
``RingBufferSink``, stored as 15,447 records: one per event, except one
per rank reservation for its chip occupancy.  Counting ``TraceEvent``
constructions pins the contract: none while the run records, and exactly
one per retained event when ``events`` is read.  The counts are
deterministic, so they hold on every CPython version.
"""

from repro.core.systems import make_system
from repro.sim.simulator import SimulationParams, simulate
from repro.telemetry import ListSink, RingBufferSink, Telemetry, TraceEvent

TRACE_EVENTS = 55_701
TRACE_RECORDS = 15_447


def test_trace_events_are_built_only_when_read(monkeypatch):
    built = []
    init = TraceEvent.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TraceEvent, "__init__", counting_init)
    ring, full = RingBufferSink(), ListSink()
    result = simulate(
        make_system("rwow-rde"),
        "canneal",
        SimulationParams(target_requests=3000, seed=7),
        Telemetry.recording([ring, full]),
    )
    assert (result.profile.events_dispatched, result.sim_ticks) == (6150, 364931)
    assert ring.total_seen == len(ring) == TRACE_EVENTS
    assert len(full.records) == TRACE_RECORDS
    assert len(built) == 0
    events = ring.events
    assert len(events) == len(built) == TRACE_EVENTS
