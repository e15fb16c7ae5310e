"""Machine-independent gate on the simulator's hot path: calls per event.

cProfile counts every Python and builtin call exactly, so the number of
calls per dispatched event on the pinned reference run (``rwow-rde`` on
canneal, seed 7, 3000 requests: 6150 events / 364931 ticks) does not
depend on the host's speed.  The flat rank table and the ready-bound
scans brought it from 113.4 to 78.3-78.7 on CPython 3.10-3.12 (the spread
comes from string-hash seeding).  Drawing trace records on demand, each
without validation or stdlib draw frames, and collecting IRLP in one
sweep brought it from 78.67 to 65.9 on CPython 3.11.7, the same for
every ``PYTHONHASHSEED`` tried.  A change that adds calls to the
per-event path, or brings back drawing records no core issues, fails
here before it shows in wall time.  The count goes through
:func:`repro.perf.count_calls`, which collects garbage first, so the
finalisers of runs that earlier tests left behind stay out of it.
"""

from repro.core.systems import make_system
from repro.perf import count_calls
from repro.sim.simulator import SimulationParams, SystemSimulator

#: Measured calls per event of the reference run, and the allowed rise.
MEASURED_CALLS_PER_EVENT = 65.9
TOLERANCE = 0.03


def test_reference_run_calls_per_event():
    sim = SystemSimulator(
        make_system("rwow-rde"),
        "canneal",
        SimulationParams(target_requests=3000, seed=7),
    )
    results = []
    calls = count_calls(lambda: results.append(sim.run()))
    (result,) = results
    events = result.profile.events_dispatched
    assert (events, result.sim_ticks) == (6150, 364931)
    per_event = calls / events
    limit = MEASURED_CALLS_PER_EVENT * (1 + TOLERANCE)
    assert per_event <= limit, (
        f"{per_event:.2f} calls per event on the reference run, "
        f"limit {limit:.2f}"
    )
