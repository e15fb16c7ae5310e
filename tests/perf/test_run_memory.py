"""Machine-independent gate on a run's memory: bytes retained per request.

A finished run keeps one IRLP value and one service span per write
window and no per-line state, so what a live ``SystemSimulator`` holds
after ``run()`` hardly grows with the run's length.  ``tracemalloc``
counts the Python allocations still live after a ``gc.collect()``
exactly, so the growth between two run lengths, per added request, does
not depend on the host.  Keeping every window with its activity list and
a decode and routing memo per line read 273-755 B per request here
(CPython 3.11.7); folding each window when it is final and decoding
without a memo read 1-18.
"""

import gc
import tracemalloc

import pytest

from repro.core.systems import make_front_end, make_system
from repro.sim.simulator import SimulationParams, SystemSimulator

#: Bytes a run may retain per added request.
CEILING_BYTES_PER_REQUEST = 64
SHORT, LONG = 1000, 4000


def _retained_bytes(system, workload, requests, tier_mb):
    """Traced bytes a live simulator holds after ``run()``."""
    extra = {}
    if tier_mb is not None:
        extra["front_end"] = make_front_end("dram", capacity_mb=tier_mb)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sim = SystemSimulator(
            make_system(system),
            workload,
            SimulationParams(target_requests=requests, seed=7, **extra),
        )
        sim.run()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "system, workload, tier_mb",
    [
        ("rwow-rde", "canneal", None),
        ("rwow-rde", "freqmine", None),
        ("baseline", "sphinx3", None),
        ("rwow-rde", "canneal", 0.25),
    ],
    ids=["rwow-rde-canneal", "rwow-rde-freqmine", "baseline-sphinx3",
         "tier-canneal"],
)
def test_run_memory_is_flat_in_run_length(system, workload, tier_mb):
    # A short run first, so imports and first-use caches stay out of it.
    _retained_bytes(system, workload, 200, tier_mb)
    short = _retained_bytes(system, workload, SHORT, tier_mb)
    long = _retained_bytes(system, workload, LONG, tier_mb)
    per_request = (long - short) / (LONG - SHORT)
    assert per_request <= CEILING_BYTES_PER_REQUEST, (
        f"{per_request:.1f} B retained per added request "
        f"({short} B at {SHORT}, {long} B at {LONG} requests)"
    )
