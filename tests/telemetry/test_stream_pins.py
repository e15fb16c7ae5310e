"""The whole trace-event stream of two runs, pinned by SHA-256.

The golden trace pins only the scheduler event types of one
``rwow-rde`` run, and the stats oracle pins only chip events on the
direct path.  The pins below cover every event, in emission order, as
the sorted-key ``to_dict`` line the JSONL sink writes:

* ``write-pausing`` on the direct path: ``write.pause``/``write.resume``
  with ``extra.remaining_ticks``, drains and chip occupancy interleaved;
* ``rwow-rde`` behind a 0.25 MB DRAM tier: the fill stream the tier
  sends to PCM, its MSHR-coalesced reads and its write-back.

Both run canneal, seed 7, 2000 requests.  A change to how events are
stored or serialised must reproduce these digests byte for byte.
"""

import hashlib
import json
from collections import Counter

import pytest

from repro.core.systems import make_front_end, make_system
from repro.sim.simulator import SimulationParams, simulate
from repro.telemetry import ListSink, Telemetry

#: (system, DRAM tier MB or 0) -> (event count, sha256 of the stream).
PINNED = {
    ("write-pausing", 0.0): (
        67101, "84f4684ae1019be59f5791e52631cd70e717530897a7940980fe98c46b3cd1cd"
    ),
    ("rwow-rde", 0.25): (
        37961, "c7e7f71800c03ebb781ba90bf8a47767c67d9c313b2eb78e26d390223ae32d2b"
    ),
}


def _stream(system, tier_mb):
    extra = {}
    if tier_mb:
        extra["front_end"] = make_front_end("dram", capacity_mb=tier_mb)
    sink = ListSink()
    params = SimulationParams(target_requests=2000, seed=7, **extra)
    simulate(make_system(system), "canneal", params, Telemetry.recording([sink]))
    return [
        json.dumps(event.to_dict(), sort_keys=True, separators=(",", ":"))
        for event in sink.events
    ]


@pytest.fixture(scope="module")
def streams():
    return {key: _stream(*key) for key in PINNED}


@pytest.mark.parametrize("key", list(PINNED), ids=lambda key: f"{key[0]}-{key[1]}MB")
def test_event_stream_matches_pinned(streams, key):
    lines = streams[key]
    count, digest = PINNED[key]
    assert len(lines) == count
    assert hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest() == digest


def test_pinned_streams_exercise_what_they_claim(streams):
    pausing = [json.loads(line) for line in streams["write-pausing", 0.0]]
    types = Counter(record["type"] for record in pausing)
    assert types["write.pause"] > 0 and types["write.resume"] > 0
    assert types["drain.enter"] > 0 and types["chip.reserve"] > 0
    assert all(
        "remaining_ticks" in record["extra"]
        for record in pausing
        if record["type"] in ("write.pause", "write.resume")
    )
    tier = [json.loads(line) for line in streams["rwow-rde", 0.25]]
    kinds = Counter((record["type"], record.get("kind", "")) for record in tier)
    assert kinds["request.issue", "read"] > 0
    assert kinds["chip.reserve", "write"] > 0  # a tier write-back reached PCM
