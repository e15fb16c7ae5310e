"""MemoryStats of the reference runs, pinned field by field.

The metrics registry is the only record of a simulated count, and
``MemoryStats`` is built from it at collect time
(``MemoryStats.from_registry``).  The values below were recorded with an
independent implementation -- one ``MemoryStats`` per controller, updated
at each event beside the registry -- so they check every field of the
registry-built view: rwow-rde and baseline on canneal, seed 7, 3000
requests, on the direct path and behind a 16 KiB DRAM tier that evicts.
The sampled reference run's time series and the chip-reservation trace
events (whose ``reason`` carries the per-request labels) are pinned by
SHA-256 the same way.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.core.systems import make_front_end, make_system
from repro.sim.simulator import SimulationParams, simulate
from repro.telemetry import DEFAULT_CADENCE_TICKS, EventType, ListSink, Telemetry

SEED = 7
REQUESTS = 3000
TIER_MB = 1 / 64  # 16 KiB: evicts, so tier write-backs reach PCM

PINNED = {('rwow-rde', 'direct'): {'events': 6150,
                          'sim_ticks': 364931,
                          'memory': {'reads_completed': 2047,
                                     'writes_completed': 900,
                                     'read_latency_ticks': 7502738,
                                     'read_latency_max': 33807,
                                     'reads_delayed_by_write': 509,
                                     'forwarded_reads': 0,
                                     'row_buffer_hits': 8,
                                     'row_buffer_misses': 1922,
                                     'row_reads': 116,
                                     'row_normal_overlap_reads': 1,
                                     'wow_member_writes': 546,
                                     'wow_groups': 225,
                                     'silent_writes': 122,
                                     'rollbacks': 6,
                                     'verify_count': 116,
                                     'dirty_word_histogram': [122,
                                                              306,
                                                              193,
                                                              75,
                                                              88,
                                                              48,
                                                              14,
                                                              18,
                                                              36],
                                     'drain_entries': 14,
                                     'chip_word_writes': {0: 359,
                                                          1: 373,
                                                          2: 351,
                                                          3: 338,
                                                          4: 340,
                                                          5: 349,
                                                          6: 363,
                                                          7: 353,
                                                          8: 340,
                                                          9: 358}}},
 ('rwow-rde', 'tier'): {'events': 6702,
                        'sim_ticks': 402292,
                        'memory': {'reads_completed': 2743,
                                   'writes_completed': 700,
                                   'read_latency_ticks': 5744826,
                                   'read_latency_max': 25615,
                                   'reads_delayed_by_write': 594,
                                   'forwarded_reads': 3,
                                   'row_buffer_hits': 7,
                                   'row_buffer_misses': 2674,
                                   'row_reads': 60,
                                   'row_normal_overlap_reads': 1,
                                   'wow_member_writes': 517,
                                   'wow_groups': 220,
                                   'silent_writes': 0,
                                   'rollbacks': 3,
                                   'verify_count': 60,
                                   'dirty_word_histogram': [0,
                                                            261,
                                                            177,
                                                            69,
                                                            82,
                                                            43,
                                                            18,
                                                            15,
                                                            35],
                                   'drain_entries': 13,
                                   'chip_word_writes': {0: 321,
                                                        1: 328,
                                                        2: 314,
                                                        3: 299,
                                                        4: 304,
                                                        5: 313,
                                                        6: 322,
                                                        7: 313,
                                                        8: 306,
                                                        9: 318}}},
 ('baseline', 'direct'): {'events': 5886,
                          'sim_ticks': 427191,
                          'memory': {'reads_completed': 2045,
                                     'writes_completed': 900,
                                     'read_latency_ticks': 9153185,
                                     'read_latency_max': 39710,
                                     'reads_delayed_by_write': 348,
                                     'forwarded_reads': 0,
                                     'row_buffer_hits': 35,
                                     'row_buffer_misses': 2012,
                                     'row_reads': 0,
                                     'row_normal_overlap_reads': 0,
                                     'wow_member_writes': 0,
                                     'wow_groups': 0,
                                     'silent_writes': 122,
                                     'rollbacks': 0,
                                     'verify_count': 0,
                                     'dirty_word_histogram': [122,
                                                              306,
                                                              193,
                                                              75,
                                                              88,
                                                              48,
                                                              14,
                                                              18,
                                                              36],
                                     'drain_entries': 22,
                                     'chip_word_writes': {0: 444,
                                                          1: 273,
                                                          2: 253,
                                                          3: 237,
                                                          4: 201,
                                                          5: 198,
                                                          6: 184,
                                                          7: 183,
                                                          8: 763}}},
 ('baseline', 'tier'): {'events': 6564,
                        'sim_ticks': 434918,
                        'memory': {'reads_completed': 2735,
                                   'writes_completed': 699,
                                   'read_latency_ticks': 6515639,
                                   'read_latency_max': 28725,
                                   'reads_delayed_by_write': 326,
                                   'forwarded_reads': 3,
                                   'row_buffer_hits': 46,
                                   'row_buffer_misses': 2689,
                                   'row_reads': 0,
                                   'row_normal_overlap_reads': 0,
                                   'wow_member_writes': 0,
                                   'wow_groups': 0,
                                   'silent_writes': 0,
                                   'rollbacks': 0,
                                   'verify_count': 0,
                                   'dirty_word_histogram': [0,
                                                            264,
                                                            174,
                                                            70,
                                                            80,
                                                            44,
                                                            17,
                                                            16,
                                                            34],
                                   'drain_entries': 21,
                                   'chip_word_writes': {0: 397,
                                                        1: 245,
                                                        2: 229,
                                                        3: 217,
                                                        4: 177,
                                                        5: 179,
                                                        6: 166,
                                                        7: 167,
                                                        8: 673}}}}

TIMESERIES_SHA256 = {'direct': '7b457fd23d2507fa426f2971a0d790a46e843e50ddc598b46eaee5d1a38132f3',
 'tier': 'bc10bad5d63911f3b315def6ccd1704b78f478d5b9d06f93c10442e2710cacb6'}

CHIP_EVENTS_SHA256 = {'baseline': 'dc0641b6466c4dc2ccd8982c441917eb228440cbbf78ba82aec5c882c50d4e16',
 'rwow-rde': '9f02acc2461141c60958027a409c08b78324926d43e09a4dd7330b2a5b13a6f5',
 'write-pausing': 'c424ce79a00c71547d40c9a20cb6ad12bdb9512078dd238678b056dcbac3f2f8'}


def _params(path, **extra):
    if path == "tier":
        extra["front_end"] = make_front_end("dram", capacity_mb=TIER_MB)
    return SimulationParams(target_requests=REQUESTS, seed=SEED, **extra)


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("system,path", list(PINNED))
def test_memory_stats_match_pinned(system, path):
    result = simulate(make_system(system), "canneal", _params(path))
    pinned = PINNED[system, path]
    assert result.profile.events_dispatched == pinned["events"]
    assert result.sim_ticks == pinned["sim_ticks"]
    assert asdict(result.memory) == pinned["memory"]


@pytest.mark.parametrize("path", sorted(TIMESERIES_SHA256))
def test_sampled_reference_run_matches_pinned(path):
    params = _params(
        path, sample_every_ticks=DEFAULT_CADENCE_TICKS, collect_metrics=True
    )
    result = simulate(make_system("rwow-rde"), "canneal", params)
    digest = _sha256(json.dumps(result.timeseries, sort_keys=True))
    assert digest == TIMESERIES_SHA256[path]
    assert asdict(result.memory) == PINNED["rwow-rde", path]["memory"]


@pytest.mark.parametrize("system", sorted(CHIP_EVENTS_SHA256))
def test_chip_reservation_trace_matches_pinned(system):
    sink = ListSink()
    params = SimulationParams(target_requests=300, seed=SEED)
    simulate(make_system(system), "canneal", params, Telemetry.recording([sink]))
    lines = [
        json.dumps(event.to_dict(), sort_keys=True, separators=(",", ":"))
        for event in sink.events
        if event.type in (EventType.CHIP_RESERVE, EventType.CHIP_RELEASE)
    ]
    assert _sha256("\n".join(lines)) == CHIP_EVENTS_SHA256[system]
