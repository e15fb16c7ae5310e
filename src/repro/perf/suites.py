"""The hot-path microbenchmarks, their timing primitives and the suite.

Each ``bench_*`` function returns a :class:`BenchReport` whose ``config``
is a pure function of ``(seed, smoke)`` — the determinism test holds
configs and metric *keys* identical across same-seed runs, while the
timing *values* are free to vary.  Timing is ``time.perf_counter`` only:
the suite runs in CI's smoke job, so the measurement layer must work
everywhere the simulator does.

``run_suite`` stitches the reports into the seed- and git-stamped
``BENCH_perf.json`` payload.  Its speedups are same-process ratios only
(fast path against its in-process reference), so they hold across
machines; cross-revision wall-clock comparisons go through the
interleaved end-to-end pairs instead (docs/PERFORMANCE.md).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: Payload format version: bump it whenever a top-level or speedup key
#: changes meaning or goes away.
SCHEMA_VERSION = 4


def time_call(fn: Callable[[], object], repeats: int = 5) -> float:
    """Best-of-``repeats`` wall time of one ``fn()`` call, in seconds.

    ``fn`` is expected to loop over its own batch internally (so per-item
    times are ``time_call(fn) / batch``).  Best-of rather than mean: the
    minimum is the least noise-contaminated estimate of the code's cost.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    fn()  # untimed warmup: interpreter specialisation, memo fills, caches
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best


def count_calls(fn: Callable[[], object]) -> int:
    """cProfile's exact call total of one ``fn()`` call.

    Unlike wall time it does not depend on the host, so a difference of
    two counts taken in one process is a gate that cannot flake.  Run
    ``fn`` once beforehand: first-call work (imports, memo fills) would
    otherwise land in the count.  Earlier garbage is collected first, so
    no finaliser of an earlier run lands in it either.
    """
    import cProfile
    import gc
    import pstats

    gc.collect()
    profile = cProfile.Profile()
    profile.enable()
    try:
        fn()
    finally:
        profile.disable()
    return sum(stat[1] for stat in pstats.Stats(profile).stats.values())


@dataclass
class BenchReport:
    """One microbenchmark's outcome.

    ``config`` holds everything that determines *what* was measured (batch
    sizes, seeds, workload names) — the determinism test asserts it is
    identical across same-seed runs.  ``metrics`` holds the measured
    numbers; timing entries naturally vary between runs, only their *keys*
    are required to be stable.
    """

    name: str
    config: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "config": dict(self.config),
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
        }


def _repeats(smoke: bool) -> int:
    return 2 if smoke else 5


# ----------------------------------------------------------------------
# Codec: table-driven Hamming(72,64) vs the bit-loop reference
# ----------------------------------------------------------------------
def bench_codec(seed: int, smoke: bool = False) -> BenchReport:
    """Per-word encode/decode cost, fast path and reference side by side.

    The reference timings make the headline codec speedup machine
    independent: both implementations run in the same process on the same
    random words.
    """
    from repro.ecc.hamming import (
        _decode_reference,
        _encode_reference,
        decode,
        encode,
    )

    n_words = 400 if smoke else 2000
    rng = random.Random(seed * 9176 + 11)
    words = [rng.getrandbits(64) for _ in range(n_words)]
    pairs = [(w, encode(w)) for w in words]
    repeats = _repeats(smoke)

    def run_encode() -> None:
        for w in words:
            encode(w)

    def run_encode_reference() -> None:
        for w in words:
            _encode_reference(w)

    def run_decode() -> None:
        for w, c in pairs:
            decode(w, c)

    def run_decode_reference() -> None:
        for w, c in pairs:
            _decode_reference(w, c)

    scale = 1e6 / n_words  # seconds/batch -> microseconds/word
    encode_us = time_call(run_encode, repeats) * scale
    encode_ref_us = time_call(run_encode_reference, repeats) * scale
    decode_us = time_call(run_decode, repeats) * scale
    decode_ref_us = time_call(run_decode_reference, repeats) * scale
    return BenchReport(
        name="codec",
        config={"words": n_words, "seed": seed, "repeats": repeats},
        metrics={
            "encode_us": encode_us,
            "encode_reference_us": encode_ref_us,
            "decode_us": decode_us,
            "decode_reference_us": decode_ref_us,
            "encode_vs_reference": encode_ref_us / encode_us,
            "decode_vs_reference": decode_ref_us / decode_us,
        },
    )


# ----------------------------------------------------------------------
# Storage: cold-line materialisation, differential writes, diff masks
# ----------------------------------------------------------------------
def bench_storage(seed: int, smoke: bool = False) -> BenchReport:
    """Backing-store hot paths on a batch of random lines.

    The cold-line run clears the process-wide templates first, so it
    measures true first-touch cost (pattern + line encode + parity), not
    memo hits.
    """
    from repro.memory import storage as storage_mod
    from repro.memory.request import WORDS_PER_LINE
    from repro.memory.storage import MemoryStorage

    n_lines = 128 if smoke else 512
    rng = random.Random(seed * 7351 + 5)
    addresses = rng.sample(range(1 << 20), n_lines)
    masks = [rng.randrange(1, 1 << WORDS_PER_LINE) for _ in addresses]
    new_lines = [
        tuple(rng.getrandbits(64) for _ in range(WORDS_PER_LINE))
        for _ in addresses
    ]
    repeats = _repeats(smoke)

    def run_cold() -> None:
        storage_mod._cold_pattern.cache_clear()
        storage_mod._cold_line.cache_clear()
        store = MemoryStorage(keep_pcc=True)
        for address in addresses:
            store.read_line(address)

    warm = MemoryStorage(keep_pcc=True)
    for address in addresses:
        warm.read_line(address)

    def run_write() -> None:
        for address, words, mask in zip(addresses, new_lines, masks):
            warm.write_line(address, words, mask)

    def run_diff() -> None:
        for address, words in zip(addresses, new_lines):
            warm.diff_mask(address, words)

    scale = 1e6 / n_lines
    return BenchReport(
        name="storage",
        config={"lines": n_lines, "seed": seed, "repeats": repeats},
        metrics={
            "cold_line_us": time_call(run_cold, repeats) * scale,
            "write_line_us": time_call(run_write, repeats) * scale,
            "diff_mask_us": time_call(run_diff, repeats) * scale,
        },
    )


# ----------------------------------------------------------------------
# Trace generation: the synthetic per-core record stream
# ----------------------------------------------------------------------
def bench_trace_gen(seed: int, smoke: bool = False) -> BenchReport:
    """Cost per record of the synthetic trace stream.

    Builds a fresh generator per repeat (cold streams, cold rng) and
    draws a fixed record count through :meth:`take`, which reads the
    same on-demand stream the simulator's cores pull one record at a
    time.
    """
    from repro.trace.synthetic import SyntheticTraceGenerator
    from repro.trace.workloads import get_workload

    n_records = 5_000 if smoke else 20_000
    repeats = _repeats(smoke)
    profile = get_workload("canneal")

    def run_take() -> None:
        generator = SyntheticTraceGenerator(
            profile, seed=seed, core_id=0, n_cores=8
        )
        generator.take(n_records)

    record_us = time_call(run_take, repeats) * 1e6 / n_records
    return BenchReport(
        name="trace_gen",
        config={
            "workload": "canneal",
            "records": n_records,
            "seed": seed,
            "repeats": repeats,
        },
        metrics={
            "record_us": record_us,
            "records_per_second": 1e6 / record_us,
        },
    )


# ----------------------------------------------------------------------
# Engine: event dispatch throughput, fast path and handle path
# ----------------------------------------------------------------------
def bench_engine_dispatch(seed: int, smoke: bool = False) -> BenchReport:
    """Cost of scheduling + dispatching one event through the heap loop.

    ``dispatch_us`` uses :meth:`Engine.call_at` (the allocation-free path
    completions ride); ``dispatch_handle_us`` uses
    :meth:`Engine.schedule_at` (cancellable, allocates an EventHandle).
    """
    from repro.sim.engine import Engine

    n_events = 5_000 if smoke else 20_000
    repeats = _repeats(smoke)
    sink: List[int] = []

    def consume(value: int) -> None:
        sink.append(value)

    def run_call_at() -> None:
        sink.clear()
        engine = Engine()
        for i in range(n_events):
            engine.call_at(i, consume, i)
        engine.run()

    def run_schedule_at() -> None:
        sink.clear()
        engine = Engine()
        noop = sink.clear
        for i in range(n_events):
            engine.schedule_at(i, noop)
        engine.run()

    scale = 1e6 / n_events
    return BenchReport(
        name="engine",
        config={"events": n_events, "seed": seed, "repeats": repeats},
        metrics={
            "dispatch_us": time_call(run_call_at, repeats) * scale,
            "dispatch_handle_us": time_call(run_schedule_at, repeats) * scale,
        },
    )


# ----------------------------------------------------------------------
# Time-series sampling overhead: the same run, telemetry off vs on
# ----------------------------------------------------------------------
def bench_timeseries(seed: int, smoke: bool = False) -> BenchReport:
    """Cost of enabling the time-series sampler at its default cadence.

    Runs the timing-only reference configuration (rwow-rde on canneal,
    600 requests at smoke budget, 3000 at full) twice — once plain, once
    with ``sample_every_ticks`` + ``collect_metrics`` — and reports the
    wall ratio (recorded, not gated) and ``calls_per_sample``: cProfile's
    call total of the run with sampling on, minus the total with it off,
    per sample taken.  :func:`check_payload` gates that count.
    ``samples`` is the deterministic sample count, so the determinism
    test pins the sampler's cadence behaviour for free.
    """
    from repro.core.systems import make_rwow_rde
    from repro.sim.simulator import SimulationParams, simulate
    from repro.telemetry.timeseries import DEFAULT_CADENCE_TICKS

    target_requests = 600 if smoke else 3000
    repeats = 2 if smoke else 3
    plain = SimulationParams(target_requests=target_requests, seed=seed)
    observed = SimulationParams(
        target_requests=target_requests,
        seed=seed,
        sample_every_ticks=DEFAULT_CADENCE_TICKS,
        collect_metrics=True,
    )
    samples: Dict[str, int] = {}

    def run_off() -> None:
        simulate(make_rwow_rde(), "canneal", plain)

    def run_on() -> None:
        result = simulate(make_rwow_rde(), "canneal", observed)
        samples["taken"] = result.timeseries["total_samples"]

    wall_off = time_call(run_off, repeats)
    wall_on = time_call(run_on, repeats)
    added_calls = count_calls(run_on) - count_calls(run_off)
    return BenchReport(
        name="timeseries",
        config={
            "system": "rwow-rde",
            "workload": "canneal",
            "target_requests": target_requests,
            "cadence_ticks": DEFAULT_CADENCE_TICKS,
            "seed": seed,
            "repeats": repeats,
        },
        metrics={
            "wall_off_seconds": wall_off,
            "wall_on_seconds": wall_on,
            "overhead_ratio": wall_on / wall_off,
            "samples": float(samples["taken"]),
            "calls_per_sample": added_calls / samples["taken"],
        },
    )


# ----------------------------------------------------------------------
# Tracing overhead: the same run, tracer off vs on
# ----------------------------------------------------------------------
def bench_tracing(seed: int, smoke: bool = False) -> BenchReport:
    """Cost of recording every trace event of the reference run.

    Runs the same configuration as :func:`bench_timeseries` twice in the
    same process — once plain, once recording into a default
    ``RingBufferSink`` — and reports the wall ratio (recorded, not
    gated) and ``calls_per_trace_event``: cProfile's call total with the
    tracer on, minus the total with it off, per trace event.
    :func:`check_payload` gates that count.  ``events`` is the
    deterministic trace-event count.
    """
    from repro.core.systems import make_rwow_rde
    from repro.sim.simulator import SimulationParams, simulate
    from repro.telemetry import RingBufferSink, Telemetry

    target_requests = 600 if smoke else 3000
    repeats = 2 if smoke else 3
    params = SimulationParams(target_requests=target_requests, seed=seed)
    recorded: Dict[str, int] = {}

    def run_off() -> None:
        simulate(make_rwow_rde(), "canneal", params)

    def run_on() -> None:
        ring = RingBufferSink()
        simulate(make_rwow_rde(), "canneal", params, Telemetry.recording([ring]))
        recorded["events"] = ring.total_seen

    wall_off = time_call(run_off, repeats)
    wall_on = time_call(run_on, repeats)
    added_calls = count_calls(run_on) - count_calls(run_off)
    return BenchReport(
        name="tracing",
        config={
            "system": "rwow-rde",
            "workload": "canneal",
            "target_requests": target_requests,
            "sink": "ring",
            "seed": seed,
            "repeats": repeats,
        },
        metrics={
            "wall_off_seconds": wall_off,
            "wall_on_seconds": wall_on,
            "overhead_ratio": wall_on / wall_off,
            "events": float(recorded["events"]),
            "calls_per_trace_event": added_calls / recorded["events"],
        },
    )


#: Ceilings on the counted cost of the instrumentation channel, gated by
#: :func:`check_payload` at every budget: 3% above the highest reading
#: of the smoke and full budgets at seeds 3 and 7 (91.5 calls per sample
#: and 0.988 calls per trace event on CPython 3.10, 3.11 and 3.12; the
#: reference run itself reads 90.0 and 0.981).  A sample, or a trace
#: event, that starts calling more Python or builtin functions trips
#: them on any machine.
CALLS_PER_SAMPLE_CEILING = 94.3
CALLS_PER_TRACE_EVENT_CEILING = 1.02


# ----------------------------------------------------------------------
# Suite assembly
# ----------------------------------------------------------------------
def run_suite(seed: int = 7, smoke: bool = False) -> dict:
    """Run all six benchmarks; returns the ``BENCH_perf.json`` payload."""
    from repro.analysis.regress import (
        collect_fingerprint,
        collect_frontend_fingerprint,
    )
    from repro.sim.results_io import code_version

    reports = [
        bench_codec(seed, smoke),
        bench_storage(seed, smoke),
        bench_engine_dispatch(seed, smoke),
        bench_trace_gen(seed, smoke),
        bench_timeseries(seed, smoke),
        bench_tracing(seed, smoke),
    ]
    # Deterministic (non-timing) metrics of the reference run — the
    # regression sentinel's pinned baseline, direct-path and front-end
    # (dram tier) legs.  Smoke suites pin only the smoke budgets; the
    # committed full run pins all four so CI can diff cheaply against
    # any of them.
    fingerprints = {
        "smoke": collect_fingerprint(smoke=True, seed=seed),
        "frontend_smoke": collect_frontend_fingerprint(
            smoke=True, seed=seed
        ),
    }
    if not smoke:
        fingerprints["full"] = collect_fingerprint(smoke=False, seed=seed)
        fingerprints["frontend_full"] = collect_frontend_fingerprint(
            smoke=False, seed=seed
        )
    by_name = {report.name: report for report in reports}
    speedups: Dict[str, float] = {
        "codec.encode_vs_reference":
            by_name["codec"].metrics["encode_vs_reference"],
        "codec.decode_vs_reference":
            by_name["codec"].metrics["decode_vs_reference"],
    }
    return {
        "schema": SCHEMA_VERSION,
        "suite": "perf",
        "seed": seed,
        "smoke": smoke,
        "code_version": code_version(),
        "benchmarks": [report.to_dict() for report in reports],
        "speedups": {k: speedups[k] for k in sorted(speedups)},
        "metrics_fingerprint": fingerprints,
    }


def check_payload(payload: dict) -> List[str]:
    """Gross-regression gate for CI; returns failure messages (empty = ok).

    Only machine-independent measures are gated.  Both codec
    implementations run in the same process on the same words, so their
    ratio is stable across machines.  Typical values are ~2.5x (encode —
    the reference's eight ``bit_count`` parities are themselves cheap)
    and ~6-8x (decode); the floors sit far below those, so tripping one
    means the fast path grossly regressed or the suite timed the wrong
    function.  The instrumentation channel's counted costs (calls per
    sample, calls per trace event) are exact, so their ceilings sit 3%
    above the measurement.  Wall-time ratios are recorded, not gated.
    """
    failures: List[str] = []
    speedups = payload.get("speedups", {})
    floors = {
        "codec.encode_vs_reference": 1.2,
        "codec.decode_vs_reference": 2.0,
    }
    for key, floor in floors.items():
        ratio = speedups.get(key)
        if ratio is None:
            failures.append(f"missing speedup metric {key!r}")
        elif ratio < floor:
            failures.append(
                f"{key} = {ratio:.2f}x, below the {floor}x "
                "gross-regression floor"
            )
    ceilings = {
        "timeseries": ("calls_per_sample", CALLS_PER_SAMPLE_CEILING),
        "tracing": ("calls_per_trace_event", CALLS_PER_TRACE_EVENT_CEILING),
    }
    for report in payload.get("benchmarks", []):
        metrics = report.get("metrics", {})
        for metric, value in metrics.items():
            if not value > 0:
                failures.append(
                    f"benchmark {report['name']!r} metric {metric!r} "
                    f"is non-positive ({value})"
                )
        if report.get("name") not in ceilings:
            continue
        metric, ceiling = ceilings[report["name"]]
        value = metrics.get(metric)
        if value is None:
            failures.append(
                f"benchmark {report['name']!r} is missing metric {metric!r}"
            )
        elif value > ceiling:
            failures.append(
                f"{report['name']}.{metric} = {value:.3f}, above the "
                f"{ceiling} ceiling"
            )
    return failures


def format_payload(payload: dict) -> str:
    """Human-readable report of a suite payload."""
    from repro.analysis import format_table

    rows = []
    for report in payload["benchmarks"]:
        for metric, value in report["metrics"].items():
            rows.append([report["name"], metric, f"{value:,.3f}"])
    lines = [
        format_table(
            ["benchmark", "metric", "value"],
            rows,
            title=(
                f"perf suite (seed {payload['seed']}, "
                f"{'smoke' if payload['smoke'] else 'full'} budget, "
                f"code {payload['code_version']})"
            ),
        ),
        "",
        format_table(
            ["speedup", "ratio"],
            [[k, f"{v:.2f}x"] for k, v in payload["speedups"].items()],
            title="speedups (same-process ratios)",
        ),
    ]
    return "\n".join(lines)


def default_output_path(root: Optional[str] = None) -> str:
    """Canonical location of the committed suite results."""
    import os

    if root is None:
        root = os.getcwd()
    return os.path.join(root, "benchmarks", "results", "BENCH_perf.json")
