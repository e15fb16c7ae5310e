"""Command-line interface: run simulations without writing a script.

Commands::

    python -m repro list-workloads
    python -m repro list-systems
    python -m repro run --workload canneal --system rwow-rde [--requests N] \\
        [--front-end dram] [--replacement lru|clock|mac]
    python -m repro compare --workload canneal [--systems a,b,c]
    python -m repro sweep --workloads canneal,MP1 [--systems ...] \\
        [--jobs N] [--no-cache] [--cache-dir DIR] [--front-end dram] \\
        [--timeout S] [--max-attempts N] [--digest]
    python -m repro sweep --resume CAMPAIGN --store DB [--cache-dir DIR] \\
        [--jobs N] [--timeout S] [--lease S] [--digest]
    python -m repro submit --workloads canneal,MP1 [--systems ...] \\
        [--campaign NAME] [--store DB] [--requests N] [--max-attempts N]
    python -m repro worker --store DB --cache-dir DIR [--campaign NAME] \\
        [--once] [--lease S] [--timeout S]
    python -m repro status --store DB [--campaign NAME] [--json] [--digest]
    python -m repro gen-trace --workload MP1 --count 1000 --out mp1.trace
    python -m repro trace --workload canneal --system rwow-rde \\
        --out run.trace.json [--jsonl run.jsonl] [--buffer N]
    python -m repro stats --workload canneal --system rwow-rde \\
        [--format table|json|openmetrics]
    python -m repro metrics --workload canneal --system rwow-rde \\
        [--out FILE] [--timeseries FILE.jsonl] [--cadence TICKS]
    python -m repro report --out report.html [--workload W] [--systems ...] \\
        [--requests N] [--jobs N]
    python -m repro regress [--smoke] [--update] [--selftest] \\
        [--baseline FILE]
    python -m repro perf [--seed N] [--smoke] [--json] [--out FILE] [--check]
    python -m repro faults [--workload W] [--system S] [--seed N] \\
        [--smoke] [--json] [--out report.json] [--selftest] [--convergence]

``perf`` runs the tracked hot-path microbenchmark suite (SECDED codec,
storage, engine dispatch, trace generation, sampling and tracing
overhead) and emits the seed- and git-stamped ``BENCH_perf.json``
payload; ``--check`` exits non-zero on gross (machine-independent)
regressions and ``REPRO_PERF_SMOKE=1`` (or ``--smoke``) shrinks the
budgets for CI.  See docs/PERFORMANCE.md.

``submit``/``worker``/``status`` drive a durable campaign (SQLite job
queue, leased workers with crash recovery); ``status`` watches it from
the store, and ``sweep --resume`` finishes it, computing only what's
missing.  A ``sweep`` given ``--timeout`` or ``--max-attempts`` runs as
a throwaway campaign in a temporary directory, with the campaign's
retry rules.  Each command takes only the lease knobs it reads.  See
docs/CAMPAIGNS.md.

``trace`` records the structured telemetry events of one run and exports
them as a Chrome trace (open in ``chrome://tracing`` or Perfetto; chips
appear as per-rank threads), optionally alongside the raw JSONL event
stream.  ``stats`` runs one simulation with the always-on metrics
registry and dumps every counter/gauge/histogram — a table for humans,
``--format json|openmetrics`` for tools.  ``metrics`` runs with the
time-series sampler on and emits lint-clean OpenMetrics text (plus an
optional JSONL time-series).  ``report`` renders the self-contained HTML
run report, ``regress`` diffs a fresh reference run against the metrics
fingerprint pinned in ``BENCH_perf.json`` and exits non-zero on breach.
See docs/TELEMETRY.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis import format_table, percent
from repro.cache.replacement import REPLACEMENT_POLICY_NAMES
from repro.core.systems import (
    COMPARATOR_SYSTEM_NAMES,
    FRONT_END_NAMES,
    SYSTEM_NAMES,
    make_front_end,
    make_system,
)
from repro.sim.experiment import compare_systems, run_workload, sweep_workloads
from repro.sim.runner import ResultCache, SweepProgress
from repro.sim.simulator import SimulationParams
from repro.telemetry import (
    DEFAULT_CADENCE_TICKS,
    JsonlSink,
    RingBufferSink,
    Telemetry,
)
from repro.trace.synthetic import SyntheticTraceGenerator
from repro.trace.workloads import ALL_WORKLOADS, get_workload, workload_names


def _number(parse, accept, expected: str):
    """argparse ``type=`` that rejects out-of-range values with exit 2."""

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return convert


_positive_int = _number(int, lambda v: v >= 1, "a positive integer")
_non_negative_int = _number(int, lambda v: v >= 0, "a non-negative integer")
_positive_float = _number(float, lambda v: v > 0, "a positive number")
_probability = _number(
    float, lambda v: 0.0 <= v <= 1.0, "a probability in [0, 1]"
)


def _frontend_mb(text: str) -> float:
    """``--frontend-mb``: a size :func:`make_front_end` accepts."""
    capacity_mb = _positive_float(text)
    try:
        make_front_end("dram", capacity_mb=capacity_mb)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return capacity_mb


def _front_end(args: argparse.Namespace):
    """Front-end config from the common CLI flags (default: direct path)."""
    return make_front_end(
        kind=getattr(args, "front_end", "none"),
        replacement=getattr(args, "replacement", "lru"),
        capacity_mb=getattr(args, "frontend_mb", None),
    )


#: Defaults of the simulation options every run command takes.
_COMMON_DEFAULTS = {
    "requests": 4_000, "seed": 1, "cores": 8,
    "front_end": "none", "replacement": "lru", "frontend_mb": None,
}

#: The grid a campaign fixes at submit, which ``sweep --resume`` refuses.
_GRID_OPTIONS = ("workloads", "systems", *_COMMON_DEFAULTS)

#: The DRAM-tier options, which ``faults`` refuses: its runs take the
#: direct path.
_TIER_OPTIONS = ("front_end", "replacement", "frontend_mb")


def _params(args: argparse.Namespace) -> SimulationParams:
    return SimulationParams(
        target_requests=args.requests,
        seed=args.seed,
        n_cores=args.cores,
        front_end=_front_end(args),
    )


def _result_row(result) -> List[object]:
    return [
        result.system_name,
        f"{result.ipc:.3f}",
        f"{result.irlp_average:.2f}",
        f"{result.mean_read_latency_ns:.0f}",
        f"{result.write_throughput:.1f}",
        result.memory.row_reads,
        result.memory.wow_member_writes,
        result.memory.rollbacks,
    ]


_RESULT_HEADERS = [
    "system", "IPC", "IRLP", "read lat (ns)", "writes/us",
    "RoW reads", "WoW writes", "rollbacks",
]


def cmd_list_workloads(_args: argparse.Namespace) -> int:
    rows = [
        [w.name, w.kind.value, f"{w.rpki:.2f}", f"{w.wpki:.2f}",
         f"{w.mean_dirty_words:.2f}", w.description]
        for w in ALL_WORKLOADS
    ]
    print(format_table(
        ["workload", "suite", "RPKI", "WPKI", "mean dirty", "description"],
        rows,
    ))
    return 0


def cmd_list_systems(_args: argparse.Namespace) -> int:
    rows = []
    for name in SYSTEM_NAMES + COMPARATOR_SYSTEM_NAMES:
        config = make_system(name)
        rows.append([name, config.describe().split(": ", 1)[1]])
    print(format_table(["system", "features"], rows))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    result = run_workload(args.workload, args.system, _params(args))
    print(format_table(_RESULT_HEADERS, [_result_row(result)],
                       title=f"workload {args.workload}"))
    if result.frontend is not None:
        f = result.frontend
        print(f"\nfront end: {f['kind']}/{f['replacement']} "
              f"hit rate {f['hit_rate']:.3f} "
              f"({f['read_hits']}+{f['write_hits']} hits, "
              f"{f['fills']} fills, {f['coalesced']} coalesced, "
              f"{f['write_backs']} write-backs)")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    systems = args.systems.split(",") if args.systems else None
    comparison = compare_systems(args.workload, systems, _params(args))
    rows = [_result_row(r) for r in comparison.results.values()]
    print(format_table(_RESULT_HEADERS, rows, title=f"workload {args.workload}"))
    if "baseline" in comparison.results:
        gains = {
            name: percent(comparison.ipc_improvement(name))
            for name in comparison.results
            if name != "baseline"
        }
        print("\nIPC improvement over baseline: "
              + ", ".join(f"{k}={v}" for k, v in gains.items()))
    return 0


#: Default on-disk sweep cache, shared with the benchmark harness.
DEFAULT_CACHE_DIR = os.path.join("benchmarks", "results", "cache")


def _progress_printer(quiet: bool):
    if quiet:
        return None

    def emit(progress: SweepProgress) -> None:
        print(progress.describe(), file=sys.stderr)

    return emit


#: Default campaign store, next to the default sweep cache.
DEFAULT_STORE_PATH = os.path.join("benchmarks", "results", "campaign.sqlite")


def _sweep_cache_dir(args: argparse.Namespace) -> str:
    return getattr(args, "cache_dir", None) or os.environ.get(
        "REPRO_SWEEP_CACHE_DIR", DEFAULT_CACHE_DIR
    )


def _lease_policy(args: argparse.Namespace):
    """LeasePolicy from the campaign CLI knobs (defaults where absent)."""
    from repro.sim.campaign import LeasePolicy

    kwargs = {}
    if getattr(args, "lease", None) is not None:
        kwargs["lease_seconds"] = args.lease
    if getattr(args, "max_attempts", None) is not None:
        kwargs["max_attempts"] = args.max_attempts
    if getattr(args, "timeout", None) is not None:
        kwargs["job_timeout"] = args.timeout
    return LeasePolicy(**kwargs)


def cmd_sweep(args: argparse.Namespace) -> int:
    """Workloads x systems grid through the parallel runner + cache;
    ``--timeout`` or ``--max-attempts`` makes it a throwaway campaign
    (see ``_drain_campaign``)."""
    if args.resume:
        return _sweep_resume(args)
    # A throwaway campaign's lease only decides how long a crashed
    # helper's job waits in a store deleted at exit; the store and its
    # dead letters are the resumed campaign's.
    for option, given in (("--lease", args.lease is not None),
                          ("--store", args.store is not None),
                          ("--reset-dead-letters", args.reset_dead_letters)):
        if given:
            print(f"repro sweep: {option} applies only to --resume",
                  file=sys.stderr)
            return 2
    for dest, default in _COMMON_DEFAULTS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    if not args.workloads:
        print("repro sweep: --workloads is required (unless --resume)",
              file=sys.stderr)
        return 2
    systems = args.systems.split(",") if args.systems else None
    workloads = args.workloads.split(",")
    cache = None if args.no_cache else ResultCache(_sweep_cache_dir(args))
    if args.timeout or args.max_attempts:
        import tempfile

        from repro.sim.campaign import CampaignStore, submit_pairs

        pairs = [(w, s) for w in workloads for s in systems or SYSTEM_NAMES]
        with tempfile.TemporaryDirectory(prefix="repro-sweep-") as tmp:
            store = CampaignStore(os.path.join(tmp, "campaign.sqlite"),
                                  policy=_lease_policy(args))
            try:
                return _drain_campaign(
                    args, store,
                    cache or ResultCache(os.path.join(tmp, "cache")),
                    submit_pairs(store, pairs, _params(args)),
                )
            finally:
                store.close()
    comparisons = sweep_workloads(
        workloads,
        systems,
        _params(args),
        jobs=args.jobs,
        cache=cache,
        progress=_progress_printer(args.quiet),
    )
    return _print_sweep(args, [
        (comparison.workload_name, list(comparison.results.values()))
        for comparison in comparisons
    ], cache)


def _print_sweep(args: argparse.Namespace, groups, cache) -> int:
    """A result table per ``(workload, results)`` group, then the
    ``--digest`` line and (given a cache) the cache line."""
    from repro.sim.results_io import results_digest

    flat = []
    for workload, results in groups:
        rows = [_result_row(r) for r in results]
        print(format_table(_RESULT_HEADERS, rows, title=f"workload {workload}"))
        print()
        flat.extend(results)
    if args.digest:
        print(f"results digest: {results_digest(flat)}")
    if cache is not None:
        print(f"{cache.stats.summary()} ({cache.directory})")
    return 0


def _store_missing(command: str, path: str) -> bool:
    """Report a read-only command's missing store (exit 2, create nothing)."""
    if os.path.exists(path):
        return False
    print(f"repro {command}: no campaign store at {path}", file=sys.stderr)
    return True


def _sweep_resume(args: argparse.Namespace) -> int:
    """Finish a partially-run campaign; compute only what's missing."""
    from repro.sim.campaign import CampaignStore

    # A campaign's rows keep the grid and the attempt budget they were
    # submitted with, and its results live in the result cache.
    refused = [("--max-attempts", args.max_attempts is not None),
               ("--no-cache", args.no_cache)]
    refused += [("--" + dest.replace("_", "-"), getattr(args, dest) is not None)
                for dest in _GRID_OPTIONS]
    for option, given in refused:
        if given:
            print(f"repro sweep: {option} does not apply to --resume",
                  file=sys.stderr)
            return 2
    path = args.store or DEFAULT_STORE_PATH
    if _store_missing("sweep", path):
        return 2
    store = CampaignStore(path, policy=_lease_policy(args))
    if args.resume not in store.campaigns():
        print(f"repro sweep: unknown campaign {args.resume!r} in "
              f"{store.path} (known: {', '.join(store.campaigns()) or 'none'})",
              file=sys.stderr)
        return 2
    cache = ResultCache(_sweep_cache_dir(args))
    return _drain_campaign(args, store, cache, args.resume)


def _drain_campaign(args, store, cache, campaign: str) -> int:
    """Drain ``campaign`` with up to ``--jobs`` workers and print it.

    ``cache`` counts one lookup per job, as a plain sweep's does; the
    drain reads through a second instance, so the campaign's own
    bookkeeping stays out of the printed cache line.  The parent drains
    in-process beside one ``repro worker --once`` helper per further
    uncached job, at most ``--jobs`` - 1, all reaped before returning
    (also on Ctrl-C).  A helper that fails on its own is reported with
    the last line of its stderr, which is otherwise discarded.  Retries,
    backoff and dead letters follow the store's ``LeasePolicy``; any dead
    letter makes the exit code 1.
    """
    import signal
    import tempfile
    from itertools import groupby

    from repro.sim.campaign import resume_campaign
    from repro.sim.campaign.worker import spawn_worker_process

    missing = [str(row["key"]) for row in store.jobs_in_order(campaign)
               if cache.get(str(row["key"])) is None]
    helpers = []
    try:
        for _ in range(min(args.jobs, len(missing)) - 1):
            log = tempfile.TemporaryFile()
            helpers.append((log, spawn_worker_process(
                str(store.path), str(cache.directory), campaign,
                store.policy.lease_seconds, store.policy.job_timeout, log,
            )))
        results = resume_campaign(store, ResultCache(cache.directory),
                                  campaign,
                                  reset_dead_letters=args.reset_dead_letters)
    except RuntimeError as exc:
        results, error = None, exc
    finally:
        for _, helper in helpers:
            if helper.poll() is None:
                helper.terminate()
        for _, helper in helpers:
            helper.wait()
    for log, helper in helpers:
        if helper.returncode not in (0, -signal.SIGTERM):
            log.seek(0)
            lines = log.read().decode(errors="replace").strip().splitlines()
            print(f"repro sweep: a worker helper exited with status "
                  f"{helper.returncode}: {lines[-1] if lines else '?'}",
                  file=sys.stderr)
        log.close()
    if results is None:
        letters = store.dead_letters(campaign)
        print(f"repro sweep: {len(letters)} job(s) dead-lettered" if letters
              else f"repro sweep: {error}", file=sys.stderr)
        for letter in letters:
            print(_dead_letter_line(campaign, letter), file=sys.stderr)
        return 1
    # The drain returns only once every job's result is in the cache, so
    # each job the lookup above missed has been written by some worker.
    cache.stats.writes += len(missing)
    return _print_sweep(args, [
        (workload, list(group))
        for workload, group in groupby(results, lambda r: r.workload_name)
    ], None if args.no_cache else cache)


def _dead_letter_line(campaign: str, letter) -> str:
    """One dead letter, ending with the last line of its traceback."""
    error = str(letter["error"] or "").strip().splitlines()
    return (f"dead letter {campaign}[{letter['job_index']}] "
            f"{letter['workload']} x {letter['system']} after "
            f"{letter['attempts']} attempts: {error[-1] if error else '?'}")


def cmd_submit(args: argparse.Namespace) -> int:
    """Enqueue a workloads x systems grid as a durable campaign."""
    from repro.sim.campaign import CampaignStore, submit_pairs

    systems = args.systems.split(",") if args.systems else list(SYSTEM_NAMES)
    workloads = args.workloads.split(",")
    pairs = [(w, s) for w in workloads for s in systems]
    store = CampaignStore(args.store, policy=_lease_policy(args))
    try:
        name = submit_pairs(store, pairs, _params(args), args.campaign)
    except ValueError as exc:
        print(f"repro submit: {exc}", file=sys.stderr)
        return 2
    counts = store.counts(name)
    print(f"campaign {name}: {counts['total']} jobs "
          f"({counts['queued']} queued, {counts['done']} done) in {store.path}")
    print(f"resume with: repro sweep --resume {name} --store {store.path}")
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    """Long-lived lease-pulling worker attached to a campaign store."""
    from repro.sim.campaign import run_worker

    completed = run_worker(
        args.store,
        _sweep_cache_dir(args),
        campaign=args.campaign,
        worker_id=args.worker_id,
        once=args.once,
        policy=_lease_policy(args),
        poll_seconds=args.poll,
    )
    print(f"worker done: {completed} job(s) completed", file=sys.stderr)
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    """Campaign progress, read from the store (and, for ``--digest``, the
    result cache)."""
    from repro.sim.campaign import (
        CampaignStore,
        campaign_progress,
        collect_results,
    )
    from repro.sim.results_io import results_digest

    if _store_missing("status", args.store):
        return 2
    store = CampaignStore(args.store)
    names = [args.campaign] if args.campaign else store.campaigns()
    if args.campaign and args.campaign not in store.campaigns():
        print(f"repro status: unknown campaign {args.campaign!r}",
              file=sys.stderr)
        return 2
    documents = [campaign_progress(store, name) for name in names]
    if args.digest:
        cache = ResultCache(_sweep_cache_dir(args))
        for document in documents:
            slots, _ = collect_results(store, cache, str(document["campaign"]))
            present = [r for r in slots if r is not None]
            document["results_cached"] = len(present)
            if len(present) == document["total"]:
                document["results_digest"] = results_digest(present)
    if args.json:
        print(json.dumps(documents, indent=1, sort_keys=True))
        return 0
    rows = []
    for document in documents:
        counts = document["counts"]
        rows.append([
            document["campaign"],
            counts["queued"], counts["leased"], counts["done"],
            counts["failed"],
            f"{100.0 * float(document['progress']):.1f}%",
        ])
    print(format_table(
        ["campaign", "queued", "leased", "done", "failed", "progress"],
        rows, title=f"campaign store {store.path}",
    ))
    for document in documents:
        for letter in document["dead_letters"]:
            print("\n" + _dead_letter_line(str(document["campaign"]), letter))
        if "results_digest" in document:
            print(f"\n{document['campaign']} results digest: "
                  f"{document['results_digest']}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run once with tracing on; export a Chrome trace (and maybe JSONL)."""
    from repro.telemetry.chrome import write_chrome_trace

    ring = RingBufferSink(capacity=args.buffer)
    sinks: List[object] = [ring]
    jsonl: Optional[JsonlSink] = None
    if args.jsonl:
        jsonl = JsonlSink(args.jsonl)
        sinks.append(jsonl)
    telemetry = Telemetry.recording(sinks)
    try:
        result = run_workload(
            args.workload, args.system, _params(args), telemetry
        )
    finally:
        telemetry.tracer.close()

    system = make_system(args.system)
    written = write_chrome_trace(
        args.out,
        ring.events,
        chips_per_rank=system.geometry.chips_per_rank,
        label=f"{args.workload} on {args.system} (seed {args.seed})",
    )
    print(format_table(_RESULT_HEADERS, [_result_row(result)],
                       title=f"workload {args.workload}"))
    print(f"\nrecorded {ring.total_seen} events"
          + (f" (kept last {len(ring)}, "
             f"{ring.evicted} evicted)" if ring.evicted else ""))
    print(f"wrote {written} Chrome trace events to {args.out} "
          "(open in chrome://tracing or https://ui.perfetto.dev)")
    if args.jsonl:
        print(f"wrote {jsonl.written} JSONL events to {args.jsonl}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Run once and dump the full metrics registry."""
    from repro.telemetry import to_openmetrics

    telemetry = Telemetry.disabled()
    result = run_workload(args.workload, args.system, _params(args), telemetry)
    dump = telemetry.metrics.as_dict()
    fmt = "json" if args.json else args.format
    if fmt == "json":
        print(json.dumps(dump, indent=1))
        return 0
    if fmt == "openmetrics":
        sys.stdout.write(to_openmetrics(dump))
        return 0
    rows = []
    for name, data in dump.items():
        if data["type"] == "histogram":
            value = (f"count={data['count']} mean={data['mean']:.1f} "
                     f"p50={data['p50']} p95={data['p95']} "
                     f"p99={data['p99']} max={data['max']}")
        elif data["type"] == "gauge":
            value = f"{data['value']} (max {data['max']})"
        else:
            value = str(data["value"])
        rows.append([name, data["type"], value])
    print(format_table(_RESULT_HEADERS, [_result_row(result)],
                       title=f"workload {args.workload}"))
    print()
    print(format_table(["metric", "type", "value"], rows,
                       title="metrics registry"))
    if result.profile is not None:
        print(f"\n{result.profile.summary()}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Run once with sampling on; emit lint-clean OpenMetrics text."""
    from repro.sim.results_io import atomic_write_text
    from repro.telemetry import (
        lint_openmetrics,
        timeseries_to_jsonl,
        to_openmetrics,
    )

    params = SimulationParams(
        target_requests=args.requests,
        seed=args.seed,
        n_cores=args.cores,
        sample_every_ticks=args.cadence,
        collect_metrics=True,
        front_end=_front_end(args),
    )
    result = run_workload(args.workload, args.system, params)
    text = to_openmetrics(result.metrics)
    problems = lint_openmetrics(text)
    if problems:
        for problem in problems:
            print(f"OPENMETRICS LINT FAILED: {problem}", file=sys.stderr)
        return 1
    if args.out:
        atomic_write_text(args.out, text)
        families = sum(1 for line in text.splitlines()
                       if line.startswith("# TYPE"))
        print(f"wrote {families} metric families to {args.out} "
              f"({args.workload} on {args.system}, seed {args.seed})")
    else:
        sys.stdout.write(text)
    if args.timeseries:
        jsonl = timeseries_to_jsonl(result.timeseries)
        atomic_write_text(args.timeseries, jsonl)
        print(f"wrote {len(jsonl.splitlines())} time-series samples to "
              f"{args.timeseries}",
              file=sys.stdout if args.out else sys.stderr)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Simulate the requested systems and render the HTML run report."""
    from repro.analysis import report_params, write_report
    from repro.sim.runner import run_pairs

    systems = args.systems.split(",") if args.systems else list(SYSTEM_NAMES)
    params = report_params(
        target_requests=args.requests, n_cores=args.cores, seed=args.seed
    )
    results = run_pairs(
        [(args.workload, system) for system in systems],
        params,
        jobs=args.jobs,
    )
    title = args.title or f"PCMap run report — {args.workload}"
    path = write_report(args.out, results, title=title)
    print(f"wrote {path} ({len(results)} systems on {args.workload}, "
          f"{args.requests} requests, seed {args.seed})")
    return 0


def cmd_regress(args: argparse.Namespace) -> int:
    """Diff a fresh reference run against the pinned metrics fingerprint."""
    from repro.analysis.regress import (
        FINGERPRINT_SEED,
        collect_fingerprint,
        collect_frontend_fingerprint,
        compare_fingerprints,
        format_comparison,
        load_baseline,
        selftest,
        update_baseline,
    )
    from repro.perf.suites import default_output_path

    path = args.baseline or default_output_path()
    if args.selftest:
        failures = selftest()
        if failures:
            for failure in failures:
                print(f"REGRESS SELFTEST FAILED: {failure}", file=sys.stderr)
            return 1
        print("regress selftest passed (planted regressions were detected)")
        return 0
    if args.update:
        pinned = update_baseline(path)
        print(f"pinned metrics fingerprint "
              f"({', '.join(sorted(pinned))} budgets) in {path}")
        return 0
    try:
        baseline = load_baseline(
            path, smoke=args.smoke, frontend=args.frontend
        )
    except (OSError, ValueError) as exc:
        print(f"REGRESS: {exc}", file=sys.stderr)
        return 1
    seed = baseline.get("config", {}).get("seed", FINGERPRINT_SEED)
    collect = (
        collect_frontend_fingerprint if args.frontend else collect_fingerprint
    )
    current = collect(smoke=args.smoke, seed=seed)
    breaches = compare_fingerprints(baseline, current)
    print(format_comparison(baseline, current, breaches))
    if breaches:
        for breach in breaches:
            print(f"REGRESS BREACH: {breach}", file=sys.stderr)
        return 1
    print("regression sentinel: no breaches")
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    """Run the hot-path microbenchmark suite; optionally gate regressions."""
    from repro.perf import check_payload, format_payload, run_suite
    from repro.sim.results_io import atomic_write_text

    smoke = args.smoke or bool(os.environ.get("REPRO_PERF_SMOKE"))
    payload = run_suite(seed=args.seed, smoke=smoke)
    if args.json:
        print(json.dumps(payload, indent=1))
    else:
        print(format_payload(payload))
    if args.check:
        failures = check_payload(payload)
        if failures:
            for failure in failures:
                print(f"PERF CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        if not args.json:
            print("perf check passed")
    # Written only once the gate (if asked for) has passed, so a failing
    # run never replaces a committed payload.
    if args.out:
        atomic_write_text(args.out, json.dumps(payload, indent=1) + "\n")
        if not args.json:
            print(f"\nwrote {args.out}")
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Seeded fault campaign / convergence check / oracle self-test."""
    for dest in _TIER_OPTIONS:
        if getattr(args, dest) is not None:
            print(f"repro faults: --{dest.replace('_', '-')} does not apply: "
                  "fault campaigns run the direct path", file=sys.stderr)
            return 2
    from repro.faults import (
        DEFAULT_FAULTS,
        FaultCampaignSpec,
        FaultConfig,
        cross_system_convergence,
        oracle_selftest,
        report_json,
        run_campaign,
    )
    from repro.sim.results_io import atomic_write_text

    if args.selftest:
        report = oracle_selftest(seed=args.seed)
        passed = report["passed"]
    elif args.convergence:
        report = cross_system_convergence(
            workload=args.workload,
            seed=args.seed,
            target_requests=args.requests,
        )
        passed = report["converged"]
    else:
        fault = FaultConfig(
            read_disturb_rate=(
                DEFAULT_FAULTS.read_disturb_rate
                if args.read_disturb is None else args.read_disturb
            ),
            write_fail_rate=(
                DEFAULT_FAULTS.write_fail_rate
                if args.write_fail is None else args.write_fail
            ),
            stuck_at_threshold=(
                DEFAULT_FAULTS.stuck_at_threshold
                if args.stuck_threshold is None else args.stuck_threshold
            ),
            stuck_cells_per_line=(
                DEFAULT_FAULTS.stuck_cells_per_line
                if args.stuck_cells is None else args.stuck_cells
            ),
        )
        spec = FaultCampaignSpec(
            workload=args.workload,
            system=args.system,
            seed=args.seed,
            target_requests=2_000 if args.smoke else args.requests,
            n_cores=args.cores,
            fault=fault,
        )
        report = run_campaign(spec)
        passed = report["ok"] and report["row"]["within_paper_band"]
        if not args.json:
            row = report["row"]
            injected = report["injected"]
            print(format_table(
                ["metric", "value"],
                [
                    ["system / workload",
                     f"{spec.system} / {spec.workload} (seed {spec.seed})"],
                    ["faults injected",
                     str(injected["read_disturb_injected"]
                         + injected["write_fail_injected"]
                         + injected["stuck_cells_activated"])],
                    ["SECDED corrected", str(injected["corrected"])],
                    ["detected uncorrectable",
                     str(injected["detected_uncorrectable"])],
                    ["silent", str(injected["silent"])],
                    ["RoW reconstructed reads", str(row["row_reads"])],
                    ["mis-verify rollbacks", str(row["rollbacks_corrupted"])],
                    ["mis-verify rate",
                     f"{row['misverify_rate']:.4f} "
                     f"(paper ceiling {row['paper_ceiling']})"],
                    ["oracle", "clean" if report["ok"] else
                     f"{report['oracle']['violations']} VIOLATIONS"],
                ],
                title="fault campaign",
            ))
    if args.json:
        print(report_json(report))
    if args.out:
        atomic_write_text(args.out, report_json(report) + "\n")
        if not args.json:
            print(f"wrote {args.out}")
    if not args.json and (args.selftest or args.convergence):
        print(report_json(report))
    return 0 if passed else 1


def cmd_gen_trace(args: argparse.Namespace) -> int:
    from repro.trace.trace_io import save_trace

    generator = SyntheticTraceGenerator(
        get_workload(args.workload), seed=args.seed
    )
    count = save_trace(args.out, generator.take(args.count))
    print(f"wrote {count} records to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PCMap (ISCA 2016) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-workloads").set_defaults(func=cmd_list_workloads)
    sub.add_parser("list-systems").set_defaults(func=cmd_list_systems)

    def add_common(p):
        p.add_argument("--requests", type=_positive_int,
                       help="total main-memory requests to simulate")
        p.add_argument("--seed", type=int)
        p.add_argument("--cores", type=_positive_int)
        p.add_argument("--front-end", dest="front_end",
                       choices=FRONT_END_NAMES,
                       help="simulated cache tier in front of PCM "
                            "(default: none — the direct post-LLC path)")
        p.add_argument("--replacement",
                       choices=REPLACEMENT_POLICY_NAMES,
                       help="front-end replacement policy "
                            "(only meaningful with --front-end dram)")
        p.add_argument("--frontend-mb", dest="frontend_mb",
                       type=_frontend_mb, metavar="MB",
                       help="front-end tier capacity in MiB (e.g. 256 "
                            "for the paper-scale Table I tier; default: "
                            "the tier's built-in 256 MB). Sets/ways are "
                            "derived and validated from the size. Only "
                            "meaningful with --front-end dram; distinct "
                            "sizes hash to distinct sweep-cache keys.")
        p.set_defaults(**_COMMON_DEFAULTS)

    run_p = sub.add_parser("run", help="one workload on one system")
    run_p.add_argument("--workload", required=True)
    run_p.add_argument("--system", default="rwow-rde")
    add_common(run_p)
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="one workload across systems")
    cmp_p.add_argument("--workload", required=True)
    cmp_p.add_argument(
        "--systems",
        help="comma-separated (default: all six; comparators "
             f"{','.join(COMPARATOR_SYSTEM_NAMES)} also accepted)",
    )
    add_common(cmp_p)
    cmp_p.set_defaults(func=cmd_compare)

    def add_cache_dir(p):
        p.add_argument("--cache-dir",
                       help="result cache directory (default: "
                            f"$REPRO_SWEEP_CACHE_DIR or {DEFAULT_CACHE_DIR})")

    def add_store(p, required=False):
        p.add_argument("--store", required=required,
                       default=None if required else DEFAULT_STORE_PATH,
                       help="campaign store (SQLite file; default: "
                            f"{DEFAULT_STORE_PATH})")

    lease_knobs = {
        "--lease": dict(type=_positive_float, metavar="S",
                        help="lease seconds before a silent worker's job "
                             "is reclaimed (default: 30)"),
        "--max-attempts": dict(type=_positive_int, metavar="N",
                               help="lease acquisitions before a job "
                                    "dead-letters (default: 4)"),
        "--timeout": dict(type=_positive_float, metavar="S",
                          help="per-job wall-clock cap; an overdue job is "
                               "killed and retried (default: none)"),
    }

    def add_lease_knobs(p, *options):
        """Only the lease knobs the command reads (docs/CAMPAIGNS.md)."""
        for option in options:
            p.add_argument(option, default=None, **lease_knobs[option])

    sweep_p = sub.add_parser(
        "sweep",
        help="several workloads across systems (parallel, cached)",
        description="--timeout or --max-attempts runs the grid as a "
                    "throwaway campaign on --jobs worker processes, "
                    "retrying a failed job up to --max-attempts times "
                    "(default 4) and exiting 1 on a dead letter.  --lease, "
                    "--store and --reset-dead-letters apply only to "
                    "--resume, which takes no grid options: the campaign "
                    "fixed its grid at submit.",
    )
    sweep_p.add_argument("--workloads",
                         help="comma-separated workload names "
                              "(required unless --resume)")
    sweep_p.add_argument("--systems", help="comma-separated system names")
    sweep_p.add_argument("--jobs", type=_positive_int,
                         default=os.cpu_count() or 1,
                         help="worker processes (default: all cores)")
    sweep_p.add_argument("--no-cache", action="store_true",
                         help="always re-simulate; do not read or write "
                              "the on-disk result cache")
    add_cache_dir(sweep_p)
    sweep_p.add_argument("--quiet", action="store_true",
                         help="suppress per-job progress lines on stderr")
    add_lease_knobs(sweep_p, "--lease", "--max-attempts", "--timeout")
    sweep_p.add_argument("--digest", action="store_true",
                         help="print the SHA-256 results digest (the "
                              "campaign byte-identity oracle)")
    sweep_p.add_argument("--resume", metavar="CAMPAIGN",
                         help="finish a partially-run campaign from "
                              "--store instead of sweeping --workloads")
    sweep_p.add_argument("--reset-dead-letters", action="store_true",
                         help="with --resume: give dead-lettered jobs a "
                              "fresh attempt budget")
    add_store(sweep_p)
    add_common(sweep_p)
    # None marks an option as not given: --resume refuses the grid
    # options, a fresh sweep refuses --store, and cmd_sweep fills in the
    # grid defaults for a fresh sweep.
    sweep_p.set_defaults(func=cmd_sweep, store=None,
                         **dict.fromkeys(_COMMON_DEFAULTS))

    submit_p = sub.add_parser(
        "submit",
        help="enqueue a workloads x systems grid as a durable campaign",
    )
    submit_p.add_argument("--workloads", required=True,
                          help="comma-separated workload names")
    submit_p.add_argument("--systems", help="comma-separated system names "
                                            "(default: all six)")
    submit_p.add_argument("--campaign",
                          help="campaign name (default: derived from the "
                               "job-list content hash)")
    add_store(submit_p)
    add_lease_knobs(submit_p, "--max-attempts")
    add_common(submit_p)
    submit_p.set_defaults(func=cmd_submit)

    worker_p = sub.add_parser(
        "worker",
        help="pull and run campaign jobs under lease (attachable "
             "from any host sharing the store)",
    )
    add_store(worker_p, required=True)
    add_cache_dir(worker_p)
    worker_p.add_argument("--campaign",
                          help="only pull jobs of this campaign "
                               "(default: any)")
    worker_p.add_argument("--once", action="store_true",
                          help="exit when nothing is leasable instead of "
                               "polling forever")
    worker_p.add_argument("--worker-id",
                          help="lease-owner label (default: host:pid)")
    worker_p.add_argument("--poll", type=_positive_float, default=0.25,
                          help="idle poll interval in seconds")
    add_lease_knobs(worker_p, "--lease", "--timeout")
    worker_p.set_defaults(func=cmd_worker)

    status_p = sub.add_parser(
        "status",
        help="campaign progress, read from the store",
    )
    add_store(status_p)
    add_cache_dir(status_p)
    status_p.add_argument("--campaign", help="one campaign (default: all)")
    status_p.add_argument("--json", action="store_true",
                          help="emit the status documents as JSON")
    status_p.add_argument("--digest", action="store_true",
                          help="include the results digest for complete "
                               "campaigns (reads the result cache)")
    status_p.set_defaults(func=cmd_status)

    trace_p = sub.add_parser(
        "trace", help="record one run's telemetry as a Chrome trace"
    )
    trace_p.add_argument("--workload", required=True)
    trace_p.add_argument("--system", default="rwow-rde")
    trace_p.add_argument("--out", required=True,
                         help="Chrome trace JSON output path")
    trace_p.add_argument("--jsonl",
                         help="also stream raw events to this JSONL file")
    trace_p.add_argument("--buffer", type=_positive_int, default=1_000_000,
                         help="ring-buffer capacity (most recent events kept)")
    add_common(trace_p)
    trace_p.set_defaults(func=cmd_trace)

    stats_p = sub.add_parser(
        "stats", help="run once and dump the metrics registry"
    )
    stats_p.add_argument("--workload", required=True)
    stats_p.add_argument("--system", default="rwow-rde")
    stats_p.add_argument("--json", action="store_true",
                         help="emit the registry as JSON "
                              "(alias for --format json)")
    stats_p.add_argument("--format", choices=["table", "json", "openmetrics"],
                         default="table",
                         help="output format (default: table)")
    add_common(stats_p)
    stats_p.set_defaults(func=cmd_stats)

    metrics_p = sub.add_parser(
        "metrics",
        help="run once with sampling on; emit OpenMetrics text",
    )
    metrics_p.add_argument("--workload", default="canneal")
    metrics_p.add_argument("--system", default="rwow-rde")
    metrics_p.add_argument("--cadence", type=_positive_int,
                           default=DEFAULT_CADENCE_TICKS,
                           help="time-series sample cadence in simulated "
                                f"ticks (default: {DEFAULT_CADENCE_TICKS})")
    metrics_p.add_argument("--out",
                           help="write the OpenMetrics text here instead "
                                "of stdout")
    metrics_p.add_argument("--timeseries",
                           help="also write the sampled time-series as "
                                "JSONL to this file")
    add_common(metrics_p)
    metrics_p.set_defaults(func=cmd_metrics)

    report_p = sub.add_parser(
        "report",
        help="render the self-contained HTML run report",
    )
    report_p.add_argument("--out", required=True,
                          help="HTML output path")
    report_p.add_argument("--workload", default="canneal")
    report_p.add_argument(
        "--systems",
        help="comma-separated system names (default: all six paper systems)",
    )
    report_p.add_argument("--requests", type=_positive_int, default=3_000,
                          help="main-memory requests per system")
    report_p.add_argument("--seed", type=int, default=7)
    report_p.add_argument("--cores", type=_positive_int, default=8)
    report_p.add_argument("--jobs", type=_positive_int,
                          default=os.cpu_count() or 1,
                          help="worker processes (default: all cores)")
    report_p.add_argument("--title", help="report title")
    report_p.set_defaults(func=cmd_report)

    regress_p = sub.add_parser(
        "regress",
        help="diff a reference run against the pinned metrics fingerprint",
    )
    regress_p.add_argument("--baseline",
                           help="BENCH_perf.json holding the pinned "
                                "fingerprint (default: the committed one)")
    regress_p.add_argument("--smoke", action="store_true",
                           help="use the smoke-budget fingerprint (CI)")
    regress_p.add_argument("--frontend", action="store_true",
                           help="diff the front-end (dram tier) leg "
                                "instead of the direct-path leg")
    regress_p.add_argument("--update", action="store_true",
                           help="re-pin every budget/leg fingerprint "
                                "and exit")
    regress_p.add_argument("--selftest", action="store_true",
                           help="plant a regression; the sentinel must "
                                "detect it")
    regress_p.add_argument("--check", action="store_true",
                           help="alias for the default compare mode "
                                "(symmetry with `repro perf --check`)")
    regress_p.set_defaults(func=cmd_regress)

    perf_p = sub.add_parser(
        "perf", help="run the tracked hot-path microbenchmark suite"
    )
    perf_p.add_argument("--seed", type=int, default=7)
    perf_p.add_argument("--smoke", action="store_true",
                        help="small budgets for CI (also: REPRO_PERF_SMOKE=1)")
    perf_p.add_argument("--json", action="store_true",
                        help="emit the BENCH_perf.json payload to stdout")
    perf_p.add_argument("--out",
                        help="also write the payload to this file "
                             "(with --check, only if the check passes)")
    perf_p.add_argument("--check", action="store_true",
                        help="exit non-zero on gross hot-path regressions")
    perf_p.set_defaults(func=cmd_perf)

    faults_p = sub.add_parser(
        "faults",
        help="seeded fault-injection campaign with differential oracle",
    )
    faults_p.add_argument("--workload", default="canneal")
    faults_p.add_argument("--system", default="rwow-rde")
    faults_p.add_argument("--read-disturb", type=_probability,
                          default=None,
                          help="per-read transient bit-flip probability")
    faults_p.add_argument("--write-fail", type=_probability, default=None,
                          help="per-committed-word bit-failure probability")
    faults_p.add_argument("--stuck-threshold", type=_non_negative_int,
                          default=None,
                          help="writes per line before stuck-at cells appear")
    faults_p.add_argument("--stuck-cells", type=_positive_int,
                          default=None,
                          help="stuck cells per worn-out line")
    faults_p.add_argument("--smoke", action="store_true",
                          help="small CI budget (2000 requests)")
    faults_p.add_argument("--json", action="store_true",
                          help="emit the full campaign report as JSON")
    faults_p.add_argument("--out", help="also write the JSON report here")
    faults_p.add_argument("--selftest", action="store_true",
                          help="plant an untracked corruption; the oracle "
                               "must detect it")
    faults_p.add_argument("--convergence", action="store_true",
                          help="all six systems must reach identical "
                               "end-state (faults off)")
    add_common(faults_p)
    # None marks a tier option as not given: cmd_faults refuses them all.
    faults_p.set_defaults(func=cmd_faults, **dict.fromkeys(_TIER_OPTIONS))

    gen_p = sub.add_parser("gen-trace", help="export a synthetic trace file")
    gen_p.add_argument("--workload", required=True)
    gen_p.add_argument("--count", type=_positive_int, default=10_000)
    gen_p.add_argument("--out", required=True)
    gen_p.add_argument("--seed", type=int, default=1)
    gen_p.set_defaults(func=cmd_gen_trace)

    return parser


def _reject_unknown_names(parser: argparse.ArgumentParser, args) -> None:
    """Exit 2, listing the valid names, on an unknown workload or system."""
    for kind, valid in (("workload", workload_names()),
                        ("system", SYSTEM_NAMES + COMPARATOR_SYSTEM_NAMES)):
        for dest in (kind, kind + "s"):  # --workload, then --workloads
            value = getattr(args, dest, None) or ""
            given = [value] if dest == kind else value.split(",")
            unknown = [name for name in given if name and name not in valid]
            if unknown:
                parser.error(f"--{dest}: unknown {kind} "
                             f"{', '.join(map(repr, unknown))}; "
                             f"valid: {', '.join(valid)}")


#: Options naming a file a command writes (``trace``, ``metrics``,
#: ``report``, ``faults``, ``perf``, ``gen-trace``).
_OUTPUT_OPTIONS = ("out", "jsonl", "timeseries")


def _unwritable_output(args: argparse.Namespace) -> Optional[str]:
    """One line naming the first output option whose path cannot be
    written, or ``None``.  Missing directories on a writable path are
    created, as ``atomic_write_text`` would create them after the run."""
    for dest in _OUTPUT_OPTIONS:
        path = getattr(args, dest, None)
        if not path:
            continue
        target = Path(path)
        # The nearest ancestor that exists; "." or "/" at the latest.
        existing = next(p for p in target.parents if p.exists())
        if target.is_dir():
            problem = "it is a directory"
        elif not existing.is_dir():
            problem = f"{existing} is not a directory"
        elif not os.access(existing, os.W_OK):
            problem = f"{existing} is not writable"
        else:
            target.parent.mkdir(parents=True, exist_ok=True)
            continue
        return f"cannot write --{dest} {path}: {problem}"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _reject_unknown_names(parser, args)
    # Checked before the command runs, so a bad path costs no run.
    problem = _unwritable_output(args)
    if problem is not None:
        print(f"repro {args.command}: {problem}", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
