"""Unit tests for the command-line interface."""

import os
import signal
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def test_list_workloads(capsys):
    assert main(["list-workloads"]) == 0
    out = capsys.readouterr().out
    assert "canneal" in out and "MP1" in out and "stream-triad" in out


def test_list_systems(capsys):
    assert main(["list-systems"]) == 0
    out = capsys.readouterr().out
    assert "rwow-rde" in out and "write-pausing" in out
    assert "palp-lite" not in out
    # A two-line header, then one row per system.
    assert len(out.strip().splitlines()) == 2 + 7


def test_run_command(capsys):
    assert main([
        "run", "--workload", "MP3", "--system", "baseline",
        "--requests", "300", "--cores", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "IPC" in out and "baseline" in out


def test_run_command_with_front_end(capsys):
    assert main([
        "run", "--workload", "MP3", "--system", "baseline",
        "--requests", "300", "--cores", "2", "--seed", "7",
        "--front-end", "dram", "--replacement", "mac",
    ]) == 0
    out = capsys.readouterr().out
    assert "front end: dram/mac" in out
    assert "hit rate" in out


def test_run_command_rejects_unknown_replacement():
    with pytest.raises(SystemExit):
        main([
            "run", "--workload", "MP3",
            "--front-end", "dram", "--replacement", "mru",
        ])


def test_sweep_command_with_front_end(capsys):
    assert main([
        "sweep", "--workloads", "MP3", "--systems", "baseline",
        "--requests", "300", "--cores", "2", "--jobs", "1",
        "--no-cache", "--quiet", "--front-end", "dram",
    ]) == 0
    out = capsys.readouterr().out
    assert "workload MP3" in out


def test_compare_command(capsys):
    assert main([
        "compare", "--workload", "MP3",
        "--systems", "baseline,rwow-rde",
        "--requests", "300", "--cores", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "rwow-rde" in out
    assert "IPC improvement" in out


def test_sweep_command_without_cache(capsys):
    assert main([
        "sweep", "--workloads", "MP2,MP3",
        "--systems", "baseline,rwow-rde",
        "--requests", "300", "--cores", "2",
        "--jobs", "2", "--no-cache", "--quiet",
    ]) == 0
    out = capsys.readouterr().out
    assert "workload MP2" in out and "workload MP3" in out
    assert "cache:" not in out


def test_sweep_command_reports_cache_hits(tmp_path, capsys):
    argv = [
        "sweep", "--workloads", "MP3", "--systems", "baseline",
        "--requests", "300", "--cores", "2",
        "--jobs", "1", "--cache-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr()
    assert "1 misses" in cold.out and "1 writes" in cold.out
    assert "MP3 x baseline: run" in cold.err  # progress on stderr

    assert main(argv) == 0
    warm = capsys.readouterr()
    assert "1 hits" in warm.out
    assert "MP3 x baseline: cache" in warm.err
    # Cached and fresh runs print the same result table.
    assert cold.out.splitlines()[:5] == warm.out.splitlines()[:5]


def test_trace_command_writes_chrome_trace(tmp_path, capsys):
    import json

    out_file = tmp_path / "run.trace.json"
    jsonl_file = tmp_path / "run.jsonl"
    assert main([
        "trace", "--workload", "canneal", "--system", "rwow-rde",
        "--requests", "200", "--cores", "2",
        "--out", str(out_file), "--jsonl", str(jsonl_file),
    ]) == 0
    out = capsys.readouterr().out
    assert "recorded" in out and "Chrome trace" in out

    with open(out_file) as handle:
        document = json.load(handle)
    assert document["traceEvents"]
    stamps = [
        e["ts"] for e in document["traceEvents"] if e.get("ph") in ("X", "i")
    ]
    assert stamps == sorted(stamps)

    from repro.telemetry import TraceEvent

    lines = jsonl_file.read_text().splitlines()
    assert lines
    assert all(TraceEvent.from_dict(json.loads(line)) for line in lines)


def test_trace_command_reports_ring_eviction(tmp_path, capsys):
    jsonl_file = tmp_path / "run.jsonl"
    assert main([
        "trace", "--workload", "canneal", "--system", "rwow-rde",
        "--requests", "200", "--cores", "2", "--buffer", "100",
        "--out", str(tmp_path / "run.trace.json"), "--jsonl", str(jsonl_file),
    ]) == 0
    out = capsys.readouterr().out
    # The JSONL sink keeps every event; the ring only the last 100.
    recorded = len(jsonl_file.read_text().splitlines())
    assert recorded > 100
    assert (
        f"recorded {recorded} events (kept last 100, {recorded - 100} evicted)"
        in out
    )


def test_trace_command_closes_jsonl_when_the_run_fails(tmp_path, monkeypatch):
    import repro.cli
    from repro.telemetry import JsonlSink

    sinks = []

    def failing_run(workload, system, params, telemetry):
        sinks.extend(telemetry.tracer.sinks)
        raise RuntimeError("run failed")

    monkeypatch.setattr(repro.cli, "run_workload", failing_run)
    with pytest.raises(RuntimeError, match="run failed"):
        main([
            "trace", "--workload", "canneal", "--system", "rwow-rde",
            "--out", str(tmp_path / "run.trace.json"),
            "--jsonl", str(tmp_path / "run.jsonl"),
        ])
    (jsonl,) = [sink for sink in sinks if isinstance(sink, JsonlSink)]
    assert jsonl._handle.closed


def test_stats_command_json(capsys):
    import json

    assert main([
        "stats", "--workload", "canneal", "--system", "rwow-rde",
        "--requests", "200", "--cores", "2", "--json",
    ]) == 0
    dump = json.loads(capsys.readouterr().out)
    assert dump["reads.completed"]["value"] > 0
    assert "row.attempts" in dump


def test_stats_command_table(capsys):
    assert main([
        "stats", "--workload", "MP3", "--system", "baseline",
        "--requests", "200", "--cores", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "metrics registry" in out
    assert "engine:" in out  # profile summary line


def test_stats_command_openmetrics(capsys):
    from repro.telemetry import lint_openmetrics

    assert main([
        "stats", "--workload", "MP3", "--system", "rwow-rde",
        "--requests", "200", "--cores", "2", "--format", "openmetrics",
    ]) == 0
    out = capsys.readouterr().out
    assert out.endswith("# EOF\n")
    assert "# TYPE repro_reads_completed counter" in out
    assert "repro_reads_completed_total" in out
    assert lint_openmetrics(out) == []


def test_stats_table_shows_percentiles(capsys):
    assert main([
        "stats", "--workload", "MP3", "--system", "baseline",
        "--requests", "200", "--cores", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "p50=" in out and "p95=" in out and "p99=" in out


def test_metrics_command_writes_files(tmp_path, capsys):
    import json

    om_file = tmp_path / "metrics.txt"
    ts_file = tmp_path / "timeseries.jsonl"
    assert main([
        "metrics", "--workload", "canneal", "--system", "rwow-rde",
        "--requests", "300", "--cores", "2", "--cadence", "200",
        "--out", str(om_file), "--timeseries", str(ts_file),
    ]) == 0
    out = capsys.readouterr().out
    assert "metric families" in out and "time-series samples" in out

    from repro.telemetry import lint_openmetrics

    text = om_file.read_text()
    assert lint_openmetrics(text) == []
    rows = [json.loads(line) for line in ts_file.read_text().splitlines()]
    assert rows
    assert all("tick" in row for row in rows)


def test_metrics_command_stdout_is_openmetrics(capsys):
    assert main([
        "metrics", "--workload", "MP3",
        "--requests", "200", "--cores", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# TYPE")
    assert out.endswith("# EOF\n")


def test_report_command_renders_html(tmp_path, capsys):
    out_file = tmp_path / "report.html"
    assert main([
        "report", "--out", str(out_file),
        "--workload", "canneal", "--systems", "baseline,rwow-rde",
        "--requests", "300", "--cores", "2", "--jobs", "2",
    ]) == 0
    assert "wrote" in capsys.readouterr().out
    text = out_file.read_text()
    assert text.startswith("<!DOCTYPE html>")
    assert "baseline" in text and "rwow-rde" in text and "p95" in text


def test_regress_command_passes_then_breaches(tmp_path, capsys):
    import json

    from repro.analysis.regress import collect_fingerprint

    fingerprint = collect_fingerprint(smoke=True)
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps({"metrics_fingerprint": {"smoke": fingerprint}}))
    assert main(["regress", "--smoke", "--baseline", str(path)]) == 0
    assert "no breaches" in capsys.readouterr().out

    planted = json.loads(json.dumps(fingerprint))
    planted["metrics"]["reads.completed"] += 1
    path.write_text(json.dumps({"metrics_fingerprint": {"smoke": planted}}))
    assert main(["regress", "--smoke", "--check", "--baseline", str(path)]) == 1
    captured = capsys.readouterr()
    assert "REGRESS BREACH" in captured.err
    assert "reads.completed" in captured.err


def test_regress_selftest(capsys):
    assert main(["regress-selftest"]) == 0
    assert "selftest passed" in capsys.readouterr().out


def test_regress_update_pins_baseline(tmp_path, capsys, monkeypatch):
    import json

    from repro.analysis import regress

    monkeypatch.setattr(
        regress, "collect_fingerprints",
        lambda seed=7: {"smoke": {"config": {"seed": seed}, "metrics": {}}},
    )
    path = tmp_path / "BENCH_perf.json"
    assert main(["regress-update", "--baseline", str(path)]) == 0
    assert "pinned" in capsys.readouterr().out
    assert "metrics_fingerprint" in json.loads(path.read_text())


def test_regress_explains_missing_baseline_section(tmp_path, capsys):
    path = tmp_path / "BENCH_perf.json"
    path.write_text("{}")
    assert main(["regress", "--baseline", str(path)]) == 1
    assert "metrics_fingerprint" in capsys.readouterr().err


def test_gen_trace_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "t.trace"
    assert main([
        "gen-trace", "--workload", "canneal",
        "--count", "50", "--out", str(out_file),
    ]) == 0
    from repro.trace.trace_io import iter_trace

    assert len(list(iter_trace(out_file))) == 50


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# ----------------------------------------------------------------------
# Durable campaign commands (submit / worker / status / resume)
# ----------------------------------------------------------------------

CAMPAIGN_SCALE = ["--requests", "120", "--cores", "2", "--seed", "7"]
CAMPAIGN_GRID = ["--workloads", "MP3", "--systems", "baseline,rwow-rde"]


@pytest.mark.campaign
def test_campaign_cli_round_trip(tmp_path, capsys):
    """submit -> worker -> status -> resume reproduces the serial digest."""
    store = str(tmp_path / "campaign.sqlite")
    cache = str(tmp_path / "cache")

    # Serial one-shot reference of the same grid.
    assert main([
        "sweep", *CAMPAIGN_GRID, "--jobs", "1", "--no-cache",
        "--digest", "--quiet", *CAMPAIGN_SCALE,
    ]) == 0
    digest_lines = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("results digest: ")
    ]
    assert len(digest_lines) == 1
    reference = digest_lines[0]

    assert main([
        "submit", *CAMPAIGN_GRID, "--campaign", "cli",
        "--store", store, *CAMPAIGN_SCALE,
    ]) == 0
    out = capsys.readouterr().out
    assert "campaign cli: 2 jobs (2 queued, 0 done)" in out
    assert "resume with: repro resume cli --store" in out

    # Resubmitting the identical grid is an idempotent no-op.
    assert main([
        "submit", *CAMPAIGN_GRID, "--campaign", "cli",
        "--store", store, *CAMPAIGN_SCALE,
    ]) == 0
    capsys.readouterr()

    assert main([
        "worker", "--store", store, "--cache-dir", cache,
        "--campaign", "cli", "--once",
    ]) == 0
    assert "worker done: 2 job(s) completed" in capsys.readouterr().err

    assert main([
        "status", "--store", store, "--cache-dir", cache, "--digest",
    ]) == 0
    out = capsys.readouterr().out
    assert "cli" in out and "100.0%" in out
    assert reference.split(": ", 1)[1] in out

    # Resume of the finished campaign is a pure cache replay with the
    # byte-identical digest.
    assert main([
        "resume", "cli", "--store", store, "--cache-dir", cache, "--digest",
    ]) == 0
    out = capsys.readouterr().out
    assert reference in out
    assert "0 misses" in out and "0 writes" in out  # nothing re-simulated


@pytest.mark.campaign
def test_campaign_status_json(tmp_path, capsys):
    store = str(tmp_path / "campaign.sqlite")
    assert main([
        "submit", *CAMPAIGN_GRID, "--campaign", "doc",
        "--store", store, *CAMPAIGN_SCALE,
    ]) == 0
    capsys.readouterr()
    assert main(["status", "--store", store, "--json"]) == 0
    import json as _json

    documents = _json.loads(capsys.readouterr().out)
    assert documents[0]["campaign"] == "doc"
    assert documents[0]["counts"]["queued"] == 2
    assert documents[0]["total"] == 2
    assert main(["status", "--store", store, "--campaign", "ghost"]) == 2
    assert "unknown campaign" in capsys.readouterr().err


@pytest.mark.campaign
def test_submit_refuses_changed_grid(tmp_path, capsys):
    store = str(tmp_path / "campaign.sqlite")
    assert main([
        "submit", "--workloads", "MP3", "--systems", "baseline",
        "--campaign", "c", "--store", store, *CAMPAIGN_SCALE,
    ]) == 0
    capsys.readouterr()
    assert main([
        "submit", "--workloads", "MP3", "--systems", "rwow-rde",
        "--campaign", "c", "--store", store, *CAMPAIGN_SCALE,
    ]) == 2
    assert "different jobs" in capsys.readouterr().err


@pytest.mark.campaign
def test_sweep_resume_error_paths(tmp_path, capsys):
    from repro.sim.campaign import CampaignStore

    store = str(tmp_path / "campaign.sqlite")
    CampaignStore(store)  # an existing store without the campaign
    assert main(["resume", "ghost", "--store", store]) == 2
    err = capsys.readouterr().err
    assert "repro resume: unknown campaign 'ghost'" in err
    assert "(known: none)" in err
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep"])
    assert excinfo.value.code == 2
    assert "required: --workloads" in capsys.readouterr().err


@pytest.mark.campaign
def test_resume_resets_dead_letters(tmp_path, capsys):
    """A job dead-lettered by a resume's timeout runs again under
    ``--reset-dead-letters`` and the campaign's digest is the serial one."""
    assert main([
        "sweep", *CAMPAIGN_GRID, *CAMPAIGN_SCALE, "--jobs", "1",
        "--no-cache", "--quiet", "--digest",
    ]) == 0
    reference = capsys.readouterr().out.splitlines()[-1]
    store = str(tmp_path / "campaign.sqlite")
    assert main([
        "submit", *CAMPAIGN_GRID, "--campaign", "c", "--store", store,
        "--max-attempts", "1", *CAMPAIGN_SCALE,
    ]) == 0
    resume = ["resume", "c", "--store", store, "--jobs", "1",
              "--cache-dir", str(tmp_path / "cache")]
    capsys.readouterr()
    assert main([*resume, "--timeout", "0.001"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("repro resume: 2 job(s) dead-lettered")
    assert main([*resume, "--digest"]) == 1  # still dead letters
    capsys.readouterr()
    assert main([*resume, "--reset-dead-letters", "--digest"]) == 0
    assert reference in capsys.readouterr().out


@pytest.mark.campaign
@pytest.mark.parametrize("argv", [
    pytest.param(["status"], id="status"),
    pytest.param(["status", "--json"], id="status-json"),
    pytest.param(["resume", "ghost"], id="resume"),
])
def test_read_only_commands_refuse_a_missing_store(argv, tmp_path, capsys):
    """A wrong --store path exits 2 naming it and creates nothing."""
    store = tmp_path / "missing" / "campaign.sqlite"
    assert main(argv + ["--store", str(store)]) == 2
    err = capsys.readouterr().err
    assert f"no campaign store at {store}" in err and "Traceback" not in err
    assert not store.parent.exists()


@pytest.fixture
def helpers(monkeypatch):
    """The ``repro worker`` helpers campaign sweeps start, able to import
    this ``repro`` however pytest was launched."""
    import repro
    import repro.sim.campaign.worker as worker

    src = str(Path(repro.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    ))
    started = []
    spawn = worker.spawn_worker_process

    def recording(*args, **kwargs):
        started.append(spawn(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(worker, "spawn_worker_process", recording)
    return started


@pytest.mark.campaign
def test_campaign_sweep_digest_matches_plain_and_resume(
    tmp_path, capsys, helpers
):
    """--timeout or --max-attempts runs the grid as a throwaway campaign;
    every way of running it prints the plain sweep's digest."""

    def digest(*argv: str) -> str:
        assert main([*argv, "--digest"]) == 0
        captured = capsys.readouterr()
        assert "worker helper" not in captured.err
        assert all(h.returncode in (0, -signal.SIGTERM) for h in helpers)
        lines = [
            line for line in captured.out.splitlines()
            if line.startswith("results digest: ")
        ]
        assert len(lines) == 1
        return lines[0]

    grid = ["sweep", *CAMPAIGN_GRID, *CAMPAIGN_SCALE, "--no-cache", "--quiet"]
    reference = digest(*grid, "--jobs", "1")
    assert digest(*grid, "--jobs", "1", "--timeout", "300") == reference
    assert digest(*grid, "--jobs", "2", "--timeout", "300") == reference
    assert digest(*grid, "--jobs", "2", "--max-attempts", "2") == reference

    store = str(tmp_path / "campaign.sqlite")
    assert main([
        "submit", *CAMPAIGN_GRID, "--campaign", "copy",
        "--store", store, *CAMPAIGN_SCALE,
    ]) == 0
    capsys.readouterr()
    assert digest(
        "resume", "copy", "--store", store,
        "--cache-dir", str(tmp_path / "cache"), "--jobs", "2",
    ) == reference
    assert len(helpers) == 3  # one beside each --jobs 2 parent


@pytest.mark.campaign
def test_campaign_sweep_cache_line_counts_one_lookup_per_job(
    tmp_path, capsys, helpers
):
    """The cache line reads as a plain sweep's, whoever computed each
    job; a warm rerun starts no helper."""
    argv = [
        "sweep", *CAMPAIGN_GRID, *CAMPAIGN_SCALE, "--quiet", "--jobs", "2",
        "--timeout", "300", "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(argv) == 0
    assert ("cache: 0 hits, 2 misses (0 corrupt, 0 errors), 2 writes"
            in capsys.readouterr().out)
    assert len(helpers) == 1
    assert main(argv) == 0
    assert ("cache: 2 hits, 0 misses (0 corrupt, 0 errors), 0 writes"
            in capsys.readouterr().out)
    assert len(helpers) == 1


@pytest.mark.campaign
def test_failed_campaign_sweep_exits_1_listing_dead_letters(capsys):
    assert main([
        "sweep", "--workloads", "MP3", "--systems", "baseline",
        *CAMPAIGN_SCALE, "--jobs", "1", "--no-cache",
        "--timeout", "0.001", "--max-attempts", "1",
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("repro sweep: 1 job(s) dead-lettered")
    assert "MP3 x baseline after 1 attempts: " in err
    assert "JobTimeoutError" in err and "exceeded 0.001s" in err
    assert "Traceback" not in err


_FRESH_SWEEP = ["sweep", "--workloads", "MP3", "--systems", "baseline",
                "--requests", "50", "--jobs", "1", "--no-cache", "--quiet"]


@pytest.mark.parametrize("argv, option", [
    # Lease knobs the command does not read.
    pytest.param(["submit", "--workloads", "MP3", "--timeout", "5"], "--timeout", id="submit-timeout"),
    pytest.param(["submit", "--workloads", "MP3", "--lease", "5"], "--lease", id="submit-lease"),
    pytest.param(["worker", "--store", "unused.sqlite", "--max-attempts", "2"], "--max-attempts", id="worker-max-attempts"),
    pytest.param(["sweep", "--workloads", "MP3", "--retries", "1"], "--retries", id="sweep-retries"),
    pytest.param([*_FRESH_SWEEP, "--lease", "5"], "--lease", id="sweep-lease"),
    pytest.param(["resume", "c", "--max-attempts", "2"], "--max-attempts", id="resume-max-attempts"),
    pytest.param(["resume", "c", "--no-cache"], "--no-cache", id="resume-no-cache"),
    # The campaign fixed its grid at submit.  Values equal to the
    # defaults count too: the option was given.
    *(
        pytest.param(["resume", "c", option, value], option,
                     id=f"resume{option}")
        for option, value in (
            ("--workloads", "MP3"), ("--systems", "baseline"),
            ("--requests", "9000"), ("--seed", "1"), ("--cores", "8"),
            ("--front-end", "none"), ("--replacement", "lru"),
            ("--frontend-mb", "1"),
        )
    ),
    pytest.param(["resume", "c", "--quiet"], "--quiet", id="resume-quiet"),
    # Only a stored campaign has a store, dead letters and a name.
    pytest.param([*_FRESH_SWEEP, "--store", "st.sqlite"], "--store", id="sweep-store"),
    pytest.param([*_FRESH_SWEEP, "--reset-dead-letters"], "--reset-dead-letters", id="sweep-reset-dead-letters"),
    pytest.param(["sweep", "--workloads", "MP3", "--resume", "c"], "--resume", id="sweep-resume"),
    # Each mode of faults and regress is its own command, holding only
    # the options that mode reads; the old mode flags are gone.
    pytest.param(["faults-selftest", "--system", "baseline", "--read-disturb", "0.5"], "--read-disturb", id="faults-selftest-fault-options"),
    pytest.param(["faults-selftest", "--json"], "--json", id="faults-selftest-json"),
    pytest.param(["faults-convergence", "--system", "baseline"], "--system", id="faults-convergence-system"),
    pytest.param(["faults-convergence", "--json"], "--json", id="faults-convergence-json"),
    pytest.param(["faults", "--selftest"], "--selftest", id="faults-selftest-flag"),
    pytest.param(["faults", "--convergence"], "--convergence", id="faults-convergence-flag"),
    pytest.param(["regress-update", "--smoke", "--baseline", "X"], "--smoke", id="regress-update-smoke"),
    pytest.param(["regress-selftest", "--baseline", "X"], "--baseline", id="regress-selftest-baseline"),
    pytest.param(["regress", "--update"], "--update", id="regress-update-flag"),
    pytest.param(["regress", "--selftest"], "--selftest", id="regress-selftest-flag"),
])
def test_options_a_command_does_not_read_exit_2(argv, option, tmp_path,
                                                capsys, monkeypatch):
    """Each parser holds only the options its command reads, so argparse
    refuses any other: exit 2 naming it, before anything is opened or
    run."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and option in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("option, value", [
    # Values equal to the defaults count too: the option was given.
    pytest.param("--front-end", "none", id="front-end"),
    pytest.param("--replacement", "lru", id="replacement"),
    pytest.param("--frontend-mb", "0.25", id="frontend-mb"),
])
def test_faults_refuses_tier_options(option, value, capsys):
    """Fault campaigns run the direct path, so ``faults`` takes no tier
    option: argparse exits 2 naming it."""
    with pytest.raises(SystemExit) as excinfo:
        main(["faults", "--smoke", "--seed", "1", option, value])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err and option in captured.err
    assert "Traceback" not in captured.err and not captured.out


@pytest.mark.parametrize("argv, listed, bad", [
    pytest.param(["run", "--workload", "nope"], "canneal", "'nope'", id="run-workload"),
    pytest.param(["run", "--workload", "MP3", "--system", "nope"], "rwow-rde", "'nope'", id="run-system"),
    pytest.param(["compare", "--workload", "MP3", "--systems", "baseline,nope"], "rwow-rde", "'nope'", id="compare-systems"),
    pytest.param(["sweep", "--workloads", "MP3,nope"], "canneal", "'nope'", id="sweep-workloads"),
    pytest.param(["sweep", "--workloads", "MP3", "--systems", "nope"], "rwow-rde", "'nope'", id="sweep-systems"),
    pytest.param(["submit", "--workloads", "nope"], "canneal", "'nope'", id="submit-workloads"),
    pytest.param(["submit", "--workloads", "MP3", "--systems", "nope"], "rwow-rde", "'nope'", id="submit-systems"),
    pytest.param(["report", "--out", "unused.html", "--workload", "nope"], "canneal", "'nope'", id="report-workload"),
    pytest.param(["report", "--out", "unused.html", "--systems", "nope"], "rwow-rde", "'nope'", id="report-systems"),
    # An empty entry is an unknown name, not a traceback.
    pytest.param(["compare", "--workload", "canneal", "--systems", "rwow-rde,"], "rwow-rde", "''", id="compare-systems-trailing-comma"),
    pytest.param(["compare", "--workload", "canneal", "--systems", ",,"], "rwow-rde", "''", id="compare-systems-only-commas"),
    pytest.param(["sweep", "--workloads", "canneal,", "--systems", "baseline"], "canneal", "''", id="sweep-workloads-trailing-comma"),
    pytest.param(["report", "--out", "unused.html", "--systems", "rwow-rde,"], "rwow-rde", "''", id="report-systems-trailing-comma"),
    pytest.param(["run", "--workload", ""], "canneal", "''", id="run-workload-empty"),
    pytest.param(["run", "--workload", "MP3", "--system", "palp-lite"], "rwow-rde", "'palp-lite'", id="run-system-palp-lite"),
    pytest.param(["faults", "--workload", "nope"], "canneal", "'nope'", id="faults-workload"),
    pytest.param(["gen-trace", "--workload", "nope", "--out", "unused.trace"], "canneal", "'nope'", id="gen-trace-workload"),
])
def test_unknown_names_exit_2_listing_valid_names(argv, listed, bad, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unknown" in err and bad in err and listed in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, option", [
    pytest.param(["run", "--workload", "MP3", "--cores", "0"], "--cores", id="run-cores-0"),
    pytest.param(["compare", "--workload", "MP3", "--cores", "-1"], "--cores", id="compare-cores-negative"),
    pytest.param(["run", "--workload", "MP3", "--requests", "0"], "--requests", id="run-requests-0"),
    pytest.param(["run", "--workload", "MP3", "--requests", "-5"], "--requests", id="run-requests-negative"),
    pytest.param(["worker", "--store", "unused.sqlite", "--once", "--timeout", "0"], "--timeout", id="worker-timeout-0"),
    pytest.param(["worker", "--store", "unused.sqlite", "--once", "--timeout", "-2"], "--timeout", id="worker-timeout-negative"),
    pytest.param(["gen-trace", "--workload", "MP1", "--out", "unused.trace", "--count", "-1"], "--count", id="gen-trace-count"),
    pytest.param(["run", "--workload", "MP3", "--front-end", "dram", "--frontend-mb", "0.3"], "--frontend-mb", id="frontend-mb-partial-kib"),
    pytest.param(["trace", "--workload", "MP3", "--out", "unused.json", "--buffer", "0"], "--buffer", id="trace-buffer"),
    pytest.param(["sweep", "--workloads", "MP3", "--jobs", "0"], "--jobs", id="sweep-jobs"),
    pytest.param(["report", "--out", "unused.html", "--jobs", "0"], "--jobs", id="report-jobs"),
    pytest.param(["sweep", "--workloads", "MP3", "--max-attempts", "0"], "--max-attempts", id="sweep-max-attempts"),
    pytest.param(["metrics", "--cadence", "0"], "--cadence", id="metrics-cadence"),
    pytest.param(["worker", "--store", "unused.sqlite", "--once", "--lease", "-1"], "--lease", id="worker-lease"),
    pytest.param(["submit", "--workloads", "MP3", "--max-attempts", "0"], "--max-attempts", id="submit-max-attempts"),
    pytest.param(["faults", "--read-disturb", "2"], "--read-disturb", id="faults-read-disturb"),
    pytest.param(["faults", "--write-fail", "-0.5"], "--write-fail", id="faults-write-fail"),
    pytest.param(["faults", "--stuck-cells", "-3"], "--stuck-cells", id="faults-stuck-cells"),
])
def test_bad_numbers_exit_2_naming_the_option(argv, option, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, option", [
    pytest.param(["trace", "--workload", "MP3", "--out", "{bad}/run.json"], "--out", id="trace-out"),
    pytest.param(["trace", "--workload", "MP3", "--out", "{ok}/run.json", "--jsonl", "{bad}/run.jsonl"], "--jsonl", id="trace-jsonl"),
    pytest.param(["metrics", "--out", "{bad}/metrics.txt"], "--out", id="metrics-out"),
    pytest.param(["metrics", "--timeseries", "{bad}/series.jsonl"], "--timeseries", id="metrics-timeseries"),
    pytest.param(["report", "--out", "{bad}/report.html"], "--out", id="report-out"),
    pytest.param(["faults", "--smoke", "--out", "{bad}/faults.json"], "--out", id="faults-out"),
    pytest.param(["perf", "--smoke", "--out", "{bad}/perf.json"], "--out", id="perf-out"),
    pytest.param(["gen-trace", "--workload", "MP1", "--out", "{bad}/mp1.trace"], "--out", id="gen-trace-out"),
])
def test_unwritable_output_exits_2_before_the_run(argv, option, tmp_path, capsys):
    # The output's parent is a regular file, so no run could write there.
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    argv = [arg.format(bad=blocker, ok=tmp_path) for arg in argv]
    path = argv[argv.index(option) + 1]
    small = ["--requests", "200", "--cores", "2"]
    if argv[0] in ("trace", "metrics", "report"):
        argv += small
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""  # nothing ran
    assert err.splitlines() == [
        f"repro {argv[0]}: cannot write {option} {path}: "
        f"{blocker} is not a directory"
    ]


def test_output_directories_are_created_before_the_run(tmp_path, capsys):
    out = tmp_path / "new" / "dir" / "mp1.trace"
    assert main(["gen-trace", "--workload", "MP1", "--count", "5",
                 "--out", str(out)]) == 0
    assert out.read_text().count("\n") == 6  # header + 5 records
