"""One cold repetition of one workload, in its own process.

    python3 child.py WORKLOAD SEED SPAWNED_AT [--smoke] [--profile]

Prints one JSON record on stdout (see ``workloads.measure``).  With
``--profile`` the whole repetition -- imports, set-up and run -- runs under
cProfile, and the record gains a ``profile`` section: for set-up and run
apart, self time and call counts folded into the repository's layers by
module path and the calls between layers; and the garbage collector's
pauses.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import pstats
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "engine", "trace", "cpu", "memory", "core", "cache",
    "metrics", "telemetry", "runner", "other",
)

_REPRO = str(Path(__file__).resolve().parents[2] / "src" / "repro") + os.sep

#: First match wins; paths are relative to ``src/repro``.  Anything else,
#: builtins and the standard library included, is ``other``.
_LAYER_PREFIXES = (
    ("sim/engine.py", "engine"),
    ("sim/simulator.py", "engine"),
    ("sim/metrics.py", "metrics"),
    ("sim/runner/", "runner"),
    ("sim/experiment.py", "runner"),
    ("sim/results_io.py", "runner"),
    ("trace/", "trace"),
    ("cpu/", "cpu"),
    ("memory/", "memory"),
    ("core/", "core"),
    ("cache/", "cache"),
    ("telemetry/", "telemetry"),
)


def layer_of(filename: str) -> str:
    if filename.startswith(_REPRO):
        relative = filename[len(_REPRO):].replace(os.sep, "/")
        for prefix, layer in _LAYER_PREFIXES:
            if relative.startswith(prefix):
                return layer
    return "other"


class GcTimer:
    """``gc.callbacks`` hook: collector pauses would otherwise be spread
    invisibly across whichever layer happened to allocate."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.collections = 0
        self._started = 0.0

    def __call__(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._started
            self.collections += 1


def fold(profile: cProfile.Profile) -> dict:
    """Per-layer self time and calls, and cross-layer caller edges."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    edges: dict = defaultdict(lambda: {"calls": 0, "callee_self_s": 0.0})
    for (filename, _, _), (_, ncalls, tottime, _, callers) in (
        pstats.Stats(profile).stats.items()
    ):
        layer = layer_of(filename)
        self_s[layer] += tottime
        calls[layer] += ncalls
        for (caller_file, _, _), (_, caller_calls, caller_tottime, _) in (
            callers.items()
        ):
            caller = layer_of(caller_file)
            if caller != layer:
                edge = edges[f"{caller}->{layer}"]
                edge["calls"] += caller_calls
                edge["callee_self_s"] += caller_tottime
    return {
        "self_s": self_s,
        "calls": calls,
        "edges": dict(sorted(edges.items())),
    }


def main(argv: list) -> None:
    name, seed, spawned_at = argv[0], int(argv[1]), float(argv[2])
    smoke = "--smoke" in argv
    if "--profile" not in argv:
        import workloads

        record = workloads.measure(name, seed, spawned_at, smoke)
    else:
        # Set-up and run are profiled apart: calls per event count the
        # run alone, while layer times cover the whole cold repetition.
        setup, run = cProfile.Profile(), cProfile.Profile()

        def on_setup_done() -> None:
            setup.disable()
            run.enable()

        timer = GcTimer()
        gc.callbacks.append(timer)
        setup.enable()
        try:
            import workloads

            record = workloads.measure(
                name, seed, spawned_at, smoke, on_setup_done
            )
        finally:
            setup.disable()
            run.disable()
            gc.callbacks.remove(timer)
        record["profile"] = {
            "setup": fold(setup),
            "run": fold(run),
            "gc": {"pause_s": timer.pause_s, "collections": timer.collections},
        }
    json.dump(record, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
