"""Compare two sets of end-to-end benchmark results.

    python3 benchmarks/e2e/compare.py BASE NEW

BASE and NEW are each a result file written by ``run.py`` or a directory
of them.  With one file per side, the samples are its repetitions.  With
directories, each file contributes its median, and when both sides hold
the same number of files, file i of BASE and file i of NEW are a pair
(run every pair at the same seed, back to back, alternating which side
goes first, so that the spread is the host's and not the workload's).

For every end-to-end metric and workload the verdict uses the bound fixed
in ``BENCHMARK.json``:

* ``unresolved`` -- either side's spread (IQR / median) exceeds the bound,
  unless every NEW sample beats every BASE sample;
* ``regressed`` -- NEW's median is worse than BASE's by more than the bound;
* ``improved`` -- NEW's median is better by more than BASE's own IQR and,
  when the runs are paired, NEW wins at least 9 of every 10 pairs;
* ``unchanged`` -- otherwise.

Simulated values (the counts and the figures' quantities) are
deterministic for a seed, so they must match exactly; any difference is
listed as ``changed``.  The exit code is 1 when anything regressed or
changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

from run import DECLARED, quartiles

PAIR_WIN_SHARE = 0.9


def load(path: Path) -> List[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def samples(results: List[dict], workload: str, metric: str) -> List[float]:
    """Repetitions of one file, or the median of each of several files."""
    found = [
        r["workloads"][workload]["end_to_end"][metric]
        for r in results if workload in r["workloads"]
    ]
    if len(found) == 1:
        return list(found[0]["samples"])
    return [entry["value"] for entry in found]


def verdict(
    base: List[float], new: List[float], bound: float, higher_better: bool,
    paired: bool,
) -> tuple:
    """(verdict, relative change of the medians, signed so + is better)."""
    sign = 1.0 if higher_better else -1.0
    q1_base, med_base, q3_base = quartiles(base)
    q1_new, med_new, q3_new = quartiles(new)
    change = sign * (med_new - med_base) / med_base
    spread = max((q3_base - q1_base) / med_base, (q3_new - q1_new) / med_new)
    if spread > bound:
        if min(sign * v for v in new) > max(sign * v for v in base):
            return "improved", change
        return "unresolved", change
    if change < -bound:
        return "regressed", change
    if change > 0 and abs(med_new - med_base) > q3_base - q1_base:
        if not paired:
            return "improved", change
        wins = sum(sign * (n - b) > 0 for b, n in zip(base, new))
        if wins >= PAIR_WIN_SHARE * len(base):
            return "improved", change
    return "unchanged", change


def simulated_changes(base: List[dict], new: List[dict]) -> List[str]:
    """Simulated values that differ between the two sides (same seed)."""
    changes = []
    for b, n in zip(base, new):
        if b["seed"] != n["seed"] or b["smoke"] != n["smoke"]:
            continue
        for workload, b_result in b["workloads"].items():
            n_result = n["workloads"].get(workload)
            if n_result is None:
                continue
            if b_result["fingerprint"] != n_result["fingerprint"]:
                changes.append(f"{workload} seed {b['seed']}: fingerprint")
            old_values, new_values = b_result["simulated"], n_result["simulated"]
            for name in sorted(old_values.keys() & new_values.keys()):
                old, cur = old_values[name], new_values[name]
                if old != cur:
                    changes.append(
                        f"{workload} seed {b['seed']}: {name} {old} -> {cur}"
                    )
    return changes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    declared = DECLARED["end_to_end"]
    base, new = load(args.base), load(args.new)
    paired = args.base.is_dir() and args.new.is_dir() and len(base) == len(new)
    workloads = sorted(
        set().union(*(r["workloads"] for r in base))
        & set().union(*(r["workloads"] for r in new))
    )

    counts: Dict[str, int] = {}
    print(f"{'workload':<18} {'metric':<16} {'base':>12} {'new':>12} "
          f"{'change':>8}  verdict")
    for workload in workloads:
        for metric in declared:
            name = metric["name"]
            b = samples(base, workload, name)
            n = samples(new, workload, name)
            result, change = verdict(
                b, n, metric["bound"], metric["better"] == "higher", paired,
            )
            counts[result] = counts.get(result, 0) + 1
            print(
                f"{workload:<18} {name:<16} {statistics.median(b):>12.5g} "
                f"{statistics.median(n):>12.5g} {change:>+8.1%}  {result}"
            )
    changes = simulated_changes(base, new)
    for change in changes:
        print(f"changed: {change}")
    print(
        ", ".join(f"{k} {v}" for k, v in sorted(counts.items()))
        + f"; simulated values changed: {len(changes)}"
        + ("; paired" if paired else "")
    )
    return 1 if counts.get("regressed") or changes else 0


if __name__ == "__main__":
    sys.exit(main())
