"""Report formatting: the rows/series each figure and table prints.

Benchmarks call these helpers so every experiment emits a uniformly
formatted table that can be compared side-by-side with the paper's
figures.  EXPERIMENTS.md records one captured output per experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.sim.metrics import SimulationResult


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Monospace table with right-aligned numeric columns."""
    materialised = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in materialised:
        cells = []
        for i, cell in enumerate(row):
            if i == 0:
                cells.append(cell.ljust(widths[i]))
            else:
                cells.append(cell.rjust(widths[i]))
        lines.append("  ".join(cells))
    return "\n".join(lines)


def percent(value: float, signed: bool = True) -> str:
    """0.156 -> '+15.6%'."""
    sign = "+" if signed and value >= 0 else ""
    return f"{sign}{value * 100:.1f}%"


def ratio(value: float) -> str:
    """1.17 -> '1.17x'."""
    return f"{value:.2f}x"


@dataclass
class FigureSeries:
    """One plotted series: label plus per-workload values."""

    label: str
    values: Dict[str, float]

    def mean(self) -> float:
        """Mean over workloads, added left to right in insertion order
        (``sum`` compensates floats on CPython 3.12 and would round
        differently there than on 3.10 and 3.11)."""
        if not self.values:
            return 0.0
        total = 0.0
        for value in self.values.values():
            total += value
        return total / len(self.values)


def figure_report(
    title: str,
    workloads: Sequence[str],
    series: Sequence[FigureSeries],
    value_format=lambda v: f"{v:.2f}",
    average_label: str = "Average",
) -> str:
    """Workloads-by-systems matrix with a trailing average row."""
    headers = ["workload"] + [s.label for s in series]
    rows: List[List[object]] = []
    for workload in workloads:
        rows.append(
            [workload]
            + [value_format(s.values.get(workload, float("nan"))) for s in series]
        )
    rows.append(
        [average_label] + [value_format(s.mean()) for s in series]
    )
    return format_table(headers, rows, title=title)


def summarize_result(result: SimulationResult) -> Dict[str, float]:
    """Flat metric dict for one run (handy in tests and notebooks)."""
    return {
        "ipc": result.ipc,
        "irlp_average": result.irlp_average,
        "irlp_max": result.irlp_max,
        "mean_read_latency_ns": result.mean_read_latency_ns,
        "write_throughput": result.write_throughput,
        "delayed_read_fraction": result.memory.delayed_read_fraction,
        "row_reads": float(result.memory.row_reads),
        "wow_member_writes": float(result.memory.wow_member_writes),
        "rollbacks": float(result.memory.rollbacks),
        "reads": float(result.memory.reads_completed),
        "writes": float(result.memory.writes_completed),
    }
