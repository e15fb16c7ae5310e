"""Result analysis and report formatting for the benchmark harness.

The table helpers of :mod:`repro.analysis.report` load with the package.
The HTML report (:mod:`repro.analysis.htmlreport`) and the occupancy
timelines (:mod:`repro.analysis.timeline`) load on first use of their
names, so a command that prints a table does not load the renderers.
"""

from repro.analysis.report import (
    FigureSeries,
    figure_report,
    format_table,
    percent,
    ratio,
    summarize_result,
)

__all__ = [
    "render_report",
    "report_params",
    "write_report",
    "BarSeries",
    "LineSeries",
    "svg_grouped_bars",
    "svg_line_chart",
    "occupancy_from_trace",
    "occupancy_summary",
    "render_occupancy",
    "render_trace_occupancy",
    "FigureSeries",
    "figure_report",
    "format_table",
    "percent",
    "ratio",
    "summarize_result",
]

#: Renderer names resolved on first use, by the module that defines them.
_LAZY_EXPORTS = {
    **dict.fromkeys(
        ("render_report", "report_params", "write_report"), "htmlreport"
    ),
    **dict.fromkeys(
        (
            "BarSeries", "LineSeries", "svg_grouped_bars", "svg_line_chart",
            "occupancy_from_trace", "occupancy_summary", "render_occupancy",
            "render_trace_occupancy",
        ),
        "timeline",
    ),
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        from importlib import import_module

        module = import_module(f"{__name__}.{_LAZY_EXPORTS[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
