"""Unit tests for report formatting."""

from repro.analysis.report import (
    FigureSeries,
    figure_report,
    format_table,
    percent,
    ratio,
)


def test_format_table_alignment():
    text = format_table(["name", "value"], [["alpha", 1], ["b", 22]])
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert "-" in lines[1]
    assert lines[2].startswith("alpha")
    # Numeric column right-aligned: both rows end at the same column.
    assert len(lines[2]) == len(lines[3])


def test_format_table_title():
    text = format_table(["a"], [[1]], title="My Table")
    assert text.splitlines()[0] == "My Table"


def test_percent_and_ratio():
    assert percent(0.156) == "+15.6%"
    assert percent(-0.05) == "-5.0%"
    assert percent(0.1, signed=False) == "10.0%"
    assert ratio(1.166) == "1.17x"


def test_figure_series_mean():
    series = FigureSeries("s", {"a": 1.0, "b": 3.0})
    assert series.mean() == 2.0
    assert FigureSeries("empty", {}).mean() == 0.0


def test_figure_series_mean_adds_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16, so the mean is 0.0 on every
    # CPython; a compensated sum (3.12's ``sum``) keeps the 1.0.
    series = FigureSeries("s", {"a": 1e16, "b": 1.0, "c": -1e16})
    assert series.mean() == 0.0


def test_figure_report_has_average_row():
    series = [FigureSeries("sys", {"w1": 1.0, "w2": 2.0})]
    text = figure_report("T", ["w1", "w2"], series)
    assert "Average" in text
    assert "1.50" in text


def test_figure_report_missing_value_is_nan():
    series = [FigureSeries("sys", {"w1": 1.0})]
    text = figure_report("T", ["w1", "w2"], series)
    assert "nan" in text
