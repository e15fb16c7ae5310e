"""Standard-format exports for the metrics registry and time series.

* :func:`to_openmetrics` renders a :meth:`MetricsRegistry.as_dict` dump
  as OpenMetrics/Prometheus text: counters as ``<name>_total``, gauges as a
  value family plus a ``<name>_max`` companion family, histograms as
  cumulative ``_bucket{le=...}`` samples with ``_sum``/``_count``.
* :func:`lint_openmetrics` structurally validates such text — CI runs it
  over the ``repro metrics`` output so a malformed exposition fails the
  build rather than a scrape.
* :func:`timeseries_to_jsonl` renders a
  :class:`~repro.telemetry.timeseries.TimeSeries` (or its ``as_dict``
  form) as one JSON object per sample, the sink shape log pipelines
  ingest directly.

All output is deterministic: dumps are rendered in sorted-name order and
numbers format identically across runs, so exports of the same run are
byte-comparable.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Mapping, Union

from repro.telemetry.registry import Histogram
from repro.telemetry.timeseries import TimeSeries

#: Metric-family prefix for every exported sample (our namespace).
DEFAULT_PREFIX = "repro_"

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
#: ``name{labels} value`` — labels optional; value validated separately.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$"
)
_TYPE_RE = re.compile(
    r"^# TYPE (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*) (?P<kind>counter|gauge|histogram)$"
)


def sanitize_name(name: str) -> str:
    """Map a dotted registry name to a legal metric name.

    Dots and dashes (e.g. ``row.declined.no-overlappable-read``) become
    underscores; any other illegal character does too.
    """
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not _NAME_RE.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def _fmt(value: Union[int, float]) -> str:
    """Deterministic number rendering: integral values drop the ``.0``."""
    if isinstance(value, bool):  # guard: bool is an int subclass
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def to_openmetrics(dump: Mapping[str, dict], prefix: str = DEFAULT_PREFIX) -> str:
    """Render a registry dump as OpenMetrics text (ends with ``# EOF``)."""
    lines: List[str] = []
    for raw_name in sorted(dump):
        data = dump[raw_name]
        name = prefix + sanitize_name(raw_name)
        kind = data["type"]
        if kind == "counter":
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name}_total {_fmt(data['value'])}")
        elif kind == "gauge":
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_fmt(data['value'])}")
            lines.append(f"# TYPE {name}_max gauge")
            lines.append(f"{name}_max {_fmt(data['max'])}")
        elif kind == "histogram":
            lines.append(f"# TYPE {name} histogram")
            cumulative = 0
            for bound, count in zip(data["buckets"], data["counts"]):
                cumulative += count
                le = (
                    Histogram.OVERFLOW_BOUND
                    if bound == Histogram.OVERFLOW_BOUND
                    else _fmt(bound)
                )
                lines.append(f'{name}_bucket{{le="{le}"}} {cumulative}')
            lines.append(f"{name}_sum {_fmt(data['sum'])}")
            lines.append(f"{name}_count {_fmt(data['count'])}")
        else:
            raise TypeError(f"metric {raw_name!r} has unknown kind {kind!r}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def lint_openmetrics(text: str) -> List[str]:
    """Structural validation of OpenMetrics text; returns failure strings.

    Checks the invariants scrapers rely on: a single terminal ``# EOF``,
    well-formed sample lines, every sample preceded by a ``# TYPE`` for
    its family, counter samples suffixed ``_total``, histogram buckets
    cumulative with a final ``le="+Inf"`` matching ``_count``, and
    parseable numeric values.  An empty list means the text passed.
    """
    failures: List[str] = []
    if not text.endswith("# EOF\n"):
        failures.append("exposition must end with '# EOF\\n'")
    lines = text.splitlines()
    families: Dict[str, str] = {}
    # Histogram bookkeeping: family -> (last cumulative, saw +Inf, inf count)
    hist_state: Dict[str, dict] = {}
    seen_eof = False

    def family_of(sample_name: str) -> "str | None":
        """Longest declared family this sample belongs to."""
        candidates = [sample_name]
        for suffix in ("_total", "_sum", "_count", "_bucket"):
            if sample_name.endswith(suffix):
                candidates.append(sample_name[: -len(suffix)])
        for candidate in candidates:
            if candidate in families:
                return candidate
        return None

    for lineno, line in enumerate(lines, start=1):
        if seen_eof:
            failures.append(f"line {lineno}: content after # EOF")
            break
        if line == "# EOF":
            seen_eof = True
            continue
        if line.startswith("#"):
            match = _TYPE_RE.match(line)
            if match is None:
                if line.startswith("# TYPE"):
                    failures.append(f"line {lineno}: malformed TYPE: {line!r}")
                continue  # other comments (HELP/UNIT) tolerated
            name = match.group("name")
            if name in families:
                failures.append(f"line {lineno}: duplicate TYPE for {name!r}")
            families[name] = match.group("kind")
            if match.group("kind") == "histogram":
                hist_state[name] = {"last": None, "inf": None, "count": None}
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            failures.append(f"line {lineno}: malformed sample: {line!r}")
            continue
        sample_name = match.group("name")
        try:
            value = float(match.group("value"))
        except ValueError:
            failures.append(
                f"line {lineno}: non-numeric value {match.group('value')!r}"
            )
            continue
        family = family_of(sample_name)
        if family is None:
            failures.append(
                f"line {lineno}: sample {sample_name!r} has no # TYPE"
            )
            continue
        kind = families[family]
        if kind == "counter":
            if not sample_name.endswith("_total"):
                failures.append(
                    f"line {lineno}: counter sample {sample_name!r} "
                    f"must end with _total"
                )
            if value < 0:
                failures.append(f"line {lineno}: negative counter value")
        elif kind == "histogram":
            state = hist_state[family]
            if sample_name == f"{family}_bucket":
                labels = match.group("labels") or ""
                le_match = re.match(r'^le="([^"]*)"$', labels)
                if le_match is None:
                    failures.append(
                        f"line {lineno}: histogram bucket needs an le label"
                    )
                    continue
                if state["last"] is not None and value < state["last"]:
                    failures.append(
                        f"line {lineno}: bucket counts must be cumulative"
                    )
                state["last"] = value
                if le_match.group(1) == "+Inf":
                    state["inf"] = value
            elif sample_name == f"{family}_count":
                state["count"] = value
    for family, state in hist_state.items():
        if state["inf"] is None:
            failures.append(f"histogram {family!r} is missing an le=\"+Inf\" bucket")
        if state["count"] is None:
            failures.append(f"histogram {family!r} is missing a _count sample")
        elif state["inf"] is not None and state["count"] != state["inf"]:
            failures.append(
                f"histogram {family!r}: _count {state['count']} != "
                f"+Inf bucket {state['inf']}"
            )
    if not seen_eof:
        failures.append("missing # EOF terminator")
    return failures


def timeseries_to_jsonl(series: Union[TimeSeries, dict]) -> str:
    """Render a time series as JSONL — one object per sample.

    Accepts a live :class:`TimeSeries` or its ``as_dict`` form; rows come
    out oldest-first with the tick leading every record.
    """
    if isinstance(series, dict):
        series = TimeSeries.from_dict(series)
    return "".join(
        json.dumps(row, sort_keys=False, separators=(",", ":")) + "\n"
        for row in series.rows()
    )
