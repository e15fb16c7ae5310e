"""Named metrics: counters, gauges and fixed-bucket histograms.

The registry is deliberately primitive — plain attribute/int operations on
``__slots__`` objects, no locks (the engine is single-threaded), no label
sets, no export protocol beyond :meth:`MetricsRegistry.as_dict`.  Hot-path
code fetches the instrument object once (e.g. in a controller's
``__init__``) and then pays one bound-method call per update, which keeps
the always-on cost in the noise next to the event-engine work.

Naming convention: dotted lowercase paths, most-general first, e.g.
``ch0.queue.read.depth`` or ``row.declined.no-overlappable-read``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple


class Counter:
    """Monotonically increasing integer count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def as_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Point-in-time value; remembers the maximum it ever held.

    Contract (locked by tests/telemetry/test_registry.py):

    * ``set`` assigns an absolute value; ``inc``/``dec`` move relative to
      the current value.  All three keep ``value`` and ``max_value``
      consistent — ``dec`` routes through ``set`` so every mutation path
      shares one definition of the maximum.
    * ``max_value`` is the largest value the gauge *ever held*, including
      its initial 0 — a gauge that only ever goes negative reports
      ``max_value == 0`` because it held 0 before the first update.
    * Values may be negative (e.g. a mis-accounted depth during
      debugging); export layers must round-trip them unchanged rather
      than clamping.
    """

    __slots__ = ("value", "max_value")

    def __init__(self) -> None:
        self.value = 0
        self.max_value = 0

    def set(self, value) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def inc(self, amount: int = 1) -> None:
        self.set(self.value + amount)

    def as_dict(self) -> dict:
        return {"type": "gauge", "value": self.value, "max": self.max_value}


#: Default histogram buckets (upper bounds): tuned for nanosecond-scale
#: latencies and small integer distributions alike.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192,
)


class Histogram:
    """Fixed-bucket histogram with sum/count for mean recovery.

    ``buckets`` are inclusive upper bounds; one overflow bucket catches
    everything beyond the last bound.  Bucket search is linear — bucket
    lists are short and observations are cheap integer compares.
    """

    __slots__ = ("buckets", "counts", "count", "total", "min_seen", "max_seen")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be non-empty and sorted")
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.min_seen: Optional[float] = None
        self.max_seen: Optional[float] = None

    def observe(self, value: float) -> None:
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.count += 1
        self.total += value
        if self.min_seen is None or value < self.min_seen:
            self.min_seen = value
        if self.max_seen is None or value > self.max_seen:
            self.max_seen = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate ``q``-quantile (0..1) from bucket upper bounds.

        Returns the upper bound of the bucket holding the q-th
        observation, clamped to the exactly-tracked observed range
        ``[min_seen, max_seen]`` — so ``percentile(1.0)`` is the true
        maximum rather than the top bucket bound, and quantiles that land
        in the overflow bucket never saturate at the last finite bound.

        Exact bucket edges resolve to the *lower* bucket: with an
        integral target rank ``q * count``, the q-th observation itself
        is the boundary one, so a float-rounding epsilon keeps it from
        spilling into the next bucket.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        assert self.min_seen is not None and self.max_seen is not None
        if q == 0.0:
            return float(self.min_seen)
        # 1-based rank of the q-th observation; the epsilon absorbs float
        # error when q * count lands exactly on a bucket edge.
        target = max(1, math.ceil(q * self.count - 1e-9))
        seen = 0
        for i, bucket_count in enumerate(self.counts[:-1]):
            seen += bucket_count
            if seen >= target:
                bound = float(self.buckets[i])
                return min(max(bound, float(self.min_seen)), float(self.max_seen))
        # Overflow bucket: every value beyond the last finite bound.
        return float(self.max_seen)

    #: JSON-safe marker for the overflow bucket bound in ``as_dict``.
    OVERFLOW_BOUND = "+Inf"

    def as_dict(self) -> dict:
        """JSON-safe dump; ``buckets`` carries an explicit overflow bound.

        ``buckets`` has exactly ``len(counts)`` entries — the finite
        upper bounds plus a trailing ``"+Inf"`` — so consumers can zip
        bounds with counts without special-casing the overflow bucket.
        """
        return {
            "type": "histogram",
            "buckets": list(self.buckets) + [self.OVERFLOW_BOUND],
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min_seen,
            "max": self.max_seen,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """Process-wide (per simulation) namespace of named instruments.

    ``counter``/``gauge``/``histogram`` are get-or-create; asking for an
    existing name with a different instrument kind raises, which catches
    name collisions early.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    def _get_or_create(self, name: str, cls, factory):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {cls.__name__}"
                )
            return existing
        instrument = factory()
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, Gauge)

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(name, Histogram, lambda: Histogram(buckets))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def get(self, name: str):
        """The instrument registered under ``name``, or ``None``."""
        return self._instruments.get(name)

    def value(self, name: str, default=0):
        """Convenience: the scalar value of a counter/gauge by name."""
        instrument = self._instruments.get(name)
        if instrument is None:
            return default
        return getattr(instrument, "value", default)

    def as_dict(self) -> dict:
        """JSON-safe dump of every instrument, sorted by name."""
        return {
            name: self._instruments[name].as_dict()
            for name in sorted(self._instruments)
        }
