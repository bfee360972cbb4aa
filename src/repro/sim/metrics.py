"""Lightweight metrics for simulations and benchmarks.

Counters, gauges, and streaming histograms, grouped in a registry that can
render a plain-text summary table.  The benchmark harness uses these to
print paper-style result rows; the framework uses them for transparency
reporting (every module's activity is observable, per the paper's
"all the active parts of the metaverse should be transparent").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "SketchHistogram",
    "MetricsRegistry",
]


def _percentile_of(ordered: List[float], q: float) -> float:
    """Linear-interpolated percentile over an already-sorted list."""
    if len(ordered) == 1:
        return ordered[0]
    pos = (q / 100.0) * (len(ordered) - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return ordered[lo]
    frac = pos - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        self.value += amount


@dataclass
class Gauge:
    """A value that can move up and down."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += amount


@dataclass
class Histogram:
    """Streaming histogram keeping exact samples (simulations are small
    enough that reservoir sampling is unnecessary).

    Percentile queries share one sorted-samples cache, invalidated by
    ``observe``: a ``summary()`` sorts at most once, and repeated
    summaries between scrapes reuse the previous sort entirely.
    """

    name: str
    samples: List[float] = field(default_factory=list)
    # Sorted view of ``samples``; valid only while ``_cache_len`` still
    # equals ``len(samples)`` (guards direct appends to the public list).
    _sorted_cache: Optional[List[float]] = field(
        default=None, repr=False, compare=False
    )
    _cache_len: int = field(default=-1, repr=False, compare=False)

    def observe(self, value: float) -> None:
        self.samples.append(float(value))
        self._sorted_cache = None

    def observe_many(self, values: Iterable[float]) -> None:
        """Bulk observe: one extend instead of a call per sample."""
        if isinstance(values, np.ndarray):
            self.samples.extend(values.tolist())
        else:
            self.samples.extend(float(v) for v in values)
        self._sorted_cache = None

    def _sorted(self) -> List[float]:
        """The samples in ascending order, cached until the next observe."""
        if self._sorted_cache is None or self._cache_len != len(self.samples):
            self._sorted_cache = sorted(self.samples)
            self._cache_len = len(self.samples)
        return self._sorted_cache

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    @property
    def total(self) -> float:
        return sum(self.samples)

    @property
    def minimum(self) -> float:
        if not self.samples:
            return 0.0
        ordered = self._sorted_cache
        if ordered is not None and self._cache_len == len(self.samples):
            return ordered[0]
        return min(self.samples)

    @property
    def maximum(self) -> float:
        if not self.samples:
            return 0.0
        ordered = self._sorted_cache
        if ordered is not None and self._cache_len == len(self.samples):
            return ordered[-1]
        return max(self.samples)

    @property
    def stddev(self) -> float:
        n = len(self.samples)
        if n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((x - mu) ** 2 for x in self.samples) / (n - 1))

    def percentile(self, q: float) -> float:
        """Exact percentile by linear interpolation; ``q`` in [0, 100]."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self.samples:
            return 0.0
        return _percentile_of(self._sorted(), q)

    def summary(self) -> Dict[str, float]:
        """Summary stats; the underlying samples are sorted at most once."""
        if not self.samples:
            return {
                "count": 0.0,
                "mean": 0.0,
                "min": 0.0,
                "p50": 0.0,
                "p95": 0.0,
                "max": 0.0,
            }
        ordered = self._sorted()
        return {
            "count": float(len(ordered)),
            # Insertion-order sum: summing the sorted list would round
            # differently and break byte-identical replay comparisons.
            "mean": sum(self.samples) / len(self.samples),
            "min": ordered[0],
            "p50": _percentile_of(ordered, 50),
            "p95": _percentile_of(ordered, 95),
            "max": ordered[-1],
        }


class SketchHistogram:
    """Bounded-memory quantile sketch, API-compatible with ``Histogram``.

    A merging sketch in the t-digest family: incoming values buffer in a
    small list and are periodically folded into a sorted run of
    ``(mean, weight)`` centroids, greedily merged under a per-centroid
    weight cap of ``count / compression``.  Memory is O(compression +
    buffer) *regardless of stream length* — the population-scale load
    workload streams millions of samples through these without growing.

    Accuracy contract (documented in EXPERIMENTS.md): ``count``,
    ``mean``, ``total``, ``minimum`` and ``maximum`` are **exact**;
    ``percentile(q)`` is approximate with rank error bounded by roughly
    ``1 / compression`` (≈0.5% at the default compression of 200, well
    inside the ±1% tolerance the scaling tests assert).  ``stddev`` is
    computed from exact running moments.

    The sketch is fully deterministic for a given observation order
    (plain float arithmetic, no randomisation), so registries backed by
    it still satisfy the byte-identical replay gate.
    """

    _BUFFER_LIMIT = 512

    def __init__(self, name: str, compression: int = 200):
        if compression < 20:
            raise ValueError(
                f"compression must be >= 20, got {compression}"
            )
        self.name = name
        self.compression = compression
        self._centroids: List[Tuple[float, float]] = []  # (mean, weight)
        self._buffer: List[float] = []
        self._count = 0
        self._total = 0.0
        self._sumsq = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self._buffer.append(value)
        self._count += 1
        self._total += value
        self._sumsq += value * value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if len(self._buffer) >= self._BUFFER_LIMIT:
            self._compress()

    def observe_many(self, values: Iterable[float]) -> None:
        """Bulk observe with C-speed aggregate arithmetic.

        Same exact-moment guarantees as repeated :meth:`observe`
        (count/total/min/max are computed over the identical values);
        the buffer is folded once after the extend, so compaction
        points — and therefore the approximate percentiles — can differ
        from one-at-a-time observation, but remain deterministic for a
        given batch sequence.  (Aggregate sums likewise use the batch's
        reduction order, which is deterministic for the same batches.)
        The windowed-telemetry flush path uses this to keep
        per-response ingest off the request path.
        """
        if isinstance(values, np.ndarray):
            if values.size == 0:
                return
            arr = values.astype(np.float64, copy=False)
            self._buffer.extend(arr.tolist())
            self._count += int(arr.size)
            self._total += float(arr.sum())
            self._sumsq += float(arr @ arr)
            low = float(arr.min())
            high = float(arr.max())
            if low < self._min:
                self._min = low
            if high > self._max:
                self._max = high
            if len(self._buffer) >= self._BUFFER_LIMIT:
                self._compress()
            return
        values = [float(v) for v in values]
        if not values:
            return
        self._buffer.extend(values)
        self._count += len(values)
        self._total += sum(values)
        self._sumsq += sum(v * v for v in values)
        low = min(values)
        high = max(values)
        if low < self._min:
            self._min = low
        if high > self._max:
            self._max = high
        if len(self._buffer) >= self._BUFFER_LIMIT:
            self._compress()

    def _compress(self) -> None:
        """Fold the buffer into the centroid run."""
        if not self._buffer:
            return
        incoming = [(value, 1.0) for value in sorted(self._buffer)]
        self._buffer.clear()
        merged = self._merge_sorted(self._centroids, incoming)
        cap = self._count / self.compression
        compacted: List[Tuple[float, float]] = []
        cur_mean, cur_weight = merged[0]
        for mean, weight in merged[1:]:
            if cur_weight + weight <= cap:
                cur_mean += (mean - cur_mean) * (weight / (cur_weight + weight))
                cur_weight += weight
            else:
                compacted.append((cur_mean, cur_weight))
                cur_mean, cur_weight = mean, weight
        compacted.append((cur_mean, cur_weight))
        self._centroids = compacted

    @staticmethod
    def _merge_sorted(
        a: List[Tuple[float, float]], b: List[Tuple[float, float]]
    ) -> List[Tuple[float, float]]:
        out: List[Tuple[float, float]] = []
        i = j = 0
        while i < len(a) and j < len(b):
            if a[i][0] <= b[j][0]:
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return out

    @property
    def centroid_count(self) -> int:
        """Resident centroids (the O(1)-memory claim, testable)."""
        return len(self._centroids)

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    @property
    def total(self) -> float:
        return self._total

    @property
    def minimum(self) -> float:
        return self._min if self._count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self._count else 0.0

    @property
    def stddev(self) -> float:
        n = self._count
        if n < 2:
            return 0.0
        mu = self._total / n
        var = (self._sumsq - n * mu * mu) / (n - 1)
        return math.sqrt(var) if var > 0 else 0.0

    def percentile(self, q: float) -> float:
        """Approximate percentile; ``q`` in [0, 100].

        Centroid midpoints are treated as known quantile anchors and
        interpolated between; the extremes pin to the exact min/max.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self._count:
            return 0.0
        self._compress()
        if q == 0:
            return self._min
        if q == 100:
            return self._max
        target = (q / 100.0) * self._count
        # Anchor ranks: min at 0, each centroid at its midpoint rank,
        # max at count.
        anchors: List[Tuple[float, float]] = [(0.0, self._min)]
        cumulative = 0.0
        for mean, weight in self._centroids:
            anchors.append((cumulative + weight / 2.0, mean))
            cumulative += weight
        anchors.append((float(self._count), self._max))
        for k in range(1, len(anchors)):
            rank_hi, value_hi = anchors[k]
            if target <= rank_hi:
                rank_lo, value_lo = anchors[k - 1]
                if rank_hi == rank_lo:
                    return value_hi
                frac = (target - rank_lo) / (rank_hi - rank_lo)
                return value_lo + (value_hi - value_lo) * frac
        return self._max

    def summary(self) -> Dict[str, float]:
        """Same keys as ``Histogram.summary`` (count/mean/min/p50/p95/max)."""
        if not self._count:
            return {
                "count": 0.0,
                "mean": 0.0,
                "min": 0.0,
                "p50": 0.0,
                "p95": 0.0,
                "max": 0.0,
            }
        return {
            "count": float(self._count),
            "mean": self._total / self._count,
            "min": self._min,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "max": self._max,
        }


#: Histogram backends selectable per registry.
_HISTOGRAM_BACKENDS = ("exact", "sketch")


class MetricsRegistry:
    """Namespace of counters, gauges, and histograms.

    Metric names are hierarchical by convention (``"moderation.removed"``).
    Accessors create metrics on first use so instrumented code does not
    need registration boilerplate.

    ``histogram_backend`` selects how histograms store samples:
    ``"exact"`` (default) keeps every sample; ``"sketch"`` uses the
    bounded-memory :class:`SketchHistogram` for population-scale runs.
    """

    def __init__(self, histogram_backend: str = "exact") -> None:
        if histogram_backend not in _HISTOGRAM_BACKENDS:
            raise ValueError(
                f"histogram_backend must be one of {_HISTOGRAM_BACKENDS}, "
                f"got {histogram_backend!r}"
            )
        self.histogram_backend = histogram_backend
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, object] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str):
        if name not in self._histograms:
            if self.histogram_backend == "sketch":
                self._histograms[name] = SketchHistogram(name)
            else:
                self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def peek_histogram(self, name: str):
        """The named histogram, or None — without creating it (reporting
        code must not grow the registry it is summarising)."""
        return self._histograms.get(name)

    def counters(self) -> Mapping[str, float]:
        return {name: c.value for name, c in sorted(self._counters.items())}

    def gauges(self) -> Mapping[str, float]:
        return {name: g.value for name, g in sorted(self._gauges.items())}

    def histograms(self) -> Mapping[str, Dict[str, float]]:
        return {name: h.summary() for name, h in sorted(self._histograms.items())}

    def as_dict(self) -> Dict[str, object]:
        """Flatten everything into one JSON-friendly dict."""
        return {
            "counters": dict(self.counters()),
            "gauges": dict(self.gauges()),
            "histograms": {k: dict(v) for k, v in self.histograms().items()},
        }

    def render(self) -> str:
        """Render a plain-text summary table (used by example scripts)."""
        lines: List[str] = []
        if self._counters:
            lines.append("counters:")
            for name, value in self.counters().items():
                lines.append(f"  {name:<40s} {value:>12g}")
        if self._gauges:
            lines.append("gauges:")
            for name, value in self.gauges().items():
                lines.append(f"  {name:<40s} {value:>12g}")
        if self._histograms:
            lines.append("histograms:")
            for name, summ in self.histograms().items():
                rendered = ", ".join(f"{k}={v:g}" for k, v in summ.items())
                lines.append(f"  {name:<40s} {rendered}")
        return "\n".join(lines)

    def reset(self) -> None:
        """Drop all metrics (used between benchmark repetitions)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
