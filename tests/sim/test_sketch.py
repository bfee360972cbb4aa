"""The bounded quantile sketch: accuracy, memory, determinism, wiring."""

import bisect
import math
import random

import pytest

from repro.sim.metrics import Histogram, MetricsRegistry, SketchHistogram


class TestSketchAccuracy:
    def test_million_sample_stream_within_tolerance(self):
        # The documented contract: exact count/mean/min/max, percentiles
        # within ~1% rank error, memory bounded — on a >= 1M stream.
        n = 1_000_000
        rng = random.Random(2022)
        sketch = SketchHistogram("stream")
        values = []
        for _ in range(n):
            v = rng.lognormvariate(0.0, 1.0)
            sketch.observe(v)
            values.append(v)
        values.sort()

        assert sketch.count == n
        assert sketch.minimum == values[0]
        assert sketch.maximum == values[-1]
        assert sketch.mean == pytest.approx(sum(values) / n, rel=1e-9)

        for q in (1, 5, 25, 50, 75, 90, 95, 99):
            approx = sketch.percentile(q)
            rank = bisect.bisect_left(values, approx) / n
            assert abs(rank - q / 100.0) < 0.01, f"p{q} rank error too large"

    def test_memory_is_bounded(self):
        sketch = SketchHistogram("bounded")
        rng = random.Random(1)
        checkpoints = []
        for i in range(1, 400_001):
            sketch.observe(rng.random())
            if i % 100_000 == 0:
                sketch._compress()
                checkpoints.append(sketch.centroid_count)
        # O(1): the resident-centroid count does not grow with the
        # stream; it stays within a small multiple of the compression.
        assert max(checkpoints) <= 2 * sketch.compression
        assert checkpoints[-1] <= checkpoints[0] * 2
        assert len(sketch._buffer) < SketchHistogram._BUFFER_LIMIT

    def test_deterministic_for_identical_streams(self):
        def build():
            rng = random.Random(99)
            sketch = SketchHistogram("det")
            for _ in range(50_000):
                sketch.observe(rng.gauss(10.0, 3.0))
            return sketch

        a, b = build(), build()
        assert a.summary() == b.summary()
        assert [a.percentile(q) for q in range(0, 101, 5)] == [
            b.percentile(q) for q in range(0, 101, 5)
        ]


class TestSketchApi:
    def test_summary_keys_match_exact_histogram(self):
        sketch = SketchHistogram("keys")
        exact = Histogram("keys")
        for v in (1.0, 2.0, 3.0):
            sketch.observe(v)
            exact.observe(v)
        assert set(sketch.summary()) == set(exact.summary())

    def test_small_streams_are_exact_enough(self):
        # Below the buffer limit nothing is ever merged, so quantiles
        # interpolate over the raw values.
        sketch = SketchHistogram("small")
        for v in range(1, 101):
            sketch.observe(float(v))
        assert sketch.percentile(0) == 1.0
        assert sketch.percentile(100) == 100.0
        assert abs(sketch.percentile(50) - 50.5) <= 1.0

    def test_empty_and_validation(self):
        sketch = SketchHistogram("empty")
        assert sketch.summary() == {
            "count": 0.0, "mean": 0.0, "min": 0.0,
            "p50": 0.0, "p95": 0.0, "max": 0.0,
        }
        assert sketch.percentile(50) == 0.0
        assert sketch.stddev == 0.0
        with pytest.raises(ValueError):
            sketch.percentile(101)
        with pytest.raises(ValueError):
            SketchHistogram("bad", compression=5)

    def test_stddev_from_running_moments(self):
        sketch = SketchHistogram("sd")
        exact = Histogram("sd")
        rng = random.Random(5)
        for _ in range(10_000):
            v = rng.gauss(0.0, 2.0)
            sketch.observe(v)
            exact.observe(v)
        assert sketch.stddev == pytest.approx(exact.stddev, rel=1e-6)


class TestBackendWiring:
    def test_registry_backend_switch(self):
        exact_reg = MetricsRegistry()
        sketch_reg = MetricsRegistry(histogram_backend="sketch")
        assert isinstance(exact_reg.histogram("h"), Histogram)
        assert isinstance(sketch_reg.histogram("h"), SketchHistogram)
        with pytest.raises(ValueError):
            MetricsRegistry(histogram_backend="reservoir")

    def test_registry_summaries_flow_through(self):
        registry = MetricsRegistry(histogram_backend="sketch")
        for v in (1.0, 2.0, 3.0, 4.0):
            registry.histogram("lat").observe(v)
        summary = registry.histograms()["lat"]
        assert summary["count"] == 4.0
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert "lat" in registry.render()
