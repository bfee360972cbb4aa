"""Tests for the exporters: JSONL traces, Prometheus text, transparency
report, hot-handler report."""

import json
from fractions import Fraction

import pytest

from repro.obs import (
    Instrumentation,
    hot_handlers_report,
    latency_report,
    prometheus_text,
    transparency_report,
)
from repro.obs.exporters import trace_to_jsonl
from repro.sim import MetricsRegistry, Simulator, TraceLog


@pytest.fixture
def obs():
    return Instrumentation(
        trace=TraceLog(), metrics=MetricsRegistry(), run_id="t"
    )


class TestTraceJsonl:
    """The export against one ``json.dumps`` call per record."""

    @staticmethod
    def _reference(trace):
        lines = [
            json.dumps(
                {"time": r.time, "source": r.source, "kind": r.kind,
                 "payload": r.payload},
                sort_keys=True, default=str,
            )
            for r in trace
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def test_equals_per_record_dumps(self):
        trace = TraceLog()
        trace.emit(0.5, "serving", "request.served", status=200, cached=False,
                   endpoint="get_tally", arrived=0.25)
        # Keys out of order, nested, and a value JSON cannot encode.
        trace.emit(1.0, "ledger", "block", zeta=1, alpha={"b": 2, "a": [1.5]},
                   share=Fraction(1, 3))
        # Non-ASCII text in the source, the kind and the payload.
        trace.emit(2.0, "privacy.pipeline", "frame.bloqué", subject="Zoë",
                   note="€ — ✓", nan=float("nan"), inf=float("inf"))
        trace.emit(3.0, "empty", "payload")
        text = trace_to_jsonl(trace)
        assert text == self._reference(trace)
        assert '"share": "1/3"' in text
        assert "\\u20ac" in text  # ASCII-escaped, as json.dumps does

    def test_empty_trace(self):
        assert trace_to_jsonl(TraceLog()) == "" == self._reference([])


class TestPrometheusText:
    def test_counter_rendered_as_total(self, obs):
        obs.counter("ledger.blocks").inc(3)
        text = prometheus_text(obs.metrics)
        assert 'repro_ledger_blocks_total 3' in text

    def test_gauge_rendered(self, obs):
        obs.gauge("pool.depth").set(17)
        assert "repro_pool_depth 17" in prometheus_text(obs.metrics)

    def test_histogram_quantiles_and_count(self, obs):
        hist = obs.histogram("lat")
        for v in range(100):
            hist.observe(float(v))
        text = prometheus_text(obs.metrics)
        assert "repro_lat_count 100" in text
        assert 'quantile="0.5"' in text
        assert 'quantile="0.95"' in text

    def test_type_lines_present(self, obs):
        obs.counter("a").inc()
        text = prometheus_text(obs.metrics)
        assert "# TYPE repro_a_total counter" in text

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()).strip() == ""


class TestTransparencyReport:
    def test_one_row_per_module(self, obs):
        with obs.span("ledger.chain", "block.produce", time=0.0):
            pass
        obs.event("moderation", "case.opened", time=1.0, case_id="c-0")
        table = transparency_report(obs.trace, obs.metrics)
        modules = [row["module"] for row in table.rows]
        assert "ledger.chain" in modules
        assert "moderation" in modules

    def test_span_and_error_counts(self, obs):
        with obs.span("m", "ok", time=0.0):
            pass
        with pytest.raises(RuntimeError):
            with obs.span("m", "bad", time=0.0):
                raise RuntimeError("x")
        (row,) = [r for r in transparency_report(obs.trace).rows if r["module"] == "m"]
        assert row["spans"] == 2
        assert row["error_spans"] == 1

    def test_counter_totals_grouped_by_prefix(self, obs):
        obs.event("ledger.mempool", "tx.admitted", time=0.0)
        obs.counter("ledger.mempool.admitted").inc(5)
        (row,) = [
            r
            for r in transparency_report(obs.trace, obs.metrics).rows
            if r["module"] == "ledger.mempool"
        ]
        assert row["counter_total"] == 5

    def test_renders_without_error(self, obs):
        obs.event("m", "k", time=0.0)
        assert "module" in transparency_report(obs.trace).render()


class TestHotHandlersReport:
    def test_profiled_handlers_reported(self):
        sim = Simulator(profile=True)
        for i in range(5):
            sim.schedule(float(i), lambda: None, name="noop")
        sim.run_all()
        table = hot_handlers_report(sim, top_n=3)
        (row,) = table.rows
        assert row["handler"] == "noop"
        assert row["calls"] == 5

    def test_unprofiled_sim_gives_empty_report(self):
        sim = Simulator()
        sim.schedule(0.0, lambda: None, name="noop")
        sim.run_all()
        assert hot_handlers_report(sim).rows == []


class TestLatencyReport:
    def test_one_row_per_endpoint_under_prefix(self):
        metrics = MetricsRegistry()
        for value in (1.0, 2.0, 3.0):
            metrics.histogram("serving.latency_ms.submit_tx").observe(value)
        metrics.histogram("serving.latency_ms.get_balance").observe(5.0)
        metrics.histogram("serving.queue_wait_ms.submit_tx").observe(9.0)
        table = latency_report(metrics)
        assert [row["endpoint"] for row in table.rows] == [
            "get_balance", "submit_tx",
        ]
        (tx_row,) = [r for r in table.rows if r["endpoint"] == "submit_tx"]
        assert tx_row["count"] == 3
        assert tx_row["max_ms"] == 3.0

    def test_report_does_not_grow_the_registry(self):
        metrics = MetricsRegistry()
        metrics.histogram("serving.latency_ms.cast_vote").observe(1.0)
        before = set(metrics.histograms())
        assert latency_report(metrics).rows != []
        assert set(metrics.histograms()) == before

    def test_empty_registry_gives_empty_report(self):
        assert latency_report(MetricsRegistry()).rows == []


class TestLabelEscaping:
    def test_backslash_quote_newline_escaped(self):
        from repro.obs import escape_label_value

        assert escape_label_value('a\\b') == 'a\\\\b'
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value('a\nb') == 'a\\nb'
        assert escape_label_value(42) == "42"

    def test_prometheus_text_escapes_label_values(self, obs):
        obs.counter("c").inc()
        text = prometheus_text(obs.metrics, labels={"run": 'r"1\\x\n'})
        assert '{run="r\\"1\\\\x\\n"}' in text

    def test_quantile_labels_merge_with_base_labels(self, obs):
        obs.histogram("lat").observe(1.0)
        text = prometheus_text(obs.metrics, labels={"run": "s"})
        assert '{quantile="0.5",run="s"}' in text
        assert 'repro_lat_count{run="s"}' in text


class TestLatencyReportEdgeCases:
    def test_empty_histogram_skipped(self):
        metrics = MetricsRegistry()
        metrics.histogram("serving.latency_ms.idle")  # created, never observed
        metrics.histogram("serving.latency_ms.busy").observe(2.0)
        assert [r["endpoint"] for r in latency_report(metrics).rows] == ["busy"]

    def test_exact_prefix_name_not_matched(self):
        # A histogram named exactly the prefix (no ".endpoint") is not a
        # per-endpoint series and must not produce an empty-name row.
        metrics = MetricsRegistry()
        metrics.histogram("serving.latency_ms").observe(1.0)
        assert latency_report(metrics).rows == []

    def test_custom_prefix(self):
        metrics = MetricsRegistry()
        metrics.histogram("serving.queue_wait_ms.submit_tx").observe(4.0)
        table = latency_report(metrics, prefix="serving.queue_wait_ms")
        assert [r["endpoint"] for r in table.rows] == ["submit_tx"]

    def test_peek_histogram_never_creates(self):
        metrics = MetricsRegistry()
        assert metrics.peek_histogram("absent") is None
        assert "absent" not in metrics.histograms()
