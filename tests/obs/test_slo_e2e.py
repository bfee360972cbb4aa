"""End-to-end SLO/alerting: a seeded flash crowd through the full
serving stack with tracing, windowed telemetry, and burn-rate alerts.

The availability alert fires inside the spike and clears after it, and
sampled traces attribute >=95% of latency.  The ``serving-slo`` row of
``tests/integration/test_determinism.py`` pins the same scenario's
exports to committed digests.
"""

import pytest

from repro.obs.exporters import load_trace_jsonl, request_breakdowns
from repro.serving.run import run_serving
from tests.flash_crowd import AVAILABILITY, FLASH_CROWD_SLO, SPIKE


@pytest.fixture(scope="module")
def result():
    return run_serving(**FLASH_CROWD_SLO)


class TestAlertTimeline:
    def test_alert_fires_inside_spike(self, result):
        fires = [
            a for a in result.slo_report.alerts_for(AVAILABILITY.name)
            if a.state == "fire"
        ]
        assert fires, "flash crowd fired no burn-rate alert"
        assert any(SPIKE.start <= a.time <= SPIKE.end + 1.0 for a in fires)

    def test_alert_clears_after_spike(self, result):
        alerts = result.slo_report.alerts_for(AVAILABILITY.name)
        clears = [a for a in alerts if a.state == "clear"]
        fires = [a for a in alerts if a.state == "fire"]
        assert clears and clears[-1].time > fires[0].time
        assert clears[-1].time <= result.horizon + 10.0

    def test_availability_burned_during_spike(self, result):
        budget = result.slo_report.budgets[AVAILABILITY.name]
        assert budget["bad"] > 0
        assert budget["budget_consumed"] > 1.0  # the spike overspends


class TestSampledTraces:
    def test_coverage_meets_floor(self, result):
        breakdowns = request_breakdowns(
            load_trace_jsonl(result.trace_jsonl)
        )
        assert breakdowns
        # Named stages cover nearly all of every sampled request's latency.
        assert min(r["coverage"] for r in breakdowns) >= 0.95

    def test_tail_rules_kept_spike_sheds(self, result):
        stats = result.sampling_stats
        assert stats["kept_head"] > 0
        assert stats["kept_status"] > 0  # 429s from the spike
        assert stats["kept"] == (
            stats["kept_head"] + stats["kept_status"] + stats["kept_tail"]
        )

