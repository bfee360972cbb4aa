"""Tests for the SLO engine: spec validation, budget accounting, and
the multi-window burn-rate alert timeline."""

import json
import math

import pytest

from repro.obs.slo import (
    DEFAULT_SLOS,
    SLOEngine,
    SLOSpec,
    thresholds_for,
)
from repro.obs.timeseries import WindowedTelemetry


def _availability_spec(**overrides):
    spec = dict(
        name="avail",
        sli="availability",
        target=0.9,
        short_windows=1,
        long_windows=1,
        burn_factor=2.0,
    )
    spec.update(overrides)
    return SLOSpec(**spec)


def _fill_window(telemetry, index, ok, shed=0, latency_ms=5.0):
    """``ok`` 200s plus ``shed`` 429s completing inside window ``index``."""
    start = index * telemetry.window
    for i in range(ok):
        telemetry.record_response(
            "ep", 200, start, start + latency_ms / 1e3
        )
    for i in range(shed):
        telemetry.record_response("ep", 429, start, start)


class TestSLOSpecValidation:
    def test_unknown_sli_rejected(self):
        with pytest.raises(ValueError, match="sli"):
            SLOSpec(name="x", sli="saturation", target=0.9)

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.5, 1.5])
    def test_target_outside_open_interval_rejected(self, target):
        with pytest.raises(ValueError, match="target"):
            SLOSpec(name="x", sli="availability", target=target)

    def test_latency_sli_requires_threshold(self):
        with pytest.raises(ValueError, match="threshold_ms"):
            SLOSpec(name="x", sli="latency", target=0.9)

    def test_availability_sli_forbids_threshold(self):
        with pytest.raises(ValueError, match="threshold_ms"):
            SLOSpec(
                name="x", sli="availability", target=0.9, threshold_ms=40.0
            )

    def test_window_ordering_enforced(self):
        with pytest.raises(ValueError, match="short_windows"):
            SLOSpec(
                name="x", sli="availability", target=0.9,
                short_windows=5, long_windows=2,
            )

    # Each was accepted: no latency exceeds a NaN threshold, so its SLO
    # never fired, and a window count must be an integer.
    @pytest.mark.parametrize("field, value", [
        ("threshold_ms", math.nan),
        ("threshold_ms", math.inf),
        ("short_windows", 2.5),
        ("short_windows", 2.0),
        ("short_windows", True),
        ("long_windows", 10.5),
        ("long_windows", 10.0),
    ])
    def test_rejected_at_construction(self, field, value):
        spec = dict(
            name="x", sli="latency", target=0.9, threshold_ms=40.0,
            short_windows=2, long_windows=10,
        )
        with pytest.raises(ValueError, match=field):
            SLOSpec(**{**spec, field: value})

    @pytest.mark.parametrize("factor", [0.0, -1.0, float("inf")])
    def test_burn_factor_positive_finite(self, factor):
        with pytest.raises(ValueError, match="burn_factor"):
            SLOSpec(
                name="x", sli="availability", target=0.9, burn_factor=factor
            )

    def test_budget_fraction(self):
        assert _availability_spec(target=0.99).budget_fraction == \
            pytest.approx(0.01)

    def test_thresholds_for_dedupes_and_sorts(self):
        specs = (
            SLOSpec(name="a", sli="latency", target=0.9, threshold_ms=40.0),
            SLOSpec(name="b", sli="latency", target=0.95, threshold_ms=10.0),
            SLOSpec(name="c", sli="latency", target=0.99, threshold_ms=40.0),
            _availability_spec(),
        )
        assert thresholds_for(specs) == (10.0, 40.0)

    def test_default_slos_valid_and_threshold_declared(self):
        assert thresholds_for(DEFAULT_SLOS) == (40.0,)


class TestEngineValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SLOEngine([_availability_spec(), _availability_spec()])

    def test_missing_telemetry_threshold_rejected(self):
        spec = SLOSpec(
            name="lat", sli="latency", target=0.9, threshold_ms=40.0
        )
        telemetry = WindowedTelemetry(latency_thresholds_ms=())  # not 40.0
        _fill_window(telemetry, 0, ok=5)
        with pytest.raises(ValueError, match="does not count threshold"):
            SLOEngine([spec]).evaluate(telemetry)


class TestBudgets:
    def test_availability_budget_accounting(self):
        telemetry = WindowedTelemetry(window=1.0)
        _fill_window(telemetry, 0, ok=90, shed=10)
        report = SLOEngine([_availability_spec(target=0.8)]).evaluate(telemetry)
        budget = report.budgets["avail"]
        assert budget["total"] == 100.0
        assert budget["bad"] == 10.0
        assert budget["good_fraction"] == pytest.approx(0.9)
        # budget = 20 events; 10 consumed -> half spent, SLO met.
        assert budget["budget_events"] == pytest.approx(20.0)
        assert budget["budget_consumed"] == pytest.approx(0.5)
        assert report.met("avail")

    def test_latency_budget_counts_threshold_exceedances(self):
        spec = SLOSpec(
            name="lat", sli="latency", target=0.5, threshold_ms=20.0
        )
        telemetry = WindowedTelemetry(
            window=1.0, latency_thresholds_ms=thresholds_for([spec])
        )
        _fill_window(telemetry, 0, ok=4, latency_ms=5.0)
        _fill_window(telemetry, 0, ok=6, latency_ms=50.0)
        budget = SLOEngine([spec]).evaluate(telemetry).budgets["lat"]
        assert budget["total"] == 10.0
        assert budget["bad"] == 6.0
        assert not SLOEngine([spec]).evaluate(telemetry).met("lat")

    def test_empty_run_meets_everything(self):
        report = SLOEngine([_availability_spec()]).evaluate(WindowedTelemetry())
        assert report.budgets["avail"]["good_fraction"] == 1.0
        assert report.alerts == []


class TestBurnRateAlerts:
    def _telemetry_with_spike(self):
        # target 0.9 -> budget 0.1; burn_factor 2 pages at bad >= 20%.
        # Windows 0-1 healthy, 2-3 at 50% shed (burn 5.0), 4-5 healthy.
        telemetry = WindowedTelemetry(window=1.0)
        for w in (0, 1):
            _fill_window(telemetry, w, ok=10)
        for w in (2, 3):
            _fill_window(telemetry, w, ok=5, shed=5)
        for w in (4, 5):
            _fill_window(telemetry, w, ok=10)
        return telemetry

    def test_fires_in_spike_and_clears_after(self):
        report = SLOEngine([_availability_spec()]).evaluate(
            self._telemetry_with_spike()
        )
        alerts = report.alerts_for("avail")
        assert [a.state for a in alerts] == ["fire", "clear"]
        fire, clear = alerts
        assert fire.window_index == 2 and fire.time == 3.0
        assert clear.window_index == 4 and clear.time == 5.0
        assert fire.burn_short == pytest.approx(5.0)
        assert clear.burn_short < 2.0

    def test_long_window_suppresses_short_blips(self):
        # One bad window out of four: the 4-window long horizon dilutes
        # the burn below the factor, so the sustained-burn alert never
        # fires even though the short window spikes.
        telemetry = WindowedTelemetry(window=1.0)
        for w in (0, 1, 2):
            _fill_window(telemetry, w, ok=30)
        _fill_window(telemetry, 3, ok=5, shed=5)
        spec = _availability_spec(short_windows=1, long_windows=4)
        report = SLOEngine([spec]).evaluate(telemetry)
        assert report.alerts_for("avail") == []

    def test_alert_timeline_sorted_and_serialisable(self):
        report = SLOEngine([_availability_spec()]).evaluate(
            self._telemetry_with_spike()
        )
        times = [a.time for a in report.alerts]
        assert times == sorted(times)
        parsed = json.loads(report.to_json())
        assert parsed["window_s"] == 1.0
        assert [a["state"] for a in parsed["alerts"]] == ["fire", "clear"]

    def test_report_json_deterministic(self):
        engine = SLOEngine([_availability_spec()])
        first = engine.evaluate(self._telemetry_with_spike()).to_json()
        second = engine.evaluate(self._telemetry_with_spike()).to_json()
        assert first == second
