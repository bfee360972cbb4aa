"""The serving bench's rules, on hand-built points and a scripted tier.

``benchmarks/serving.py`` times nothing a test could pin: each rate
point is a full seeded serving run, and the golden-digest matrix pins
those byte for byte.  What a test can pin is what the bench does with
the points: the knee predicate's two thresholds, that the knee is the
first saturated sweep point, that a sweep runs each rate point once,
and that bisection keeps the knee bracketed.
"""

import json
import math

import pytest

from benchmarks import serving
from benchmarks.serving import (
    BISECT_TOL,
    KNEE_P99_FACTOR,
    KNEE_SHED_RATE,
    N_USERS,
    SMOKE_RATES,
    SWEEP_RATES,
    _is_saturated,
    find_knee,
)

REFERENCE_P99 = 2.0


def point(rate, *, p99_ms=REFERENCE_P99, shed_rate=0.0):
    offered_rps = rate * N_USERS
    return {
        "rate_per_user": rate,
        "offered_rps": offered_rps,
        "goodput_rps": offered_rps * (1.0 - shed_rate),
        "p50_ms": REFERENCE_P99 / 2,
        "p99_ms": p99_ms,
        "shed_rate": shed_rate,
    }


def scripted_tier(knee_rate, calls):
    """A tier that sheds a fifth of its load from ``knee_rate`` on."""

    def run_point(rate):
        calls.append(rate)
        return point(rate, shed_rate=0.2 if rate >= knee_rate else 0.0)

    return run_point


@pytest.mark.parametrize(
    "p99_ms, shed_rate, saturated",
    [
        (REFERENCE_P99, KNEE_SHED_RATE, False),
        (REFERENCE_P99, math.nextafter(KNEE_SHED_RATE, math.inf), True),
        (KNEE_P99_FACTOR * REFERENCE_P99, 0.0, False),
        (math.nextafter(KNEE_P99_FACTOR * REFERENCE_P99, math.inf), 0.0, True),
    ],
    ids=["shed-at-limit", "shed-over", "p99-at-limit", "p99-over"],
)
def test_knee_predicate_saturates_only_past_a_threshold(
    p99_ms, shed_rate, saturated
):
    probe = point(1.0, p99_ms=p99_ms, shed_rate=shed_rate)
    assert _is_saturated(probe, REFERENCE_P99) == saturated


def test_zero_reference_p99_leaves_only_the_shed_rule():
    # A lightest point with no latency cannot scale a p99 limit.
    assert not _is_saturated(point(1.0, p99_ms=1e6), 0.0)
    assert _is_saturated(point(1.0, p99_ms=0.0, shed_rate=0.5), 0.0)


def test_knee_is_the_first_saturated_point():
    points = [
        point(0.5),
        point(1.0, p99_ms=3 * REFERENCE_P99),
        point(2.0, shed_rate=0.02),
        point(3.5, p99_ms=50 * REFERENCE_P99, shed_rate=0.3),
    ]
    assert find_knee(points) == {
        "rate_per_user": 2.0,
        "offered_rps": 2.0 * N_USERS,
        "reference_p99_ms": REFERENCE_P99,
        "knee_p99_ms": REFERENCE_P99,
        "knee_shed_rate": 0.02,
    }


def test_no_knee_while_every_point_keeps_up():
    assert find_knee([point(0.5), point(1.0, p99_ms=4 * REFERENCE_P99)]) is None


@pytest.mark.parametrize(
    "argv, rates", [(["--smoke"], SMOKE_RATES), ([], SWEEP_RATES)],
    ids=["smoke", "full"],
)
def test_sweep_runs_each_rate_point_once(monkeypatch, tmp_path, argv, rates):
    calls = []
    monkeypatch.setattr(serving, "_run_point", scripted_tier(2.0, calls))
    report_path = tmp_path / "serving.json"
    assert serving.main([*argv, "--output", str(report_path)]) == 0
    assert calls == list(rates)
    report = json.loads(report_path.read_text())
    assert [p["rate_per_user"] for p in report["points"]] == list(rates)
    knee = report["saturation_knee"]
    assert knee["rate_per_user"] == min(r for r in rates if r >= 2.0)


def test_bisection_brackets_the_knee_within_tolerance(monkeypatch):
    knee_rate = 2.7
    calls = []
    monkeypatch.setattr(serving, "_run_point", scripted_tier(knee_rate, calls))
    knee = serving.bisect_knee()
    lo, hi = knee["bracket"]
    assert lo < knee_rate <= hi
    assert hi - lo <= BISECT_TOL
    assert knee["knee_rate_per_user"] == hi
    # The two bracket ends, then one run per halving: no rate runs twice.
    assert len(calls) == 2 + knee["iterations"] == len(set(calls))
    assert [p["saturated"] for p in knee["probes"]] == [
        p["rate_per_user"] >= knee_rate for p in knee["probes"]
    ]


@pytest.mark.parametrize(
    "lo, hi, message",
    [(3.0, 5.0, "already saturated"), (0.5, 2.0, "never saturates")],
    ids=["lo-saturated", "hi-unsaturated"],
)
def test_bisection_refuses_a_bracket_without_the_knee(
    monkeypatch, lo, hi, message
):
    monkeypatch.setattr(serving, "_run_point", scripted_tier(2.7, []))
    with pytest.raises(AssertionError, match=message):
        serving.bisect_knee(lo, hi)
