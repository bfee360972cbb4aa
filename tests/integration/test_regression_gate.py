"""The regression gates' rules, on hand-built entries and scripted readings.

``benchmarks/regression.py`` times its kernels and the observability
overhead, which a test cannot pin.  It can pin what the gates do with
the timings: every tracked kernel is compared with a committed baseline
entry at the full or the smoke threshold, a baseline recorded on another
host is named field by field, and the overhead gate takes the best of up
to three readings and reports each attempt.
"""

import json
import math

import pytest

from benchmarks import regression
from benchmarks.regression import (
    BASELINE_PATH,
    GATE_THRESHOLD,
    OBS_OVERHEAD_THRESHOLD,
    SMOKE_GATE_THRESHOLD,
    TRACKED_OPS,
    best_obs_overhead,
    compare,
    fingerprint_mismatches,
)

HOST = {
    "cpu_model": "cpu A",
    "cpu_count": 2,
    "python_version": "3.11.7",
    "platform": "Linux",
}


def test_every_tracked_kernel_has_a_baseline_entry():
    # compare() skips an op the baseline does not name, so a kernel
    # added without an entry would never be gated.
    baseline = json.loads(BASELINE_PATH.read_text())["ops"]
    assert sorted(TRACKED_OPS) == sorted(baseline)


def test_baseline_entries_hold_only_what_the_runner_writes(monkeypatch):
    # Fields the runner no longer writes (the per-kernel RSS readings)
    # must not linger in the committed baseline.
    monkeypatch.setattr(regression, "TRACKED_OPS", {"k": lambda: (10, 0.5)})
    fields = set(regression.run_tracked_ops(reps=1)["k"])
    baseline = json.loads(BASELINE_PATH.read_text())["ops"]
    assert {name: set(entry) for name, entry in baseline.items()} == {
        name: fields for name in baseline
    }


@pytest.mark.parametrize(
    "threshold, factor",
    [(GATE_THRESHOLD, 1.25), (SMOKE_GATE_THRESHOLD, 3.0)],
    ids=["full", "smoke"],
)
def test_kernel_gate_flags_only_ops_over_the_threshold(threshold, factor):
    base = 3.7e-6
    limit = base * factor
    baseline = {"at": {"seconds_per_op": base}, "over": {"seconds_per_op": base}}
    current = {
        "at": {"seconds_per_op": limit},
        "over": {"seconds_per_op": math.nextafter(limit, math.inf)},
    }
    comparison, regressions = compare(current, baseline, threshold)
    assert regressions == ["over"]
    assert not comparison["at"]["regressed"]
    assert comparison["over"]["regressed"]


def test_same_host_has_no_fingerprint_mismatch():
    assert fingerprint_mismatches(dict(HOST), HOST) == []


def test_each_differing_host_field_is_named():
    current = dict(HOST, cpu_count=4, python_version="3.12.0")
    assert fingerprint_mismatches(HOST, current) == [
        "cpu_count: baseline=2 current=4",
        "python_version: baseline='3.11.7' current='3.12.0'",
    ]


def test_baseline_without_a_fingerprint_is_one_mismatch():
    (mismatch,) = fingerprint_mismatches(None, HOST)
    assert "no host fingerprint" in mismatch


def _scripted(ratios):
    readings = iter(ratios)

    def measure():
        ratio = next(readings)
        return {
            "overhead_ratio": ratio,
            "within_budget": ratio <= OBS_OVERHEAD_THRESHOLD,
        }

    return measure


def test_every_attempt_is_printed_and_kept(capsys):
    best = best_obs_overhead(_scripted([1.15, 1.12, 1.13]))
    assert best["overhead_ratio"] == 1.12
    assert not best["within_budget"]
    assert [a["overhead_ratio"] for a in best["attempts"]] == [1.15, 1.12, 1.13]
    out = capsys.readouterr().out
    for attempt, ratio in ((1, "1.150"), (2, "1.120"), (3, "1.130")):
        assert f"attempt {attempt}: {ratio}x over budget" in out


def test_a_reading_within_budget_ends_the_gate(capsys):
    best = best_obs_overhead(_scripted([1.15, 1.05, 1.0]))
    assert best["within_budget"]
    assert best["overhead_ratio"] == 1.05
    assert [a["overhead_ratio"] for a in best["attempts"]] == [1.15, 1.05]
    assert "attempt 2: 1.050x within budget" in capsys.readouterr().out
