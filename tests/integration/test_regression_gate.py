"""The observability-overhead gate's attempt rule, on scripted readings.

``benchmarks/regression.py`` takes the best of up to three readings
against its threshold; a test can pin that rule and what each attempt
reports, though not the timings themselves.
"""

from benchmarks.regression import OBS_OVERHEAD_THRESHOLD, best_obs_overhead


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
