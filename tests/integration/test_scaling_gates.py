"""The scaling suite's gate verdicts, on hand-built reports.

``benchmarks/scaling.py`` times its tiers, which a test cannot pin; it
can pin the verdict each gate gives on a report, so that no threshold
or skip rule moves unnoticed.
"""

import pytest

from benchmarks.scaling import RATIO_BENCHES, check_gates


def _ratios(**speedups):
    return {
        name: {"speedup_vs_naive": speedups.get(name, 100.0)}
        for name in RATIO_BENCHES
    }


def _parallel(speedup, enforced):
    return {
        "n_agents": 100_000,
        "usable_cores": 4 if enforced else 2,
        "gate_enforced": enforced,
        "workers": {
            "1": {"seconds": 1.0, "speedup_vs_serial": 1.0},
            "2": {"seconds": 1.0, "speedup_vs_serial": 1.0},
            "4": {"seconds": 1.0 / speedup, "speedup_vs_serial": speedup},
        },
    }


def _balance(imbalance, enforced):
    return {
        "n_agents": 100_000 if enforced else 10_000,
        "epoch_imbalance": imbalance,
        "final_epoch_imbalance": imbalance,
        "gate_enforced": enforced,
    }


@pytest.mark.parametrize("name", sorted(RATIO_BENCHES))
def test_ratio_gate_needs_three_times_the_naive_reference(name):
    assert check_gates({"ratios": _ratios(**{name: 3.0})}) == []
    (failure,) = check_gates({"ratios": _ratios(**{name: 2.99})})
    assert failure.startswith(f"{name} at 10000 agents")


def test_four_worker_speedup_gated_only_where_enforced():
    assert check_gates({"parallel": _parallel(1.9, enforced=False)}) == []
    assert check_gates({"parallel": _parallel(2.0, enforced=True)}) == []
    (failure,) = check_gates({"parallel": _parallel(1.9, enforced=True)})
    assert failure.startswith("workers=4 at 100000 agents")


def test_shard_imbalance_gated_only_where_enforced():
    assert check_gates({"balance": _balance(1.26, enforced=False)}) == []
    assert check_gates({"balance": _balance(1.25, enforced=True)}) == []
    (failure,) = check_gates({"balance": _balance(1.26, enforced=True)})
    assert failure.startswith("shard imbalance at 100000 agents")


def test_smoke_report_without_parallel_sections_passes():
    report = {
        "suite": "benchmarks/scaling.py",
        "seed": 2022,
        "smoke": True,
        "ratios": _ratios(),
    }
    assert check_gates(report) == []
