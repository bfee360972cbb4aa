"""Serving-tier latency/saturation bench.

Sweeps open-loop offered load over a fixed serving configuration and
reports, per arrival-rate point, simulated-time p50/p99 latency,
goodput, shed rate, and cache hit rate — then locates the **saturation
knee**: the first sweep point where the tier visibly stops keeping up
(shed rate above 1%, or p99 blown past ``KNEE_P99_FACTOR`` × the
lightest point's p99).

Every number is virtual-clock simulated time, so the report is the
same on every host and rerun for the same seed: its numbers are exact,
not samples of host noise.  The golden-digest matrix
(``tests/integration/test_determinism.py``, rows ``serving`` and
``perfbench/serving-flash``) is what pins serving runs byte for byte;
this bench runs each rate point once.  Reports go to the untracked
``.bench_build/``.

Usage
-----
``python -m benchmarks.serving``
    Full sweep (5 rate points), writes ``.bench_build/serving.json``,
    exits non-zero if a sanity assertion fails.

``python -m benchmarks.serving --smoke``
    Two rate points (one unsaturated, one past the knee), same
    assertions, well under a minute.

``python -m benchmarks.serving --bisect``
    Localizes the saturation knee by bisection instead of the fixed
    sweep: brackets the knee between the lightest (unsaturated) and
    heaviest (saturated) rates, then halves the interval until it is
    narrower than ``BISECT_TOL`` arrivals/s/user.  The refined knee —
    far tighter than any fixed 5-point grid can resolve — is recorded
    in ``.bench_build/serving_knee.json``.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_REPORT = REPO_ROOT / ".bench_build" / "serving.json"
BISECT_REPORT = REPO_ROOT / ".bench_build" / "serving_knee.json"

SEED = 2022
N_USERS = 300
HORIZON = 15.0
#: Baseline per-user rates swept (arrivals/sec/user).  With 300 users,
#: a ~55% read mix, and two ~2ms-mean servers, the tier keeps up
#: comfortably at the low end and is far past saturation at the top.
SWEEP_RATES = (0.5, 1.0, 2.0, 3.5, 5.0)
SMOKE_RATES = (0.5, 5.0)
#: A flash crowd sits inside every run so each point also reports how
#: the tier degrades under a burst, not just under steady load.
SPIKE = dict(start=6.0, end=9.0, multiplier=3.0)

KNEE_SHED_RATE = 0.01
KNEE_P99_FACTOR = 5.0

#: Bisection stops when the bracket is narrower than this many
#: arrivals/s/user (0.05 ≈ 15 rps offered at 300 users — well inside
#: the resolution any fixed 5-point sweep can claim).
BISECT_TOL = 0.05
BISECT_MAX_ITERS = 12


def _run_point(rate_per_user: float) -> Dict[str, object]:
    from repro.serving.gateway import ServingConfig
    from repro.serving.run import run_serving
    from repro.workloads.traffic import SpikeWindow, TrafficConfig

    traffic = TrafficConfig(
        n_users=N_USERS,
        horizon=HORIZON,
        rate_per_user=rate_per_user,
        seed=SEED,
        spikes=(SpikeWindow(**SPIKE),),
    )
    result = run_serving(traffic, ServingConfig())
    return {
        "rate_per_user": rate_per_user,
        "offered": result.offered,
        "offered_rps": result.offered / HORIZON,
        "goodput_rps": result.goodput_rps,
        "p50_ms": result.p50_ms,
        "p99_ms": result.p99_ms,
        "shed_rate": result.shed_rate,
        "cache_hit_rate": result.cache_hit_rate,
        "status_counts": {str(k): v for k, v in sorted(result.status_counts.items())},
        "blocks_produced": result.blocks_produced,
        "txs_included": result.txs_included,
    }


def find_knee(points: List[Dict[str, object]]) -> Optional[Dict[str, object]]:
    """First sweep point where the tier stops keeping up."""
    reference_p99 = points[0]["p99_ms"]
    for point in points:
        if _is_saturated(point, reference_p99):
            return {
                "rate_per_user": point["rate_per_user"],
                "offered_rps": point["offered_rps"],
                "reference_p99_ms": reference_p99,
                "knee_p99_ms": point["p99_ms"],
                "knee_shed_rate": point["shed_rate"],
            }
    return None


def _is_saturated(point: Dict[str, object], reference_p99: float) -> bool:
    """The knee predicate, relative to the lightest point's p99."""
    return point["shed_rate"] > KNEE_SHED_RATE or (
        reference_p99 > 0 and point["p99_ms"] > KNEE_P99_FACTOR * reference_p99
    )


def bisect_knee(
    lo: float = SWEEP_RATES[0],
    hi: float = SWEEP_RATES[-1],
    tol: float = BISECT_TOL,
) -> Dict[str, object]:
    """Localize the saturation knee by bisection over the arrival rate.

    ``lo`` must be unsaturated and ``hi`` saturated (the fixed sweep's
    bracket); each iteration halves the interval, keeping the invariant
    "lo unsaturated, hi saturated", so the knee lands in ``[lo, hi]``
    with ``hi - lo <= tol``.  Every probe is a full seeded serving run —
    deterministic, so the refined knee is reproducible to the digit.
    """
    lo_point = _run_point(lo)
    reference_p99 = lo_point["p99_ms"]
    assert not _is_saturated(lo_point, reference_p99), (
        f"bisection lower bound rate={lo} is already saturated"
    )
    hi_point = _run_point(hi)
    assert _is_saturated(hi_point, reference_p99), (
        f"bisection upper bound rate={hi} never saturates"
    )
    probes: List[Dict[str, object]] = []
    iterations = 0
    while hi - lo > tol and iterations < BISECT_MAX_ITERS:
        mid = (lo + hi) / 2.0
        point = _run_point(mid)
        saturated = _is_saturated(point, reference_p99)
        probes.append({
            "rate_per_user": mid,
            "offered_rps": point["offered_rps"],
            "p50_ms": point["p50_ms"],
            "p99_ms": point["p99_ms"],
            "shed_rate": point["shed_rate"],
            "saturated": saturated,
        })
        print(
            f"  bisect [{lo:.4f}, {hi:.4f}] -> rate={mid:.4f}"
            f"  p99={point['p99_ms']:>8.3f} ms  shed={point['shed_rate']:>6.2%}"
            f"  {'SATURATED' if saturated else 'ok'}"
        )
        if saturated:
            hi, hi_point = mid, point
        else:
            lo, lo_point = mid, point
        iterations += 1
    return {
        "knee_rate_per_user": hi,
        "knee_offered_rps": hi_point["offered_rps"],
        "bracket": [lo, hi],
        "bracket_width": hi - lo,
        "tolerance": tol,
        "iterations": iterations,
        "reference_p99_ms": reference_p99,
        "knee_p99_ms": hi_point["p99_ms"],
        "knee_shed_rate": hi_point["shed_rate"],
        "probes": probes,
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="two rate points instead of five",
    )
    parser.add_argument(
        "--bisect", action="store_true",
        help="localize the saturation knee by bisection "
             f"(writes {BISECT_REPORT.name})",
    )
    parser.add_argument(
        "--output", type=Path, default=None, help="report JSON path"
    )
    args = parser.parse_args(argv)
    if args.output is None:
        args.output = BISECT_REPORT if args.bisect else DEFAULT_REPORT
    args.output.parent.mkdir(parents=True, exist_ok=True)

    if args.bisect:
        print(f"serving knee bisection: {N_USERS} users, horizon {HORIZON}s, "
              f"bracket [{SWEEP_RATES[0]}, {SWEEP_RATES[-1]}] /user, "
              f"tol {BISECT_TOL}/user")
        knee = bisect_knee()
        print(f"  refined knee: rate={knee['knee_rate_per_user']:.4f}/user "
              f"({knee['knee_offered_rps']:.1f} rps offered, "
              f"bracket width {knee['bracket_width']:.4f})")
        report = {
            "schema": 1,
            "recorded_unix": time.time(),
            "seed": SEED,
            "n_users": N_USERS,
            "horizon_s": HORIZON,
            "spike": SPIKE,
            "mode": "bisect",
            "saturation_knee": knee,
        }
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"report written to {args.output}")
        return 0

    rates = SMOKE_RATES if args.smoke else SWEEP_RATES
    print(f"serving sweep: {N_USERS} users, horizon {HORIZON}s, "
          f"spike x{SPIKE['multiplier']} @ [{SPIKE['start']}, {SPIKE['end']})s")
    points: List[Dict[str, object]] = []
    for rate in rates:
        wall0 = time.perf_counter()
        point = _run_point(rate)
        wall = time.perf_counter() - wall0
        points.append(point)
        print(
            f"  rate={rate:>4.1f}/user  offered={point['offered_rps']:>7.1f} rps"
            f"  goodput={point['goodput_rps']:>7.1f} rps"
            f"  p50={point['p50_ms']:>7.3f} ms  p99={point['p99_ms']:>8.3f} ms"
            f"  shed={point['shed_rate']:>6.2%}  (wall {wall:.1f}s)"
        )

    # Sanity: the sweep must actually bracket the knee.
    assert points[0]["shed_rate"] == 0.0, (
        "lightest sweep point already sheds — lower SWEEP_RATES[0]"
    )
    knee = find_knee(points)
    assert knee is not None, (
        "no saturation knee found — the sweep never overloads the tier"
    )
    print(f"  saturation knee: rate={knee['rate_per_user']}/user "
          f"({knee['offered_rps']:.1f} rps offered; "
          f"shed={knee['knee_shed_rate']:.2%}, p99={knee['knee_p99_ms']:.3f} ms "
          f"against {knee['reference_p99_ms']:.3f} ms at the lightest point)")

    report = {
        "schema": 1,
        "recorded_unix": time.time(),
        "seed": SEED,
        "n_users": N_USERS,
        "horizon_s": HORIZON,
        "spike": SPIKE,
        "smoke": args.smoke,
        "points": points,
        "saturation_knee": knee,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
