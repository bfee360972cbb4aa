"""The repository benchmark: seeded workloads, end-to-end metrics, layer trace.

Usage (from the repository root):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Workloads (``perfbench/spec.py``; why each exists: ``perfbench/NOTES.md``):
society-100k and serving-flash, which ``BENCHMARK.json`` gates, and
society-1m, which runs on request and under ``all``.  ``--seed`` (default 2022)
makes the inputs; ``--seconds`` sizes the run as a whole number of
repetitions of the workload's fixed size, so every commit measures the
same work; ``--trace 1`` adds traced repetitions for the per-layer numbers.

Every repetition runs in a fresh interpreter (``rep.py``), one at a time, in
a single process with ``workers=1``.  With ``--trace 0`` all repetitions are
untraced and the run reports the end-to-end metrics named in
``BENCHMARK.json``: set-up time and memory as medians over repetitions,
throughput and step time from each segment's fastest time over them
(:func:`best_segments`).  With ``--trace 1`` untraced and traced
repetitions alternate in pairs and the run reports the per-layer metrics
(medians over the traced repetitions) and the tracing overhead.  Every
repetition's outputs are checked; all repetitions of a seed must give the
same metrics digest and segment boundaries, traced or not.  A fixed
pure-Python loop is timed before and after each repetition as a host-speed
diagnostic; it is printed with the raw numbers and used for nothing else.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List

from spec import WORKLOADS, steps_of

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# A run must end well inside three minutes, whatever the host does.
RUN_DEADLINE_S = 170.0
PROBE_LOOPS = 1_000_000
# A step percentile is reported only with this many steps beyond it.
TAIL_SAMPLES = 10


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop (host-speed diagnostic only)."""
    start = perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - start


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    section = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def rep_plan(workload, seconds: float, trace: bool) -> List[bool]:
    """Traced flag per repetition, in run order."""
    if not trace:
        return [False] * max(1, round(seconds / workload.rep_seconds))
    pairs = max(1, int(seconds // (2 * workload.rep_seconds)))
    # Alternate which side of a pair runs first, so host drift within
    # the run does not always favour one side of the overhead ratio.
    plan: List[bool] = []
    for pair in range(pairs):
        plan += [False, True] if pair % 2 == 0 else [True, False]
    return plan


def spawn_rep(name: str, seed: int, traced: bool, deadline: float) -> Dict:
    """Run one repetition in a fresh interpreter and wait for it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable,
        os.path.join(HERE, "rep.py"),
        name,
        str(seed),
        "1" if traced else "0",
    ]
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - perf_counter()),
        )
    except subprocess.TimeoutExpired:
        return _lost(traced, "repetition timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return _lost(
            traced, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def _lost(traced: bool, error: str) -> Dict:
    # Nothing reported how many ops the repetition attempted; count one.
    return {"traced": traced, "ok": False, "error": error,
            "attempted": 1, "failed": 1}


def median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def step_tail(steps: List[float]):
    """p90 of ``steps`` if at least TAIL_SAMPLES steps lie beyond it."""
    if len(steps) * 0.1 < TAIL_SAMPLES:
        return None
    return statistics.quantiles(steps, n=10)[-1]


def verdict(reps: List[Dict]) -> Dict[str, Any]:
    """Correctness over the run's repetitions.

    Every repetition must pass its checks, and all of them -- traced or
    not -- must agree on the metrics digest, the model outputs and the
    sequence of segment boundaries, which are deterministic per seed.  A
    failed check counts every op as failed.
    """
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    good = [rep for rep in reps if rep["ok"]]
    digests = {rep["digest"] for rep in good}
    outputs = {json.dumps(rep["outputs"], sort_keys=True) for rep in good}
    boundaries = {tuple(rep["labels"]) for rep in good}
    problems: List[str] = []
    for rep in reps:
        problems += rep.get("failures", [])
        if "error" in rep:
            problems.append(rep["error"])
    if len(digests) > 1:
        problems.append(f"metrics digests differ across repetitions: {digests}")
    if len(outputs) > 1:
        problems.append("model outputs differ across repetitions")
    if len(boundaries) > 1:
        problems.append("segment boundaries differ across repetitions")
    correct = not problems
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed if correct else attempted,
        "problems": problems,
        "digest": digests.pop() if len(digests) == 1 else None,
        "outputs": json.loads(outputs.pop()) if len(outputs) == 1 else None,
    }


def best_segments(plain: List[Dict]) -> List[float]:
    """The fastest time of each segment over the repetitions ``plain``.

    The repetitions of a run do identical work, so the same boundary calls
    split each into the same segments (:func:`verdict` checks it).
    Contention from other tenants of the host only ever adds time, so the
    fastest time is the one closest to the program's own.
    """
    return [min(column) for column in zip(*(rep["segments"] for rep in plain))]


def end_to_end(
    reps: List[Dict], attempted: int, failed: int, workload
) -> Dict:
    """End-to-end values from the untraced repetitions.

    Set-up time and peak memory are medians over repetitions.  Throughput
    and step time come from :func:`best_segments`: completed ops per
    repetition over the sum of the fastest segment times, and the median
    step rebuilt from them.
    """
    plain = [rep for rep in reps if rep["ok"] and not rep["traced"]]
    values = {
        "setup_s": median_or_zero([rep["setup_s"] for rep in plain]),
        "ops_per_s": 0.0,
        "step_s_p50": 0.0,
        "peak_rss_mib": median_or_zero([rep["peak_rss_mib"] for rep in plain]),
        "completed_ratio": (attempted - failed) / attempted,
    }
    if plain:
        best = best_segments(plain)
        ops = statistics.median(
            rep["attempted"] - rep["failed"] for rep in plain
        )
        steps = steps_of(
            best, plain[0]["labels"], workload.step_label,
            workload.last_step_ends_at_return,
        )
        values["ops_per_s"] = ops / sum(best)
        values["step_s_p50"] = median_or_zero(steps)
    return values


def per_layer(reps: List[Dict]) -> Dict[str, float]:
    """Per-layer values (medians over traced repetitions) and overhead."""
    good = [rep for rep in reps if rep["ok"]]
    traced = [rep for rep in good if rep["traced"]]
    plain = [rep for rep in good if not rep["traced"]]
    names = traced[0]["layers"] if traced else {}
    values = {
        name: median_or_zero([rep["layers"][name] for rep in traced])
        for name in names
    }
    values["bench.trace_overhead"] = median_or_zero(
        [t["wall_s"] / u["wall_s"] - 1.0 for u, t in zip(plain, traced)]
    )
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict:
    workload = WORKLOADS[name]
    deadline = perf_counter() + RUN_DEADLINE_S
    reps: List[Dict] = []
    for index, traced in enumerate(rep_plan(workload, seconds, trace)):
        probe_before = host_probe()
        rep = spawn_rep(name, seed, traced, deadline)
        rep["probe_before_s"] = probe_before
        rep["probe_after_s"] = host_probe()
        reps.append(rep)
        raw = {
            key: rep.get(key)
            for key in ("traced", "ok", "probe_before_s", "probe_after_s",
                        "setup_s", "wall_s", "ops_per_s", "peak_rss_mib",
                        "attempted", "failed")
        }
        raw["steps"] = len(rep.get("steps", ()))
        print(f"raw {name} rep {index}: {json.dumps(raw)}", flush=True)

    summary = verdict(reps)
    values = (
        per_layer(reps)
        if trace
        else end_to_end(
            reps, summary["attempted"], summary["failed"], workload
        )
    )
    # A layer value is missing only when no traced repetition succeeded,
    # and then the run is already reported as not correct.
    metrics = {
        metric: {"value": values.get(metric, 0.0), "unit": unit}
        for metric, unit in declared_metrics(trace).items()
    }
    report(name, seed, reps, summary, metrics, trace)
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def report(name, seed, reps, summary, metrics, trace) -> None:
    """Human-readable lines: every metric with its unit, checks, digest."""
    plain = [rep for rep in reps if rep["ok"] and not rep["traced"]]
    steps = [step for rep in plain for step in rep["steps"]]
    print(
        f"== {name} seed={seed}: {len(reps)} repetitions, "
        f"{len(steps)} untraced steps, {summary['attempted']} ops attempted"
    )
    for metric, entry in metrics.items():
        print(f"  {metric:32s} {entry['value']:.6g} {entry['unit']}")
    if not trace:
        print(
            f"  {'failed_ratio':32s} "
            f"{summary['failed'] / summary['attempted']:.6g} ratio"
        )
        tail = step_tail(steps)
        if tail is None:
            print(
                f"  {'step_s_p90':32s} not reported: {len(steps)} steps, "
                f"fewer than {TAIL_SAMPLES} beyond p90"
            )
        else:
            print(f"  {'step_s_p90':32s} {tail:.6g} s")
    print(f"  metrics digest (sha256)          {summary['digest']}")
    print(f"  model outputs                    {json.dumps(summary['outputs'])}")
    for problem in summary["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", default="all", choices=[*WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} "
            "is missing (run from a repository checkout)",
            file=sys.stderr,
        )
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace))
        for name in names
    }
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {name: r["metrics"] for name, r in results.items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
