"""Perf-regression gate for the substrate layers no workload times.

Times twelve tracked kernels against the committed baseline in
``benchmarks/baseline.json`` and fails if any of them regresses more
than the gate threshold (25%; 3x with ``--smoke``):

* the ``Simulator``: event dispatch with a snapshot-taking tick hook,
  schedule/cancel churn, and dispatch with engine profiling on;
* ``Histogram.summary()`` over 10k samples, alone and interleaved with
  observes;
* repeated ``EigenTrust.trust_of`` lookups with no write between them;
* ledger blocks of signed transactions;
* span emit through a live ``Instrumentation``;
* indexed ``TraceLog`` queries;
* cached contract dispatch;
* sketch-histogram observes with periodic summaries;
* weighted shard-plan builds.

No perfbench workload and no ``benchmarks/scaling.py`` ratio gate runs
these paths.  The other hot paths are timed there: mempool selection,
warm reputation writes, cascade rounds and batch classification by the
scaling suite's ratio gates; block appends, budget charges, the read
cache and admission control by the per-layer times of a traced
perfbench run (``--trace 1``).  Peak memory is perfbench's
``peak_rss_mib``.

Also gates the **observability tax**: the serving event loop with live
tracing and head-sampled request contexts attached must stay within
``OBS_OVERHEAD_THRESHOLD`` (10%) of the same seeded run dark
(``NULL_OBS``) — observing the tier must not meaningfully slow it.  The
windowed telemetry and the sampler's status and tail keeps are folds
over the response log after the loop, which this gate does not time.

Usage
-----
``python -m benchmarks.regression``
    Run every tracked op three times, compare the best against the
    committed baseline, write ``.bench_build/regression.json``
    (untracked), exit non-zero on regression.

``python -m benchmarks.regression --smoke``
    One repetition of each tracked op *plus* one untimed repetition of
    every ``bench_*.py`` pytest suite (``--benchmark-disable``); the
    whole run stays under a minute.

``python -m benchmarks.regression --update-baseline``
    Re-record ``benchmarks/baseline.json`` on this machine.

Only the public library API is used, so the harness runs unchanged
against any revision — that is what makes before/after speedup numbers
in the report meaningful.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = Path(__file__).resolve().parent / "baseline.json"
REPORT_PATH = REPO_ROOT / ".bench_build" / "regression.json"
GATE_THRESHOLD = 1.25  # fail if current > baseline * threshold
REPS = 3  # repetitions per tracked op outside smoke mode
# Smoke mode times each op once, which is noisy (cold caches, numpy
# warmup); gate only on catastrophic blowups there and leave the tight
# 25% gate to the full multi-rep run.
SMOKE_GATE_THRESHOLD = 3.0
SEED = 2022

# Each kernel returns (n_ops, seconds) for the timed section only
# (setup cost is excluded).
Kernel = Callable[[], Tuple[int, float]]


def _cpu_model() -> str:
    """Best-effort CPU model string (``/proc/cpuinfo`` on Linux)."""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def host_fingerprint() -> Dict[str, object]:
    """What the baseline was recorded on.

    Absolute timings only transfer between comparable hosts; the
    fingerprint is recorded by ``--update-baseline`` and checked (warn,
    never fail — thresholds are already ratio-based) on every gate run.
    """
    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count() or 1,
        "python_version": platform.python_version(),
        "platform": platform.system(),
    }


def fingerprint_mismatches(
    baseline_host: Optional[Dict[str, object]],
    current_host: Dict[str, object],
) -> List[str]:
    """Human-readable field-level diffs between two fingerprints."""
    if baseline_host is None:
        return ["baseline has no host fingerprint (recorded pre-PR5)"]
    diffs = []
    for key, current_value in current_host.items():
        base_value = baseline_host.get(key)
        if base_value != current_value:
            diffs.append(f"{key}: baseline={base_value!r} current={current_value!r}")
    return diffs


# ----------------------------------------------------------------------
# Tracked kernels
# ----------------------------------------------------------------------
def kernel_sim_event_throughput() -> Tuple[int, float]:
    """Dispatch events with a snapshot-taking tick hook installed.

    ``snapshot()`` reads ``pending_count`` after every fired event —
    exactly what tracing/observability hooks do — so this kernel is
    quadratic if ``pending_count`` scans the queue.
    """
    from repro.sim import Simulator

    sim = Simulator()
    n = 4000
    for i in range(n):
        sim.schedule(float(i), lambda: None)
    snapshots: List[dict] = []
    sim.add_tick_hook(lambda now: snapshots.append(sim.snapshot()))
    t0 = time.perf_counter()
    sim.run_all()
    elapsed = time.perf_counter() - t0
    assert len(snapshots) == n
    return n, elapsed


def kernel_sim_cancel_churn() -> Tuple[int, float]:
    """Schedule/cancel churn with periodic pending_count reads.

    Long-running scenarios cancel far-future events constantly (session
    timeouts, retries); cancelled entries must not pile up in the queue.
    """
    from repro.sim import Simulator

    sim = Simulator()
    rng = random.Random(SEED)
    n = 3000
    t0 = time.perf_counter()
    live = []
    for i in range(n):
        ev = sim.schedule(1e6 + i, lambda: None)
        live.append(ev)
        if len(live) >= 8:
            live.pop(rng.randrange(len(live))).cancel()
        sim.pending_count  # observability read on the hot path
    elapsed = time.perf_counter() - t0
    return n, elapsed


def kernel_histogram_summary_10k() -> Tuple[int, float]:
    """Repeated ``summary()`` over a stable 10k-sample histogram.

    This is the metrics-scrape hot path: the registry renders summaries
    far more often than new samples arrive between scrapes.
    """
    from repro.sim.metrics import Histogram

    rng = random.Random(SEED)
    hist = Histogram("bench")
    for _ in range(10_000):
        hist.observe(rng.uniform(0.0, 100.0))
    reps = 50
    t0 = time.perf_counter()
    for _ in range(reps):
        hist.summary()
    elapsed = time.perf_counter() - t0
    return reps, elapsed


def kernel_histogram_observe_then_summary() -> Tuple[int, float]:
    """Interleaved observe/summary — the cache-invalidation worst case."""
    from repro.sim.metrics import Histogram

    rng = random.Random(SEED)
    hist = Histogram("bench")
    for _ in range(10_000):
        hist.observe(rng.uniform(0.0, 100.0))
    reps = 30
    t0 = time.perf_counter()
    for _ in range(reps):
        hist.observe(rng.uniform(0.0, 100.0))
        hist.summary()
    elapsed = time.perf_counter() - t0
    return reps, elapsed


def kernel_eigentrust_trust_of_repeated() -> Tuple[int, float]:
    """Many single-identity lookups with no interleaved writes.

    Dashboards and admission checks (``ReputationVetted``) do exactly
    this; recomputing the power iteration per lookup is the bug.
    """
    from repro.reputation import EigenTrust

    rng = random.Random(SEED)
    ids = [f"peer-{i:03d}" for i in range(120)]
    trust = EigenTrust(pretrusted=ids[:5], alpha=0.15)
    for _ in range(900):
        a, b = rng.sample(ids, 2)
        trust.record_interaction(a, b, rng.uniform(0.1, 1.0))
    reps = 60
    t0 = time.perf_counter()
    for i in range(reps):
        trust.trust_of(ids[i % len(ids)])
    elapsed = time.perf_counter() - t0
    return reps, elapsed


def kernel_ledger_append_txs() -> Tuple[int, float]:
    """Append 60 blocks of 4 transfers each (signatures pre-made).

    Covers the signature/tx-id path: a transaction admitted to the
    mempool is re-verified at speculation, application, and structural
    validation unless verification results are cached.
    """
    from repro.ledger import Blockchain, PoAConsensus, Wallet

    validator = Wallet(seed=b"regression-validator2", height=6)
    senders = [Wallet(seed=f"regression-sender-{i}".encode(), height=8) for i in range(4)]
    balances = {w.address: 1_000_000 for w in senders}
    balances[validator.address] = 1000
    n_blocks = 60
    sink = "ff" * 32
    prepared = []
    for height in range(n_blocks):
        prepared.append(
            [w.transfer(sink, 1, nonce=height, fee=1) for w in senders]
        )
    chain = Blockchain(PoAConsensus([validator.address]), genesis_balances=balances)
    t0 = time.perf_counter()
    for height, txs in enumerate(prepared):
        for stx in txs:
            chain.mempool.submit(stx, chain.state)
        chain.propose_block(validator.address, timestamp=float(height + 1))
    elapsed = time.perf_counter() - t0
    assert chain.height == n_blocks
    return n_blocks * len(senders), elapsed


def kernel_trace_span_emit() -> Tuple[int, float]:
    """Open/close nested spans through a live Instrumentation.

    Every instrumented substrate call pays this cost when observability
    is on (the framework default), so span emit must stay cheap.
    """
    from repro.obs import Instrumentation
    from repro.sim import TraceLog

    obs = Instrumentation(trace=TraceLog(), run_id="bench")
    n = 5000
    t0 = time.perf_counter()
    for i in range(n):
        with obs.span("bench", "outer", time=float(i), index=i):
            with obs.span("bench", "inner", time=float(i)):
                obs.event("bench", "tick", time=float(i), index=i)
    elapsed = time.perf_counter() - t0
    assert len(obs.trace) == 3 * n
    return n, elapsed


def kernel_trace_indexed_query() -> Tuple[int, float]:
    """Repeated source/kind queries against a 20k-record log.

    Auditors poll per-module counts every epoch; without the
    (source, kind) index each poll is a full linear scan.
    """
    from repro.sim import TraceLog

    rng = random.Random(SEED)
    log = TraceLog()
    sources = [f"module-{i}" for i in range(8)]
    kinds = ["event", "span", "anchor"]
    for i in range(20_000):
        log.emit(float(i), rng.choice(sources), rng.choice(kinds), index=i)
    reps = 300
    t0 = time.perf_counter()
    total = 0
    for i in range(reps):
        source = sources[i % len(sources)]
        kind = kinds[i % len(kinds)]
        total += log.count(source=source, kind=kind)
        total += sum(1 for _ in log.query(source=source))
    elapsed = time.perf_counter() - t0
    assert total > 0
    return reps, elapsed


def kernel_sim_profiled_dispatch() -> Tuple[int, float]:
    """Event dispatch with engine profiling enabled.

    Bounds the per-event overhead of the wall-clock timing hook —
    profiling a run must not meaningfully distort what it measures.
    """
    from repro.sim import Simulator

    sim = Simulator(profile=True)
    n = 4000
    for i in range(n):
        sim.schedule(float(i), lambda: None, name="bench.noop")
    t0 = time.perf_counter()
    sim.run_all()
    elapsed = time.perf_counter() - t0
    assert sim.profile_histograms()["bench.noop"].count == n
    return n, elapsed


def kernel_contract_dispatch_cached() -> Tuple[int, float]:
    """Repeated calls into one contract method through the registry.

    After the first resolution the ``(contract, method)`` dispatch entry
    and its argument schema are cached; per-call cost must not include
    re-reflection over ``method_*`` handlers.
    """
    from repro.ledger import ContractRegistry, LedgerState, TokenContract
    from repro.ledger.transactions import Transaction, TxKind
    from repro.workloads.load import agent_address

    owner = agent_address(0)
    registry = ContractRegistry()
    token = TokenContract(owner=owner)
    address = registry.deploy(token)
    state = LedgerState({owner: 1_000})
    n = 2000
    calls = [
        Transaction.pinned(
            sender=owner,
            recipient=address,
            amount=0,
            fee=0,
            nonce=i,
            kind=TxKind.CONTRACT,
            payload={"method": "balance", "args": {"of": owner}},
        )
        for i in range(n)
    ]
    t0 = time.perf_counter()
    for stx in calls:
        registry(state, stx)
    elapsed = time.perf_counter() - t0
    return n, elapsed


def kernel_sketch_observe_summary() -> Tuple[int, float]:
    """Streaming observes into the bounded sketch with periodic scrapes.

    The sketch backend's contract is O(compression) memory at streaming
    rates; this bounds the amortised per-observe cost including the
    compactions and interleaved ``summary()`` renders."""
    from repro.sim.metrics import SketchHistogram

    rng = random.Random(SEED)
    sketch = SketchHistogram("bench")
    n = 50_000
    t0 = time.perf_counter()
    for i in range(n):
        sketch.observe(rng.lognormvariate(0.0, 1.0))
        if i % 10_000 == 9_999:
            sketch.summary()
    elapsed = time.perf_counter() - t0
    assert sketch.count == n
    return n, elapsed


def kernel_plan_build_weighted() -> Tuple[int, float]:
    """200 weighted shard-plan builds over a 50k-agent activity profile.

    The per-epoch replan cost of the elastic sharding layer: blend the
    heavy-tailed activity prior with an observed cost profile, cut
    mass-balanced boundaries, and construct the plan.  Planning runs at
    every epoch barrier, so it must stay far below any phase's actual
    work.
    """
    import numpy as np

    from repro.parallel import (
        ShardPlan,
        activity_weights,
        blend_profile,
        weighted_boundaries,
    )

    n_agents, n_shards, reps = 50_000, 16, 200
    activity = activity_weights(SEED, n_agents)
    observed = np.random.default_rng(SEED).integers(
        0, 50, size=n_agents, dtype=np.int64
    )
    base = ShardPlan(
        seed=SEED,
        n_agents=n_agents,
        n_shards=n_shards,
        n_members=5_000,
        hot_stride=50,
    )
    t0 = time.perf_counter()
    for _ in range(reps):
        weights = blend_profile(activity, observed)
        plan = base.with_boundaries(weighted_boundaries(weights, n_shards))
    elapsed = time.perf_counter() - t0
    assert plan.boundaries is not None and plan.boundaries[-1] == n_agents
    return reps, elapsed


# ----------------------------------------------------------------------
# Observability-overhead guard
# ----------------------------------------------------------------------
#: Live tracing with head-sampled request contexts must keep the event
#: loop within this factor of the dark (NULL_OBS) request path.
OBS_OVERHEAD_THRESHOLD = 1.10
OBS_OVERHEAD_REPS = 7
# Contention only inflates the ratio, so the gate takes the best reading
# of up to this many attempts.
OBS_OVERHEAD_ATTEMPTS = 3


#: Generated arrival schedule, cached across overhead repetitions: the
#: schedule is a pure function of the seeded config and nothing on the
#: request path mutates it, so regenerating it per run would only widen
#: the untimed gap between the paired dark/observed measurements (drift
#: in machine load inside that gap is the dominant noise source).
_BENCH_TRAFFIC_CACHE: Optional[Tuple[object, list]] = None


def _build_serving_loop(observed: bool):
    """One seeded serving run, built but not yet run.

    Returns ``(run_loop, finish)`` thunks: ``run_loop()`` executes the
    event loop (the part the overhead gate times), ``finish()`` runs
    the folds over the response log and returns the response count.
    Splitting build from run lets the gate construct every repetition
    up front and then execute all timed sections back to back.

    ``observed=False`` is the dark path — no tracer or sampler attached
    (the gateway falls back to ``NULL_OBS``).  ``observed=True``
    attaches the full observability stack: live instrumentation on the
    substrates and request contexts with head sampling in the loop;
    after it, ``finish()`` folds the log into per-window telemetry with
    one latency threshold and the sampler's status and tail keeps.
    """
    global _BENCH_TRAFFIC_CACHE
    import numpy as np

    from repro.obs import Instrumentation
    from repro.obs.context import RequestTraceSampler, SamplingPolicy
    from repro.serving.gateway import ServingConfig, ServingGateway
    from repro.serving.loop import EventLoop
    from repro.serving.repository import ServingRepository
    from repro.serving.run import (
        SERVICE_TIME_DOMAIN,
        fold_telemetry,
        schedule_arrivals,
    )
    from repro.sim.metrics import MetricsRegistry
    from repro.workloads.traffic import TrafficConfig, generate_traffic

    # Big enough that the timed loop runs for a few hundred ms: the
    # overhead ratio divides two wall-clock times, and short timed
    # regions drown the signal in scheduler/frequency noise.
    if _BENCH_TRAFFIC_CACHE is None:
        traffic = TrafficConfig(
            n_users=400, horizon=10.0, rate_per_user=1.0, seed=SEED
        )
        _BENCH_TRAFFIC_CACHE = (traffic, generate_traffic(traffic))
    traffic, arrivals = _BENCH_TRAFFIC_CACHE
    registry = MetricsRegistry()
    loop = EventLoop()
    obs = sampler = policy = None
    if observed:
        obs = Instrumentation(
            metrics=registry, clock=lambda: loop.now, run_id="bench-obs"
        )
        policy = SamplingPolicy()  # the default (1% head) config
        sampler = RequestTraceSampler(obs.trace, policy)
    repo = ServingRepository(n_users=traffic.n_users, seed=SEED, obs=obs)
    gateway = ServingGateway(
        repo, loop, ServingConfig(), registry,
        np.random.default_rng(
            np.random.SeedSequence(entropy=SEED, spawn_key=(SERVICE_TIME_DOMAIN,))
        ),
        obs=obs, sampler=sampler,
    )
    schedule_arrivals(
        loop,
        gateway.submit,
        arrivals,
        policy.head_rate if observed else None,
    )
    gateway.start(horizon=traffic.horizon)

    def finish() -> int:
        responses = gateway.responses
        n = len(responses)
        assert n == len(arrivals) > 0
        if observed:
            assert fold_telemetry(gateway, (40.0,)).responses == n
            sampler.finalize(responses.contexts, *responses.columns())
            assert sampler.kept > 0  # the observed side genuinely sampled
        return n

    return loop.run, finish


def _serving_loop_seconds(observed: bool) -> Tuple[int, float]:
    """Build and run one serving repetition; returns (n, loop seconds)."""
    run_loop, finish = _build_serving_loop(observed)
    t0 = time.perf_counter()
    run_loop()
    elapsed = time.perf_counter() - t0
    return finish(), elapsed


def check_obs_overhead(reps: int = OBS_OVERHEAD_REPS) -> Dict[str, float]:
    """Measure the observability tax on the serving request path.

    Runs ``reps`` back-to-back (dark, observed) pairs — alternating
    which side of each pair runs first, so neither systematically pays
    the cold-cache or frequency-ramp penalty — then drops the one pair
    with the lowest ratio and the one with the highest before taking
    the **ratio of summed times** over the rest.  The two runs of a
    pair execute within ~100 ms of each other, so machine-load drift
    (which on shared hardware easily moves absolute per-request times
    by 30% over a few seconds) mostly cancels inside each pair; the
    symmetric trim then rejects the odd pair that straddled a co-tenant
    burst mid-pair, which a plain ratio of sums lets dominate the
    verdict.  Comparing best-of times across the whole trial instead
    would divide numbers measured at different load levels and swing
    the ratio by ±20%.

    The gate: the observed event loop — live tracing, request contexts
    and head sampling — must cost at most ``OBS_OVERHEAD_THRESHOLD - 1``
    extra per request over ``NULL_OBS``.  The telemetry and the
    sampler's status and tail keeps are folded from the response log
    after the loop, in ``finish()``, and are not timed here; perfbench's
    serving-flash ``ops_per_s`` times them with the whole run.
    """
    import gc

    _serving_loop_seconds(observed=False)  # warmup, untimed
    _serving_loop_seconds(observed=True)
    # Build every repetition up front, then run all timed sections back
    # to back: wall-clock drift on shared hardware (other tenants, CPU
    # frequency ramps) easily moves absolute per-request times by 30%
    # over a few seconds, so any untimed setup gap *between* the two
    # sides of a comparison lets that drift alias into the ratio.  With
    # a contiguous timed phase in strict dark/observed alternation
    # (order flipping each pair), both sides sample the same load
    # profile and the drift cancels in the ratio of sums.
    pairs = []
    for i in range(reps):
        dark_build = _build_serving_loop(observed=False)
        observed_build = _build_serving_loop(observed=True)
        pairs.append((i % 2 == 0, dark_build, observed_build))
    dark_times: List[float] = []
    observed_times: List[float] = []
    # GC pauses scale with how much the run allocates, so leaving
    # collection enabled would bill the observed side (which keeps
    # trace rows and request contexts alive) a cost that is really
    # the collector's — disable it for the timed phase.
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for dark_first, dark_build, observed_build in pairs:
            runs = (
                (dark_build, dark_times), (observed_build, observed_times)
            )
            if not dark_first:
                runs = runs[::-1]
            for (run_loop, _finish), sink in runs:
                # CPU time, not wall clock: preemption by other tenants
                # of a shared host would otherwise be billed to
                # whichever side it landed on.
                t0 = time.process_time()
                run_loop()
                sink.append(time.process_time() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    n = 0
    for _order, dark_build, observed_build in pairs:
        n = dark_build[1]()
        assert observed_build[1]() == n
    timed_pairs = sorted(
        (o / d, d, o)
        for d, o in zip(dark_times, observed_times) if d > 0
    )
    # Symmetric trim: one pair polluted by a co-tenant burst lands far
    # from the rest and would otherwise own the ratio of sums.
    kept = timed_pairs[1:-1] if len(timed_pairs) > 2 else timed_pairs
    dark_total = sum(p[1] for p in kept)
    observed_total = sum(p[2] for p in kept)
    overhead = (
        observed_total / dark_total if dark_total > 0 else float("inf")
    )
    return {
        "requests": n,
        "reps": reps,
        "pairs_kept": len(kept),
        "dark_seconds_per_request": dark_total / (n * len(kept)),
        "observed_seconds_per_request": observed_total / (n * len(kept)),
        "pair_ratios": [round(p[0], 4) for p in timed_pairs],
        "overhead_ratio": overhead,
        "threshold": OBS_OVERHEAD_THRESHOLD,
        "within_budget": overhead <= OBS_OVERHEAD_THRESHOLD,
    }


def best_obs_overhead(
    measure: Callable[[], Dict[str, float]]
) -> Dict[str, object]:
    """Run ``measure`` until a reading is within budget, at most
    ``OBS_OVERHEAD_ATTEMPTS`` times, printing each attempt's own ratio.

    Returns the best (lowest-ratio) reading, with every attempt's
    reading, in order, under ``"attempts"``.
    """
    readings: List[Dict[str, float]] = []
    while len(readings) < OBS_OVERHEAD_ATTEMPTS:
        reading = measure()
        readings.append(reading)
        within = reading["within_budget"]
        print(
            f"  attempt {len(readings)}: {reading['overhead_ratio']:.3f}x "
            + ("within budget" if within else "over budget")
            + (
                " — retrying under contention"
                if not within and len(readings) < OBS_OVERHEAD_ATTEMPTS
                else ""
            )
        )
        if within:
            break
    best = dict(min(readings, key=lambda r: r["overhead_ratio"]))
    best["attempts"] = readings
    return best


TRACKED_OPS: Dict[str, Kernel] = {
    "sim_event_throughput_4k": kernel_sim_event_throughput,
    "sim_cancel_churn_3k": kernel_sim_cancel_churn,
    "histogram_summary_10k": kernel_histogram_summary_10k,
    "histogram_observe_then_summary_10k": kernel_histogram_observe_then_summary,
    "eigentrust_trust_of_repeated": kernel_eigentrust_trust_of_repeated,
    "ledger_append_tx_blocks": kernel_ledger_append_txs,
    "trace_span_emit_5k": kernel_trace_span_emit,
    "trace_indexed_query_20k": kernel_trace_indexed_query,
    "sim_profiled_dispatch_4k": kernel_sim_profiled_dispatch,
    "contract_dispatch_cached_2k": kernel_contract_dispatch_cached,
    "sketch_observe_summary_50k": kernel_sketch_observe_summary,
    "plan_build_weighted_200": kernel_plan_build_weighted,
}


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
def run_tracked_ops(reps: int) -> Dict[str, Dict[str, float]]:
    results: Dict[str, Dict[str, float]] = {}
    for name, kernel in TRACKED_OPS.items():
        best = float("inf")
        ops = 0
        for _ in range(reps):
            ops, seconds = kernel()
            best = min(best, seconds)
        per_op = best / ops if ops else float("inf")
        results[name] = {
            "ops": ops,
            "best_seconds": best,
            "seconds_per_op": per_op,
            "ops_per_second": (1.0 / per_op) if per_op > 0 else float("inf"),
            "reps": reps,
        }
        print(
            f"  {name:<40s} {per_op * 1e6:>10.1f} us/op   "
            f"({ops} ops, best of {reps})"
        )
    return results


def compare(
    current: Dict[str, Dict[str, float]],
    baseline: Dict[str, Dict[str, float]],
    threshold: float,
) -> Tuple[Dict[str, Dict[str, float]], List[str]]:
    comparison: Dict[str, Dict[str, float]] = {}
    regressions: List[str] = []
    for name, entry in current.items():
        base = baseline.get(name)
        if base is None:
            continue
        base_spo = base["seconds_per_op"]
        cur_spo = entry["seconds_per_op"]
        speedup = base_spo / cur_spo if cur_spo > 0 else float("inf")
        regressed = cur_spo > base_spo * threshold
        comparison[name] = {
            "baseline_seconds_per_op": base_spo,
            "current_seconds_per_op": cur_spo,
            "speedup_vs_baseline": speedup,
            "regressed": regressed,
        }
        if regressed:
            regressions.append(name)
    return comparison, regressions


def run_smoke_suites() -> int:
    """One untimed repetition of every pytest bench suite."""
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        "benchmarks",
        "-q",
        "-p",
        "no:cacheprovider",
        "--benchmark-disable",
    ]
    print(f"\nsmoke: {' '.join(cmd[3:])}")
    env_path = str(REPO_ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = env_path + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.call(cmd, cwd=str(REPO_ROOT), env=env)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="single repetition of tracked ops plus one untimed run of each bench suite",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=f"re-record {BASELINE_PATH.name} instead of gating against it",
    )
    args = parser.parse_args(argv)
    threshold = SMOKE_GATE_THRESHOLD if args.smoke else GATE_THRESHOLD

    reps = 1 if args.smoke else REPS
    print(f"tracked ops ({reps} rep{'s' if reps != 1 else ''} each):")
    current = run_tracked_ops(reps)

    host = host_fingerprint()
    if args.update_baseline:
        BASELINE_PATH.write_text(
            json.dumps(
                {
                    "schema": 2,
                    "recorded_unix": time.time(),
                    "host": host,
                    "ops": current,
                },
                indent=2,
            )
            + "\n"
        )
        print(f"\nbaseline written to {BASELINE_PATH}")
        print(f"host: {host['cpu_model']} x{host['cpu_count']}, "
              f"python {host['python_version']}")
        return 0

    # Not reduced in smoke mode: the overhead ratio needs the full pair
    # count to average out co-tenant noise, or the gate flakes.
    obs_reps = OBS_OVERHEAD_REPS
    print(f"\nobservability overhead (best of {obs_reps} interleaved reps):")
    # Contention can only inflate the estimate (the observed side
    # allocates more, so memory-bandwidth pressure from co-tenants
    # bills it disproportionately), never deflate it — so the best of
    # up to three attempts is the honest quiet-machine figure, and a
    # passing early attempt skips the rest.
    obs_overhead = best_obs_overhead(
        lambda: check_obs_overhead(reps=obs_reps)
    )
    print(
        f"  dark     {obs_overhead['dark_seconds_per_request'] * 1e6:>10.1f}"
        f" us/request\n"
        f"  observed {obs_overhead['observed_seconds_per_request'] * 1e6:>10.1f}"
        f" us/request\n"
        f"  overhead {obs_overhead['overhead_ratio']:>10.3f}x"
        f"  (budget {OBS_OVERHEAD_THRESHOLD:.2f}x)"
    )

    report = {
        "schema": 2,
        "recorded_unix": time.time(),
        "gate_threshold": threshold,
        "host": host,
        "ops": current,
        "obs_overhead": obs_overhead,
    }
    exit_code = 0
    if not obs_overhead["within_budget"]:
        print(
            f"\nFAIL: observability overhead "
            f"{obs_overhead['overhead_ratio']:.3f}x exceeds "
            f"{OBS_OVERHEAD_THRESHOLD:.2f}x budget on the serving request path"
        )
        exit_code = 1
    if BASELINE_PATH.exists():
        baseline_doc = json.loads(BASELINE_PATH.read_text())
        baseline = baseline_doc["ops"]
        mismatches = fingerprint_mismatches(baseline_doc.get("host"), host)
        if mismatches:
            # Warn only: the gate is ratio-based, but timings recorded on
            # different silicon shift those ratios too, so surface it.
            report["host_mismatch"] = mismatches
            print("\nWARNING: baseline was recorded on a different host:")
            for diff in mismatches:
                print(f"  {diff}")
            print("  (gate still applies; re-record with --update-baseline "
                  "if this machine is the new reference)")
        comparison, regressions = compare(current, baseline, threshold)
        report["comparison"] = comparison
        report["regressions"] = regressions
        print("\nvs committed baseline:")
        for name, row in comparison.items():
            flag = "  REGRESSED" if row["regressed"] else ""
            print(f"  {name:<40s} {row['speedup_vs_baseline']:>7.2f}x{flag}")
        if regressions:
            print(f"\nFAIL: {len(regressions)} tracked op(s) regressed >"
                  f"{(threshold - 1) * 100:.0f}%: {', '.join(regressions)}")
            exit_code = 1
    else:
        print(f"\nno baseline at {BASELINE_PATH}; run --update-baseline to record one")

    REPORT_PATH.parent.mkdir(exist_ok=True)
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report written to {REPORT_PATH}")

    if args.smoke:
        smoke_rc = run_smoke_suites()
        exit_code = exit_code or smoke_rc
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
