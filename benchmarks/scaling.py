"""Population-scale scaling suite: ops/sec across 1k / 10k / 100k tiers.

For each tier this suite measures the hot paths rebuilt across the
scale PRs against *naive references* that reproduce the pre-optimised
algorithms:

* **mempool selection** — indexed head-heap vs per-pick sender rescan;
* **reputation writes** — warm incremental EigenTrust vs cold rebuild;
* **misinformation cascade** — the CSR round-vectorized engine vs the
  scalar loop (``vectorized=False``), with the two engines asserted
  byte-identical (same PCG64 stream → same reached set, timeline, and
  round count);
* **moderation classify** — one vectorized Bernoulli pass over a
  columnar interaction batch vs a scalar per-interaction draw loop,
  again asserted draw-for-draw identical, plus end-to-end
  ``process_batch`` throughput;

then runs the population load workload (moderation, full privacy
pipeline, and cascade phases included) twice to assert
**byte-identical** metrics, checks the bounded quantile sketch against
exact percentiles on a large stream, and measures the **sharded
multi-core execution layer**: ``run_load(workers=K)`` for K in {2, 4}
must reproduce the serial metrics payload byte for byte, and on hosts
with >= 4 usable cores the 4-worker run must finish the 100k tier at
least 2x faster than serial (on smaller hosts the speedup is recorded
but the wall-clock gate is reported as skipped — equivalence is always
enforced).

The **columnar tier** measures the struct-of-arrays agent-state core
(:mod:`repro.world.columnar`) against the object/dict society it
replaces, phase by phase: society build (typed columns + bulk identity
registration vs dict genesis + per-agent loop), one epoch of ledger
writes (``AgentTable.apply_transfers`` vs per-tx ``LedgerState.apply``),
privacy-budget charging (the vectorized ``charge_many`` column kernel
vs the dict loop), and the per-epoch trust-top readout (solved-vector
``max`` vs materialising the full trust dict).  At the 10k tier the two
implementations are asserted **exactly equivalent** — balances, nonces,
budget accept/refuse decisions, bit-level spent accumulators, trust
tops; at the 100k tier the combined columnar speedup over the
recurring epoch phases is gated at >= 3x (society build is one-time
setup, reported but not gated).  The optional 1,000,000-agent tier
(full mode or ``--million``) runs the whole load workload at a
population the object path cannot reasonably host, and reports column
bytes/agent (gated at <= 64) plus peak RSS.

The **shard balance tier** runs the load workload under its
cost-weighted shard plan and reports the wall-clock shard imbalance —
max/mean per-shard seconds over the epoch, from the per-phase timings
the workers record.  At the 100k tier the epoch-level imbalance is
gated at <= 1.25x.

Results land in ``BENCH_PR9.json`` at the repo root.  Speedup numbers
are optimised-vs-naive on the same machine and the same data, so they
are meaningful regardless of host speed.

Usage
-----
``python -m benchmarks.scaling``
    Full run: all three tiers, 1M-sample sketch check, columnar tiers
    (including the 1M-agent tier), workers tier.

``python -m benchmarks.scaling --smoke``
    Reduced repetitions and a 200k-sample sketch check; finishes well
    under 90 seconds (the ``make bench-scaling`` target).

``python -m benchmarks.scaling --smoke --million``
    Smoke plus the 1M-agent columnar tier.

``python -m benchmarks.scaling --parallel-only``
    Just the workers tier (the ``make bench-parallel`` target).

``python -m benchmarks.scaling --columnar-only``
    Just the columnar 10k kernel tier: columnar-vs-object exact
    equivalence plus the bytes/agent ceiling (the ``make bench-columnar``
    target).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.governance.moderation import (
    AbuseClassifier,
    HumanModeratorPool,
    ModerationService,
    ReportDesk,
)
from repro.governance.sanctions import GraduatedSanctionPolicy
from repro.ledger.mempool import Mempool, _fee_key
from repro.ledger.state import LedgerState
from repro.privacy.budget import PrivacyBudget
from repro.reputation.eigentrust import EigenTrust
from repro.reputation.system import ReputationSystem
from repro.sim.metrics import Histogram, SketchHistogram
from repro.social.graph import SocialGraph
from repro.social.misinformation import MisinformationModel
from repro.workloads.generators import synthetic_interaction_batch
from repro.workloads.load import (
    agent_address,
    agent_addresses,
    run_load,
    synthetic_transfer,
)
from repro.world.columnar import AgentTable

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_PR9.json"
SEED = 2022
TIERS = (1_000, 10_000, 100_000)
# The acceptance bar: indexed paths at the 10k tier must beat the naive
# references by at least this factor.
REQUIRED_SPEEDUP_AT_10K = 3.0
BLOCK_PICKS = 200
# The parallel acceptance bar: 4 workers at the 100k tier must at least
# halve serial wall-clock — enforced only where 4 cores actually exist.
REQUIRED_PARALLEL_SPEEDUP = 2.0
PARALLEL_GATE_CORES = 4
PARALLEL_GATE_TIER = 100_000
# The balance acceptance bar: under the cost-weighted plan the
# epoch-level shard imbalance (max/mean per-shard wall seconds) must
# stay within 1.25x at the 100k tier.
REQUIRED_BALANCE_IMBALANCE = 1.25
BALANCE_GATE_TIER = 100_000
# The columnar acceptance bar: the struct-of-arrays core must beat the
# object/dict society >= 3x on the combined load phases at 100k agents,
# and its hot per-agent state must stay under 64 column bytes (the
# actual table is 37; the ceiling leaves headroom for future columns).
REQUIRED_COLUMNAR_SPEEDUP = 3.0
COLUMNAR_GATE_TIER = 100_000
COLUMNAR_BYTES_PER_AGENT_CEILING = 64.0
COLUMNAR_MILLION_TIER = 1_000_000


# ----------------------------------------------------------------------
# Mempool selection: indexed vs per-pick sender rescan
# ----------------------------------------------------------------------
def _build_pool(n_senders: int, txs_per_sender: int = 2) -> Tuple[Mempool, LedgerState]:
    rng = random.Random(SEED)
    pool = Mempool(capacity=n_senders * txs_per_sender + 1)
    balances: Dict[str, int] = {}
    for i in range(n_senders):
        sender = agent_address(i)
        balances[sender] = 10_000_000
        for nonce in range(txs_per_sender):
            stx = synthetic_transfer(
                sender,
                agent_address((i + 1) % n_senders),
                amount=1,
                fee=rng.randint(1, 10_000),
                nonce=nonce,
            )
            pool.submit(stx)
    return pool, LedgerState(balances)


def _naive_select(pool: Mempool, state: LedgerState, max_count: int) -> List:
    """The pre-index algorithm: rescan every sender per pick.

    Uses the pool's own nonce buckets for candidate lookup, so the
    measured difference is purely the selection loop (O(senders x picks)
    here vs the head-heap's O(picks log n)), not data-structure overhead.
    """
    chains = pool._chains
    session_nonce: Dict[str, int] = {}
    selected: List = []
    while len(selected) < max_count:
        best = None
        for sender, chain in chains.items():
            nonce = session_nonce.get(sender)
            if nonce is None:
                nonce = state.nonce_of(sender)
            candidate = chain.best_at(nonce)
            if candidate is not None and (
                best is None or _fee_key(candidate) > _fee_key(best)
            ):
                best = candidate
        if best is None:
            break
        selected.append(best)
        session_nonce[best.tx.sender] = best.tx.nonce + 1
    return selected


def bench_mempool_select(n_senders: int, smoke: bool) -> Dict[str, Any]:
    pool, state = _build_pool(n_senders)
    indexed_reps = 3 if smoke else 10
    # The naive loop is O(senders) per pick; at the top tier a full
    # 200-pick block costs tens of seconds, so measure fewer picks and
    # report per-pick cost (the loop's cost is linear in picks).
    naive_picks = BLOCK_PICKS if n_senders <= 10_000 else 20
    naive_reps = 1 if smoke or n_senders > 10_000 else 3

    best_indexed = math.inf
    for _ in range(indexed_reps):
        t0 = time.perf_counter()
        picked = pool.select(state, max_count=BLOCK_PICKS)
        best_indexed = min(best_indexed, time.perf_counter() - t0)

    best_naive = math.inf
    for _ in range(naive_reps):
        t0 = time.perf_counter()
        naive_picked = _naive_select(pool, state, naive_picks)
        best_naive = min(best_naive, time.perf_counter() - t0)

    # Same greedy order (the equivalence property test covers this
    # exhaustively; here it guards the benchmark itself).
    assert [s.tx_id for s in picked[:naive_picks]] == [
        s.tx_id for s in naive_picked
    ], "indexed selection diverged from greedy reference"

    per_pick_indexed = best_indexed / len(picked)
    per_pick_naive = best_naive / len(naive_picked)
    return {
        "n_senders": n_senders,
        "picks": len(picked),
        "indexed_seconds_per_pick": per_pick_indexed,
        "naive_seconds_per_pick": per_pick_naive,
        "indexed_picks_per_second": 1.0 / per_pick_indexed,
        "naive_picks_per_second": 1.0 / per_pick_naive,
        "speedup_vs_naive": per_pick_naive / per_pick_indexed,
    }


# ----------------------------------------------------------------------
# Reputation writes: warm incremental solve vs cold full rebuild
# ----------------------------------------------------------------------
def _naive_trust_solve(
    local: Dict[Tuple[str, str], float],
    identities: List[str],
    pretrusted: List[str],
    alpha: float = 0.15,
    max_iterations: int = 100,
    tolerance: float = 1e-9,
) -> Dict[str, float]:
    """Pre-incremental per-write cost: re-sort identities, rebuild the
    index and edge arrays from the dict, iterate cold from the teleport
    vector, and materialise the full result dict."""
    ids = sorted(identities)
    index = {identity: i for i, identity in enumerate(ids)}
    n = len(ids)
    count = len(local)
    rows = np.fromiter((index[a] for a, _ in local), dtype=np.intp, count=count)
    cols = np.fromiter((index[b] for _, b in local), dtype=np.intp, count=count)
    vals = np.fromiter(local.values(), dtype=np.float64, count=count)
    p = np.zeros(n)
    pre = [i for i in pretrusted if i in index]
    if pre:
        p[[index[x] for x in pre]] = 1.0 / len(pre)
    else:
        p[:] = 1.0 / n
    row_sums = np.bincount(rows, weights=vals, minlength=n)
    weights = vals / row_sums[rows]
    has_out = row_sums > 0
    trust = p.copy()
    for _ in range(max_iterations):
        propagated = np.bincount(cols, weights=trust[rows] * weights, minlength=n)
        dangling = trust[~has_out].sum()
        updated = (1 - alpha) * (propagated + dangling * p) + alpha * p
        if np.abs(updated - trust).sum() < tolerance:
            trust = updated
            break
        trust = updated
    total = trust.sum()
    if total > 0:
        trust = trust / total
    return {identity: float(trust[i]) for i, identity in enumerate(ids)}


def bench_reputation_write(n_ids: int, smoke: bool) -> Dict[str, Any]:
    rng = random.Random(SEED)
    ids = [agent_address(i) for i in range(n_ids)]
    pretrusted = ids[: max(1, n_ids // 1000)]
    n_edges = n_ids * 3

    trust = EigenTrust(pretrusted=pretrusted)
    local: Dict[Tuple[str, str], float] = {}
    for identity in ids:
        trust.add_identity(identity)
    for _ in range(n_edges):
        a, b = rng.sample(ids, 2)
        sat = rng.random()
        trust.record_interaction(a, b, sat)
        key = (a, b)
        local[key] = local.get(key, 0.0) + sat
    trust.compute()  # converge once; writes below are incremental

    n_writes = 5 if smoke else 20
    writes = [tuple(rng.sample(ids, 2)) for _ in range(n_writes)]

    t0 = time.perf_counter()
    for a, b in writes:
        trust.record_interaction(a, b, 0.5)
        trust.trust_of(a)
    warm_seconds = (time.perf_counter() - t0) / n_writes

    naive_reps = 2 if smoke or n_ids >= 100_000 else 5
    best_naive = math.inf
    for k in range(naive_reps):
        a, b = writes[k % len(writes)]
        local[(a, b)] = local.get((a, b), 0.0) + 0.5
        t0 = time.perf_counter()
        result = _naive_trust_solve(local, ids, pretrusted)
        best_naive = min(best_naive, time.perf_counter() - t0)

    return {
        "n_identities": n_ids,
        "n_edges": n_edges,
        "warm_seconds_per_write": warm_seconds,
        "naive_seconds_per_write": best_naive,
        "warm_writes_per_second": 1.0 / warm_seconds,
        "naive_writes_per_second": 1.0 / best_naive,
        "speedup_vs_naive": best_naive / warm_seconds,
        "top_trust_sample": max(result.values()),
    }


# ----------------------------------------------------------------------
# Misinformation cascade: CSR round-vectorized engine vs scalar loop
# ----------------------------------------------------------------------
def bench_cascade(n_members: int, smoke: bool) -> Dict[str, Any]:
    graph = SocialGraph.scale_free(
        n_members, attachment=3, rng=np.random.default_rng(SEED)
    )
    seeds = list(graph.sorted_members()[:3])
    graph.csr()  # compile once up front; both engines then run warm

    def run(vectorized: bool):
        model = MisinformationModel(
            graph, np.random.default_rng(SEED), vectorized=vectorized
        )
        t0 = time.perf_counter()
        result = model.spread(seeds)
        return result, time.perf_counter() - t0

    vec_reps = 3 if smoke else 5
    loop_reps = 1 if smoke or n_members >= 100_000 else 3

    best_vec = math.inf
    for _ in range(vec_reps):
        vec_result, elapsed = run(vectorized=True)
        best_vec = min(best_vec, elapsed)

    best_loop = math.inf
    for _ in range(loop_reps):
        loop_result, elapsed = run(vectorized=False)
        best_loop = min(best_loop, elapsed)

    # Same PCG64 stream → byte-identical cascades; the property suite
    # pins this across topologies, here it guards the benchmark itself.
    assert vec_result.reached == loop_result.reached
    assert vec_result.timeline == loop_result.timeline
    assert vec_result.rounds == loop_result.rounds

    rounds = max(1, vec_result.rounds)
    return {
        "n_members": n_members,
        "n_edges": graph.edge_count,
        "reach": vec_result.reach,
        "rounds": vec_result.rounds,
        "vectorized_seconds_per_round": best_vec / rounds,
        "loop_seconds_per_round": best_loop / rounds,
        "vectorized_rounds_per_second": rounds / best_vec,
        "loop_rounds_per_second": rounds / best_loop,
        "speedup_vs_naive": best_loop / best_vec,
        "identical_cascades": True,
    }


# ----------------------------------------------------------------------
# Moderation classify: vectorized batch pass vs scalar draw loop
# ----------------------------------------------------------------------
def bench_moderation(n_interactions: int, smoke: bool) -> Dict[str, Any]:
    batch = synthetic_interaction_batch(
        n_agents=max(2, n_interactions),
        n_interactions=n_interactions,
        time=0.0,
        rng=np.random.default_rng(SEED),
        id_of=agent_address,
    )
    delivered_abusive = batch.abusive[np.flatnonzero(batch.delivered)]

    def naive_flags(rng: np.random.Generator, tpr: float, fpr: float):
        return np.fromiter(
            (rng.random() < (tpr if a else fpr) for a in delivered_abusive),
            dtype=bool,
            count=delivered_abusive.size,
        )

    reps = 3 if smoke else 5
    best_vec = math.inf
    for _ in range(reps):
        classifier = AbuseClassifier(np.random.default_rng(SEED))
        t0 = time.perf_counter()
        vec = classifier.flag_array(delivered_abusive)
        best_vec = min(best_vec, time.perf_counter() - t0)

    naive_reps = 1 if smoke or n_interactions >= 100_000 else 3
    best_naive = math.inf
    for _ in range(naive_reps):
        rng = np.random.default_rng(SEED)
        t0 = time.perf_counter()
        naive = naive_flags(rng, 0.8, 0.05)
        best_naive = min(best_naive, time.perf_counter() - t0)

    # rng.random(k) consumes the same PCG64 doubles as k scalar draws,
    # so the vectorized pass must reproduce the loop flag for flag.
    assert np.array_equal(vec, naive), "vectorized classify diverged"

    service = ModerationService(
        sanctions=GraduatedSanctionPolicy(world=None),
        classifier=AbuseClassifier(np.random.default_rng(SEED)),
        report_desk=ReportDesk(np.random.default_rng(SEED + 1)),
        reviewer=HumanModeratorPool(
            np.random.default_rng(SEED + 2),
            capacity_per_epoch=max(20, n_interactions // 20),
        ),
    )
    t0 = time.perf_counter()
    summary = service.process_batch(batch, time=0.0)
    pipeline_seconds = time.perf_counter() - t0

    per_vec = best_vec / delivered_abusive.size
    per_naive = best_naive / delivered_abusive.size
    return {
        "n_interactions": n_interactions,
        "delivered": int(delivered_abusive.size),
        "vectorized_seconds_per_classify": per_vec,
        "naive_seconds_per_classify": per_naive,
        "vectorized_classifies_per_second": 1.0 / per_vec,
        "naive_classifies_per_second": 1.0 / per_naive,
        "speedup_vs_naive": per_naive / per_vec,
        "pipeline_interactions_per_second": (
            len(batch) / pipeline_seconds if pipeline_seconds > 0 else math.inf
        ),
        "pipeline_opened": summary["opened"],
        "pipeline_backlog": summary["backlog"],
        "identical_flags": True,
    }


# ----------------------------------------------------------------------
# Load workload: population determinism + throughput
# ----------------------------------------------------------------------
def bench_load(n_agents: int, smoke: bool) -> Dict[str, Any]:
    epochs = 2 if smoke else 3
    kwargs = dict(
        n_agents=n_agents,
        epochs=epochs,
        seed=SEED,
        txs_per_epoch=500 if smoke else 1_000,
        ratings_per_epoch=250 if smoke else 500,
        reports_per_epoch=100 if smoke else 200,
        votes_per_epoch=150 if smoke else 300,
        interactions_per_epoch=1_000 if smoke else 2_000,
        frames_per_epoch=1_000 if smoke else 2_000,
    )
    t0 = time.perf_counter()
    first = run_load(**kwargs)
    elapsed = time.perf_counter() - t0
    second = run_load(**kwargs)

    first_payload = json.dumps(first.metrics, sort_keys=True)
    second_payload = json.dumps(second.metrics, sort_keys=True)
    if first_payload != second_payload:
        raise AssertionError(
            f"load workload not deterministic at n_agents={n_agents}"
        )

    total_ops = (
        first.txs_submitted
        + first.ratings_recorded
        + first.reports_filed
        + first.votes_cast
        + first.interactions_processed
        + first.frames_offered
    )
    return {
        "n_agents": n_agents,
        "epochs": epochs,
        "total_ops": total_ops,
        "seconds": elapsed,
        "ops_per_second": total_ops / elapsed if elapsed > 0 else math.inf,
        "chain_height": first.chain_height,
        "txs_included": first.txs_included,
        "trust_computes": first.trust_computes,
        "trust_sweeps": first.trust_sweeps,
        "interactions_processed": first.interactions_processed,
        "cases_opened": first.cases_opened,
        "moderation_backlog": first.moderation_backlog,
        "frames_offered": first.frames_offered,
        "frames_released": first.frames_released,
        "frames_blocked_consent": first.frames_blocked_consent,
        "frames_blocked_budget": first.frames_blocked_budget,
        "cascade_reach": first.cascade_reach,
        "byte_identical": True,
    }


# ----------------------------------------------------------------------
# Sharded multi-core execution: worker pools vs serial, byte for byte
# ----------------------------------------------------------------------
def _usable_cores() -> int:
    """Cores this process may actually run on, measured at bench time.

    ``os.cpu_count()`` reports the machine; cgroup- or affinity-limited
    containers can pin the process to fewer.  The speedup gate must be
    honest about what was measurable, so prefer the scheduler affinity
    mask where the platform exposes one.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def bench_workers(n_agents: int, smoke: bool) -> Dict[str, Any]:
    """Measure ``run_load(workers=K)`` for K in {1, 2, 4} on one tier.

    Equivalence is a hard assert at every K: the pooled metrics payload
    must match the serial bytes exactly.  The wall-clock gate (>= 2x
    with 4 workers) is only meaningful where 4 cores exist, so the
    result records the usable core count measured at bench time and
    ``gate_enforced``; check_gates skips the speedup bar (loudly) on
    smaller hosts.
    """
    epochs = 2
    # Heavier per-epoch volumes than bench_load so shard-local work
    # dominates the serialized barrier.  txs_per_epoch stays under the
    # mempool's 10k capacity: the two-phase ledger protocol requires the
    # authoritative mempool to admit every worker-admitted transaction.
    kwargs = dict(
        n_agents=n_agents,
        epochs=epochs,
        seed=SEED,
        txs_per_epoch=1_000 if smoke else 4_000,
        ratings_per_epoch=500 if smoke else 2_000,
        reports_per_epoch=200 if smoke else 800,
        votes_per_epoch=300 if smoke else 1_000,
        interactions_per_epoch=2_000 if smoke else 8_000,
        frames_per_epoch=1_000 if smoke else 4_000,
        cascade_members=min(n_agents, 1_000 if smoke else 4_000),
    )

    t0 = time.perf_counter()
    serial = run_load(workers=1, **kwargs)
    serial_seconds = time.perf_counter() - t0
    serial_payload = json.dumps(serial.metrics, sort_keys=True)

    runs: Dict[str, Any] = {
        "1": {"seconds": serial_seconds, "speedup_vs_serial": 1.0}
    }
    for k in (2, 4):
        t0 = time.perf_counter()
        pooled = run_load(workers=k, **kwargs)
        seconds = time.perf_counter() - t0
        payload = json.dumps(pooled.metrics, sort_keys=True)
        if payload != serial_payload:
            raise AssertionError(
                f"workers={k} diverged from serial at n_agents={n_agents} "
                "— the ordered reduction is not deterministic"
            )
        runs[str(k)] = {
            "seconds": seconds,
            "speedup_vs_serial": serial_seconds / seconds,
        }

    cores = _usable_cores()
    return {
        "n_agents": n_agents,
        "epochs": epochs,
        "n_shards": serial.n_shards,
        "txs_included": serial.txs_included,
        "frames_offered": serial.frames_offered,
        "cascade_reach": serial.cascade_reach,
        "cpu_count": os.cpu_count() or 1,
        "usable_cores": cores,
        "gate_enforced": cores >= PARALLEL_GATE_CORES,
        "workers": runs,
        "byte_identical": True,
    }


# ----------------------------------------------------------------------
# Elastic sharding: weighted-plan balance
# ----------------------------------------------------------------------
def bench_balance(n_agents: int, smoke: bool) -> Dict[str, Any]:
    """Measure shard balance under the cost-weighted plan.

    The imbalance number is max/mean per-shard wall seconds summed over
    the run, taken from the per-phase timings the workers record (see
    :class:`repro.obs.ShardImbalance`); it is timing-only and never
    enters metrics or traces.  The run uses ``workers=1`` so the
    measurement sees pure per-shard cost, not core contention, and is
    preceded by a ``gc.collect()`` so garbage inherited from earlier
    tiers cannot inject collection pauses into single phases.  The
    whole-run ``epoch`` imbalance (four epochs summed — single-epoch
    snapshots are too noisy at ~0.1s/shard) is the gated number at the
    100k tier; the final-epoch row is reported alongside.
    """
    import gc

    epochs = 4
    gc.collect()
    t0 = time.perf_counter()
    result = run_load(
        n_agents=n_agents,
        epochs=epochs,
        seed=SEED,
        workers=1,
        txs_per_epoch=1_000 if smoke else 4_000,
        ratings_per_epoch=500 if smoke else 2_000,
        reports_per_epoch=200 if smoke else 800,
        votes_per_epoch=300 if smoke else 1_000,
        interactions_per_epoch=2_000 if smoke else 8_000,
        frames_per_epoch=1_000 if smoke else 4_000,
        cascade_members=min(n_agents, 1_000 if smoke else 4_000),
    )
    seconds = time.perf_counter() - t0
    return {
        "n_agents": n_agents,
        "epochs": epochs,
        "seconds": seconds,
        "n_shards": result.n_shards,
        "imbalance": result.imbalance,
        "epoch_imbalance": result.imbalance["epoch"]["imbalance"],
        "final_epoch_imbalance": (
            result.imbalance["final_epoch"]["imbalance"]
        ),
        "gate_enforced": n_agents >= BALANCE_GATE_TIER,
    }


# ----------------------------------------------------------------------
# Quantile sketch: accuracy + bounded memory on a long stream
# ----------------------------------------------------------------------
def bench_sketch(smoke: bool) -> Dict[str, Any]:
    n_samples = 200_000 if smoke else 1_000_000
    rng = random.Random(SEED)
    sketch = SketchHistogram("scaling.sketch")
    exact = Histogram("scaling.exact")
    t0 = time.perf_counter()
    for _ in range(n_samples):
        value = rng.lognormvariate(0.0, 1.0)
        sketch.observe(value)
    sketch_seconds = time.perf_counter() - t0
    rng = random.Random(SEED)
    for _ in range(n_samples):
        exact.observe(rng.lognormvariate(0.0, 1.0))

    ordered = sorted(exact.samples)

    def rank_error(q: float) -> float:
        import bisect

        approx = sketch.percentile(q)
        return abs(bisect.bisect_left(ordered, approx) / n_samples - q / 100.0)

    worst = max(rank_error(q) for q in (1, 5, 25, 50, 75, 90, 95, 99))
    return {
        "n_samples": n_samples,
        "observe_seconds": sketch_seconds,
        "observes_per_second": n_samples / sketch_seconds,
        "centroid_count": sketch.centroid_count,
        "worst_rank_error": worst,
        "exact_count": sketch.count == n_samples,
        "exact_extremes": (
            sketch.minimum == ordered[0] and sketch.maximum == ordered[-1]
        ),
    }


# ----------------------------------------------------------------------
# Columnar agent-state core: struct-of-arrays vs object/dict society
# ----------------------------------------------------------------------
def bench_columnar_kernels(n_agents: int, smoke: bool) -> Dict[str, Any]:
    """The load phases, columnar vs the object/dict implementations.

    Four phases, each timed best-of-``reps`` on identical pre-generated
    data: society build, one epoch of ledger writes, one privacy-budget
    charge batch, and the per-epoch trust-top readout.  At <= 10k agents
    the two implementations are additionally asserted *exactly*
    equivalent — every balance, nonce, accept/refuse decision, bit-level
    spent accumulator, and trust top.  The object ledger loop pays the
    full per-tx pipeline (``require_valid`` included) because that is
    what each transaction costs on the dict path; transaction
    construction is excluded from both sides.

    ``combined_speedup`` covers the three *recurring* load phases — the
    work an epoch repeats.  Society build is one-time setup, reported
    with its own speedup but not gated: both sides of it are dominated
    by building Python dict/set structures over 64-char address strings
    (the columnar side its interner, the object side its genesis dict
    and per-agent registration), so it is roughly a wash and says
    nothing about steady-state throughput.
    """
    rng = np.random.default_rng(SEED)
    addresses = agent_addresses(n_agents)
    pretrusted = addresses[: max(1, n_agents // 1000)]
    check = n_agents <= 10_000  # exact-equivalence tier
    reps = 2 if smoke else 3

    # -- society build: typed columns + bulk registration vs dicts + loop
    best_col = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        table = AgentTable(addresses, initial_balance=1_000_000, privacy_cap=1.0)
        rep_col = ReputationSystem(pretrusted=pretrusted)
        rep_col.register_identities(addresses)
        best_col = min(best_col, time.perf_counter() - t0)
    best_obj = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        balances = {address: 1_000_000 for address in addresses}
        rep_obj = ReputationSystem(pretrusted=pretrusted)
        for address in addresses:
            rep_obj.register_identity(address)
        best_obj = min(best_obj, time.perf_counter() - t0)
    society = {"columnar_seconds": best_col, "object_seconds": best_obj}
    if check:
        state_view = LedgerState.from_columns(table)
        step = max(1, n_agents // 256)
        for address in addresses[::step]:
            if state_view.balance_of(address) != balances[address]:
                raise AssertionError("columnar genesis diverged from dict")
        if rep_col._eigentrust._identities != rep_obj._eigentrust._identities:
            raise AssertionError("bulk registration diverged from loop")

    # -- one epoch of ledger writes: bulk column kernel vs per-tx apply
    n_txs = max(500, n_agents // 25)
    senders_idx = rng.integers(0, n_agents, size=n_txs)
    recipients_idx = (
        senders_idx + 1 + rng.integers(0, n_agents - 1, size=n_txs)
    ) % n_agents
    amounts = rng.integers(1, 100, size=n_txs)
    fees = rng.integers(1, 10, size=n_txs)
    # Consecutive nonces per sender in batch order (base nonces are 0).
    order = np.argsort(senders_idx, kind="stable")
    sorted_senders = senders_idx[order]
    boundary = np.r_[True, sorted_senders[1:] != sorted_senders[:-1]]
    starts = np.flatnonzero(boundary)
    ranks = np.empty(n_txs, dtype=np.int64)
    ranks[order] = np.arange(n_txs, dtype=np.int64) - starts[
        np.cumsum(boundary) - 1
    ]
    nonces = ranks
    stxs = [
        synthetic_transfer(
            addresses[s],
            addresses[r],
            amount=int(a),
            fee=int(f),
            nonce=int(nn),
        )
        for s, r, a, f, nn in zip(senders_idx, recipients_idx, amounts, fees, nonces)
    ]
    best_col = math.inf
    for _ in range(reps):
        fresh = AgentTable(addresses, initial_balance=1_000_000)
        sink = np.zeros(1, dtype=np.int64)
        t0 = time.perf_counter()
        fresh.apply_transfers(
            senders_idx, recipients_idx, amounts, fees, nonces=nonces, fee_sink=sink
        )
        best_col = min(best_col, time.perf_counter() - t0)
    obj_reps = 1 if smoke or n_agents >= 100_000 else reps
    best_obj = math.inf
    for _ in range(obj_reps):
        state = LedgerState({address: 1_000_000 for address in addresses})
        t0 = time.perf_counter()
        for stx in stxs:
            state.apply(stx)
        best_obj = min(best_obj, time.perf_counter() - t0)
    ledger = {"n_txs": n_txs, "columnar_seconds": best_col, "object_seconds": best_obj}
    if check:
        table_eq = AgentTable(addresses, initial_balance=1_000_000)
        sink = np.zeros(1, dtype=np.int64)
        table_eq.apply_transfers(
            senders_idx, recipients_idx, amounts, fees, nonces=nonces, fee_sink=sink
        )
        state_eq = LedgerState({address: 1_000_000 for address in addresses})
        for stx in stxs:
            state_eq.apply(stx)
        for i, address in enumerate(addresses):
            if state_eq.balance_of(address) != int(table_eq.balances[i]) or (
                state_eq.nonce_of(address) != int(table_eq.nonces[i])
            ):
                raise AssertionError("bulk apply diverged from per-tx apply")
        if int(sink[0]) != int(fees.sum()):
            raise AssertionError("fee sink diverged from per-tx fee burn")

    # -- privacy-budget charging: vectorized column kernel vs dict loop
    n_hot = max(8, n_agents // 100)
    hot_idx = np.arange(n_agents, dtype=np.int64)[:: max(1, n_agents // n_hot)][:n_hot]
    subjects_idx = np.repeat(hot_idx, 5)
    rng.shuffle(subjects_idx)
    eps_list = rng.choice(np.array([0.05, 0.2, 0.45]), size=subjects_idx.size).tolist()
    subjects = [addresses[i] for i in subjects_idx]
    best_col = math.inf
    for _ in range(reps):
        table.privacy_spent[:] = 0.0
        budget_col = PrivacyBudget.from_table(table)
        t0 = time.perf_counter()
        col_accepted = budget_col.charge_many(subjects, eps_list, record_ledger=False)
        best_col = min(best_col, time.perf_counter() - t0)
    best_obj = math.inf
    for _ in range(reps):
        budget_obj = PrivacyBudget(default_cap=1.0)
        t0 = time.perf_counter()
        obj_accepted = budget_obj.charge_many(subjects, eps_list, record_ledger=False)
        best_obj = min(best_obj, time.perf_counter() - t0)
    budget = {
        "n_charges": len(subjects),
        "accepted": int(sum(col_accepted)),
        "columnar_seconds": best_col,
        "object_seconds": best_obj,
    }
    if col_accepted != obj_accepted:
        raise AssertionError("columnar charge decisions diverged from loop")
    if check:
        for i in hot_idx:
            if budget_obj.spent(addresses[i]) != float(table.privacy_spent[i]):
                raise AssertionError("columnar spent accumulator diverged")

    # -- per-epoch trust-top readout: solved-vector max vs full dict
    n_edges = max(200, n_agents // 20)
    raters = rng.integers(0, n_agents, size=n_edges)
    targets = (raters + 1 + rng.integers(0, n_agents - 1, size=n_edges)) % n_agents
    for a, b in zip(raters, targets):
        rep_col.record(addresses[a], addresses[b], positive=True)
        rep_obj.record(addresses[a], addresses[b], positive=True)
    top_col = rep_col.global_trust_top()  # first solve (untimed, both)
    top_obj = max(rep_obj.global_trust().values())
    readouts = 3 if smoke else 5
    t0 = time.perf_counter()
    for _ in range(readouts):
        rep_col._global_cache = None
        top_col = rep_col.global_trust_top()
    col_readout = (time.perf_counter() - t0) / readouts
    t0 = time.perf_counter()
    for _ in range(readouts):
        rep_obj._global_cache = None
        top_obj = max(rep_obj.global_trust().values())
    obj_readout = (time.perf_counter() - t0) / readouts
    if top_col != top_obj:
        raise AssertionError("columnar trust top diverged from dict max")
    trust = {
        "n_edges": n_edges,
        "top_trust": top_col,
        "columnar_seconds": col_readout,
        "object_seconds": obj_readout,
    }

    phases = {
        "society_build": society,
        "ledger_epoch_apply": ledger,
        "budget_charge": budget,
        "trust_readout": trust,
    }
    for stats in phases.values():
        stats["speedup_vs_object"] = stats["object_seconds"] / stats["columnar_seconds"]
    epoch_phases = ("ledger_epoch_apply", "budget_charge", "trust_readout")
    col_total = sum(phases[name]["columnar_seconds"] for name in epoch_phases)
    obj_total = sum(phases[name]["object_seconds"] for name in epoch_phases)
    return {
        "n_agents": n_agents,
        "bytes_per_agent": table.bytes_per_agent,
        "phases": phases,
        "epoch_phases": list(epoch_phases),
        "columnar_seconds": col_total,
        "object_seconds": obj_total,
        "combined_speedup": obj_total / col_total,
        "exact_equivalence_checked": check,
    }


def bench_columnar_million() -> Dict[str, Any]:
    """The 1,000,000-agent tier: the full load workload.

    No object-path comparison here — the dict society does not scale to
    this population.  The interesting numbers are that the
    run *completes*, its column bytes/agent, ops/s, and peak RSS (which
    is dominated by the interned address strings, not the columns).
    """
    import resource

    n_agents = COLUMNAR_MILLION_TIER
    kwargs = dict(
        n_agents=n_agents,
        epochs=2,
        seed=SEED,
        txs_per_epoch=2_000,
        ratings_per_epoch=1_000,
        reports_per_epoch=400,
        votes_per_epoch=500,
        interactions_per_epoch=4_000,
        frames_per_epoch=4_000,
        cascade_members=2_000,
    )
    t0 = time.perf_counter()
    result = run_load(**kwargs)
    seconds = time.perf_counter() - t0
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    total_ops = (
        result.txs_submitted
        + result.ratings_recorded
        + result.reports_filed
        + result.votes_cast
        + result.interactions_processed
        + result.frames_offered
    )
    return {
        "n_agents": n_agents,
        "epochs": kwargs["epochs"],
        "seconds": seconds,
        "total_ops": total_ops,
        "ops_per_second": total_ops / seconds if seconds > 0 else math.inf,
        "table_bytes_per_agent": result.table_bytes_per_agent,
        "peak_rss_mib": peak_rss_kib / 1024.0,
        "chain_height": result.chain_height,
        "txs_included": result.txs_included,
        "frames_offered": result.frames_offered,
        "cascade_reach": result.cascade_reach,
        "completed": True,
    }


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
def run_suite(
    smoke: bool,
    parallel_only: bool = False,
    columnar_only: bool = False,
    million: bool = False,
) -> Dict[str, Any]:
    report: Dict[str, Any] = {
        "suite": "benchmarks/scaling.py",
        "seed": SEED,
        "smoke": smoke,
        "tiers": {},
    }
    if columnar_only:
        # The make bench-columnar gate: 10k-tier exact kernel
        # equivalence and the bytes/agent ceiling.
        print("columnar kernels tier 10000 ...", flush=True)
        report["columnar"] = {
            "kernels": {"10000": bench_columnar_kernels(10_000, smoke=True)},
        }
        return report
    if not parallel_only:
        for tier in TIERS:
            print(f"tier {tier} ...", flush=True)
            report["tiers"][str(tier)] = {
                "mempool_select": bench_mempool_select(tier, smoke),
                "reputation_write": bench_reputation_write(tier, smoke),
                "cascade_round": bench_cascade(tier, smoke),
                "moderation_classify": bench_moderation(tier, smoke),
                "load_workload": bench_load(tier, smoke),
            }
        report["sketch"] = bench_sketch(smoke)
        columnar: Dict[str, Any] = {"kernels": {}}
        for tier in (10_000, COLUMNAR_GATE_TIER):
            print(f"columnar kernels tier {tier} ...", flush=True)
            columnar["kernels"][str(tier)] = bench_columnar_kernels(tier, smoke)
        if million or not smoke:
            print(f"columnar tier {COLUMNAR_MILLION_TIER} ...", flush=True)
            columnar["million"] = bench_columnar_million()
        report["columnar"] = columnar
    # The workers tier runs at the gate tier (100k agents full mode,
    # 10k in smoke so CI stays fast); equivalence is asserted inside.
    parallel_tier = 10_000 if smoke else PARALLEL_GATE_TIER
    print(f"parallel workers tier {parallel_tier} ...", flush=True)
    report["parallel"] = bench_workers(parallel_tier, smoke)
    print(f"shard balance tier {parallel_tier} ...", flush=True)
    report["balance"] = bench_balance(parallel_tier, smoke)
    return report


def check_gates(report: Dict[str, Any]) -> List[str]:
    """The PR's acceptance gates, evaluated on a finished report."""
    failures: List[str] = []
    if report["tiers"]:
        tier = report["tiers"]["10000"]
        for name in (
            "mempool_select",
            "reputation_write",
            "cascade_round",
            "moderation_classify",
        ):
            speedup = tier[name]["speedup_vs_naive"]
            if speedup < REQUIRED_SPEEDUP_AT_10K:
                failures.append(
                    f"{name} at 10k tier: {speedup:.2f}x < "
                    f"{REQUIRED_SPEEDUP_AT_10K}x required"
                )
        if report["sketch"]["worst_rank_error"] > 0.01:
            failures.append(
                f"sketch rank error {report['sketch']['worst_rank_error']:.4f} "
                "exceeds the documented 1% tolerance"
            )
    columnar = report.get("columnar")
    if columnar is not None:
        for tier, kernels in columnar["kernels"].items():
            if kernels["bytes_per_agent"] > COLUMNAR_BYTES_PER_AGENT_CEILING:
                failures.append(
                    f"columnar bytes/agent at {tier}: "
                    f"{kernels['bytes_per_agent']:.1f} > "
                    f"{COLUMNAR_BYTES_PER_AGENT_CEILING} ceiling"
                )
        gate_kernels = columnar["kernels"].get(str(COLUMNAR_GATE_TIER))
        if gate_kernels is not None:
            speedup = gate_kernels["combined_speedup"]
            if speedup < REQUIRED_COLUMNAR_SPEEDUP:
                failures.append(
                    f"columnar combined speedup at {COLUMNAR_GATE_TIER}: "
                    f"{speedup:.2f}x < {REQUIRED_COLUMNAR_SPEEDUP}x required"
                )
        million = columnar.get("million")
        if million is not None:
            if not million["completed"]:
                failures.append("1M-agent columnar tier did not complete")
            if million["table_bytes_per_agent"] > COLUMNAR_BYTES_PER_AGENT_CEILING:
                failures.append(
                    f"1M tier bytes/agent {million['table_bytes_per_agent']:.1f} "
                    f"> {COLUMNAR_BYTES_PER_AGENT_CEILING} ceiling"
                )
    parallel = report.get("parallel")
    if parallel is not None:
        speedup = parallel["workers"]["4"]["speedup_vs_serial"]
        if parallel["gate_enforced"]:
            if speedup < REQUIRED_PARALLEL_SPEEDUP:
                failures.append(
                    f"workers=4 at {parallel['n_agents']} agents: "
                    f"{speedup:.2f}x < {REQUIRED_PARALLEL_SPEEDUP}x required"
                )
        else:
            print(
                f"  SKIPPED parallel >={REQUIRED_PARALLEL_SPEEDUP}x gate: "
                f"only {parallel.get('usable_cores', parallel['cpu_count'])} "
                f"usable core(s) on this host, need >= {PARALLEL_GATE_CORES} "
                "(byte-equivalence still enforced)"
            )
    balance = report.get("balance")
    if balance is not None:
        imbalance = balance["epoch_imbalance"]
        if balance["gate_enforced"]:
            if imbalance > REQUIRED_BALANCE_IMBALANCE:
                failures.append(
                    f"shard imbalance at {balance['n_agents']} agents: "
                    f"{imbalance:.3f}x > {REQUIRED_BALANCE_IMBALANCE}x "
                    "allowed"
                )
        else:
            print(
                f"  SKIPPED balance <={REQUIRED_BALANCE_IMBALANCE}x gate: "
                f"smoke tier {balance['n_agents']} agents < "
                f"{BALANCE_GATE_TIER} gate tier (measured "
                f"{imbalance:.2f}x)"
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="fast mode (<90s)")
    parser.add_argument(
        "--parallel-only",
        action="store_true",
        help="run only the sharded-workers tier",
    )
    parser.add_argument(
        "--columnar-only",
        action="store_true",
        help="run only the columnar 10k kernel tier",
    )
    parser.add_argument(
        "--million",
        action="store_true",
        help="include the 1M-agent columnar tier (implied by full mode)",
    )
    parser.add_argument(
        "--report", type=Path, default=REPORT_PATH, help="output JSON path"
    )
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    report = run_suite(
        smoke=args.smoke,
        parallel_only=args.parallel_only,
        columnar_only=args.columnar_only,
        million=args.million,
    )
    report["wall_seconds"] = time.perf_counter() - t0

    args.report.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.report}")

    for tier, kernels in sorted(report["tiers"].items(), key=lambda kv: int(kv[0])):
        sel = kernels["mempool_select"]
        rep = kernels["reputation_write"]
        cas = kernels["cascade_round"]
        mod = kernels["moderation_classify"]
        load = kernels["load_workload"]
        print(
            f"  {int(tier):>7,} agents: "
            f"select {sel['speedup_vs_naive']:6.1f}x | "
            f"reputation {rep['speedup_vs_naive']:5.1f}x | "
            f"cascade {cas['speedup_vs_naive']:6.1f}x | "
            f"moderation {mod['speedup_vs_naive']:5.1f}x | "
            f"load {load['ops_per_second']:,.0f} ops/s (byte-identical)"
        )
    if "sketch" in report:
        sk = report["sketch"]
        print(
            f"  sketch: {sk['observes_per_second']:,.0f} obs/s, "
            f"{sk['centroid_count']} centroids, "
            f"worst rank error {sk['worst_rank_error']*100:.3f}%"
        )
    columnar = report.get("columnar")
    if columnar is not None:
        for tier, kernels in sorted(
            columnar["kernels"].items(), key=lambda kv: int(kv[0])
        ):
            per_phase = " | ".join(
                f"{name} {stats['speedup_vs_object']:5.1f}x"
                for name, stats in kernels["phases"].items()
            )
            print(
                f"  columnar {int(tier):>7,} agents: {per_phase} | "
                f"combined {kernels['combined_speedup']:.1f}x, "
                f"{kernels['bytes_per_agent']:.0f} B/agent"
            )
        million = columnar.get("million")
        if million is not None:
            print(
                f"  columnar {million['n_agents']:>9,} agents: "
                f"{million['seconds']:.1f}s, "
                f"{million['ops_per_second']:,.0f} ops/s, "
                f"{million['table_bytes_per_agent']:.0f} B/agent columns, "
                f"peak RSS {million['peak_rss_mib']:,.0f} MiB"
            )
    par = report.get("parallel")
    if par is not None:
        worker_cols = " | ".join(
            f"workers={k} {par['workers'][k]['seconds']:6.1f}s "
            f"({par['workers'][k]['speedup_vs_serial']:.2f}x)"
            for k in sorted(par["workers"], key=int)
        )
        print(
            f"  parallel {par['n_agents']:>7,} agents, {par['n_shards']} shards: "
            f"{worker_cols} (byte-identical, "
            f"{par.get('usable_cores', par['cpu_count'])} usable core(s))"
        )
    bal = report.get("balance")
    if bal is not None:
        print(
            f"  balance {bal['n_agents']:>8,} agents: shard imbalance "
            f"{bal['epoch_imbalance']:.2f}x "
            f"(final epoch {bal['final_epoch_imbalance']:.2f}x)"
        )

    failures = check_gates(report)
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    if not failures:
        print(f"scaling gates OK ({report['wall_seconds']:.1f}s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
