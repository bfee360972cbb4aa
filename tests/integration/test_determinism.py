"""Golden digests: every seeded scenario reproduces committed bytes.

Each row of ``ROWS`` names one seeded call, its base config, a list of
cells (overrides of knobs such as the worker count, which must never
change an output byte), the artifacts to digest with their
committed sha256, and a check that sees every cell's result.  Every
cell must reproduce the committed digests exactly: that one comparison
shows the cells agree with each other and that outputs have not moved
since the digests were taken.  The check then asserts what a digest
cannot show, such as that a comparison was not vacuous.

A change that alters outputs on purpose edits the digests here by hand
and says why in CHANGES.md.  Run this file alone with
``make determinism``.
"""

import hashlib
import os
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.obs.context import head_sampled
from repro.obs.exporters import load_trace_jsonl, request_breakdowns
from repro.serving.run import run_serving
from repro.serving.schemas import Endpoint, Status
from repro.sim import MetricsRegistry, RngRegistry, Simulator, TraceLog
from repro.workloads import (
    build_flat_dao,
    run_governance_stress,
    run_load,
    run_market_season,
    run_observability_scenario,
)
from repro.workloads.traffic import SpikeWindow, TrafficConfig, generate_traffic
from tests.flash_crowd import FLASH_CROWD, FLASH_CROWD_SLO, HEAD_RATE

BENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "perfbench",
)
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)
from spec import WORKLOADS, metrics_digest  # noqa: E402

# (cell overrides, result) for every cell of a row, in cell order.
Runs = List[Tuple[Dict[str, Any], Any]]


@dataclass(frozen=True)
class Row:
    name: str
    call: Callable[..., Any]
    base: Dict[str, Any]
    cells: Sequence[Dict[str, Any]]
    # Result attribute -> committed sha256 of its bytes.
    digests: Dict[str, str]
    check: Callable[[Runs], None]


def _digest(value) -> str:
    """sha256 of an exported string, or of a value's sorted-key JSON
    (for a metrics payload: the digest ``perfbench/run.py`` prints)."""
    if isinstance(value, str):
        return hashlib.sha256(value.encode()).hexdigest()
    return metrics_digest(value)


# --- load: the sharded society run -------------------------------------

# Small enough to run in a fraction of a second, big enough that every
# phase carries real traffic: several shards, binding privacy caps and
# live cascade boundaries.
LOAD = dict(
    n_agents=1_200,
    epochs=3,
    seed=2022,
    txs_per_epoch=240,
    ratings_per_epoch=120,
    reports_per_epoch=60,
    votes_per_epoch=80,
    electorate_size=400,
    interactions_per_epoch=300,
    frames_per_epoch=240,
    cascade_members=120,
    trace=True,
)


def _load_invariants(runs: Runs) -> None:
    for _, result in runs:
        assert result.n_shards > 1
        assert result.table_bytes_per_agent == 12.0
        assert result.trace_jsonl
        assert result.txs_included == result.txs_submitted > 0
        assert result.proposals_closed == result.trust_computes == result.epochs
        assert result.frames_released > 0
        assert result.frames_blocked_consent > 0


# --- traffic: the arrival table every serving row starts from ---------

# Every endpoint, a fifth of the writes malformed, two flash crowds that
# overlap in [9, 12) and a heavy per-user tail.
TRAFFIC = dict(
    n_users=80,
    horizon=20.0,
    rate_per_user=1.5,
    seed=2022,
    spikes=(SpikeWindow(6.0, 12.0, 3.0), SpikeWindow(9.0, 15.0, 2.0)),
    pareto_shape=1.3,
    invalid_frac=0.2,
)


def _traffic(**config) -> SimpleNamespace:
    arrivals = generate_traffic(TrafficConfig(**config))
    # By repr: malformed payloads carry NaN, and NaN != NaN.
    return SimpleNamespace(
        arrivals=arrivals,
        arrivals_repr="\n".join(repr(arrival) for arrival in arrivals),
    )


def _traffic_invariants(runs: Runs) -> None:
    writes = set(Endpoint) - {Endpoint.GET_BALANCE, Endpoint.GET_TALLY}
    for _, result in runs:
        requests = [arrival.request for arrival in result.arrivals]
        assert {request.endpoint for request in requests} == set(Endpoint)
        malformed = {
            request.endpoint for request in requests
            if request.validate() is not None
        }
        assert malformed == writes
        assert any(9.0 <= arrival.time < 12.0 for arrival in result.arrivals)


# --- serving: one flash crowd through the serving tier -----------------

# Tracing, SLOs and sampling add exports but never change the metrics.
FLASH_CROWD_METRICS = (
    "95249c4b472ee90f096fdeb097b43ea62296dfa667b76d30dd882f32eceb9408"
)


def _serving_invariants(runs: Runs) -> None:
    for _, result in runs:
        counts = result.status_counts
        for status in (Status.OK, Status.SHED, Status.INVALID, Status.REFUSED):
            assert counts.get(int(status), 0) > 0, status
        assert counts.get(int(Status.ERROR), 0) == 0
        assert result.cache_hit_rate > 0
        assert result.blocks_produced > 0
        assert result.txs_included > 0
        assert result.cases_reviewed > 0
        assert result.offered == result.completed
        assert result.trace_jsonl


def _slo_invariants(runs: Runs) -> None:
    # The alert timeline, error budget, coverage floor and tail-sampling
    # counts of this scenario are asserted in tests/obs/test_slo_e2e.py.
    for _, result in runs:
        breakdowns = request_breakdowns(load_trace_jsonl(result.trace_jsonl))
        assert breakdowns
        # Head sampling is a pure function of the trace id.
        for trace in breakdowns:
            recomputed = head_sampled(trace["trace_id"], HEAD_RATE)
            assert recomputed == (trace["kept_by"] == "head"), trace


def _observability_invariants(runs: Runs) -> None:
    for _, result in runs:
        # No orphan spans, and at least one root action.
        assert result.causally_complete, (result.n_roots, result.n_orphans)


# --- seeded replays of the engine and two scenarios --------------------

REPLAY_SEED = 424242


def _engine(seed: int) -> SimpleNamespace:
    """A sim workload through every cached engine path: recurring
    events, cancellation churn, snapshot-reading tick hooks and
    histograms."""
    rng = RngRegistry(seed=seed).stream("workload")
    sim = Simulator()
    trace = TraceLog()
    metrics = MetricsRegistry()
    sim.add_tick_hook(
        lambda now: metrics.gauge("engine.pending").set(sim.pending_count)
    )
    cancellable = []

    def arrival(i):
        metrics.counter("arrivals").inc()
        metrics.histogram("latency").observe(float(rng.uniform(0.0, 10.0)))
        trace.emit(sim.now, "workload", "arrival", index=i, snap=sim.snapshot())
        # Schedule a far-future timeout, then churn-cancel an older one.
        cancellable.append(
            sim.schedule_in(1000.0, lambda: None, name=f"timeout-{i}")
        )
        if len(cancellable) > 3:
            victim = cancellable.pop(int(rng.integers(len(cancellable))))
            victim.cancel()
            metrics.counter("cancelled").inc()

    for i in range(60):
        sim.schedule(float(rng.uniform(0.0, 30.0)), lambda i=i: arrival(i))
    heartbeat = sim.every(
        5.0, lambda: trace.emit(sim.now, "hb", "tick", pending=sim.pending_count)
    )
    sim.run_until(30.0)
    heartbeat.cancel()
    # The second summary is served from the sorted-sample cache.
    assert (
        metrics.histogram("latency").summary()
        == metrics.histogram("latency").summary()
    )
    return SimpleNamespace(
        trace=[
            {"time": r.time, "source": r.source, "kind": r.kind,
             "payload": r.payload}
            for r in trace
        ],
        metrics=metrics.as_dict(),
    )


def _engine_invariants(runs: Runs) -> None:
    for _, result in runs:
        assert result.metrics["counters"]["cancelled"] > 0


def _governance_stress(seed: int):
    rng = np.random.default_rng(seed)
    topics = ["art", "land", "safety"]
    dao = build_flat_dao(40, topics, rng)
    descriptors = [
        {"title": f"p-{i}", "topic": topics[i % 3]} for i in range(30)
    ]
    return run_governance_stress(dao, descriptors, rng, epochs=5)


def _governance_invariants(runs: Runs) -> None:
    for _, result in runs:
        assert result.ballots_cast > 0


def _market_season(seed: int):
    rng = np.random.default_rng(seed)
    return run_market_season(
        "reputation-vetted", 20, 0.25, rng, epochs=6, buyers=10
    )


def _market_invariants(runs: Runs) -> None:
    for _, result in runs:
        assert result.sale_prices  # the marketplace sold


# --- perfbench's workloads at the benchmark's default seed -------------


def _perfbench_row(
    name: str, digests: Dict[str, str], bytes_per_agent: Optional[float] = None
) -> Row:
    workload = WORKLOADS[name]

    def check(runs: Runs) -> None:
        for _, result in runs:
            assert workload.examine(result)[2] == []  # no failed checks
            if bytes_per_agent is not None:
                assert result.table_bytes_per_agent == bytes_per_agent

    return Row(
        f"perfbench/{name}", workload.call, dict(seed=2022), [{}], digests, check
    )


# Digests taken with Python 3.11 and numpy 2.4.6; another numpy release
# may draw different random streams.
ROWS = [
    Row(
        "load",
        run_load,
        LOAD,
        [dict(workers=workers) for workers in (1, 2, 4)],
        dict(
            metrics="d7bad0abf133337195b9855b85672d3ec5d801b08eb908aba5698320adbcb0e9",
            trace_jsonl="98d5d04b43f42249049004acd9fa54c504f9cb43cc6af5028ceeee8799e0a0f1",
        ),
        _load_invariants,
    ),
    Row(
        "traffic",
        _traffic,
        TRAFFIC,
        [{}],
        dict(
            arrivals_repr="86e4c2b28379577a3f9e967ec3ee76b2c4d1b41b82643c94fe41802c1a1944a4",
        ),
        _traffic_invariants,
    ),
    Row(
        "serving",
        run_serving,
        {**FLASH_CROWD, "trace": True},
        [{}],
        dict(
            metrics=FLASH_CROWD_METRICS,
            trace_jsonl="c2dd363641a4d962e5a1bb317a5bbc21d5fa81e46fff36d0c346e5717a046a27",
        ),
        _serving_invariants,
    ),
    Row(
        "serving-slo",
        run_serving,
        FLASH_CROWD_SLO,
        [{}],
        dict(
            metrics=FLASH_CROWD_METRICS,
            trace_jsonl="41a5a28ae0fa42cd9487f7e42bfed6da691b16f0707f58a929e9e31547df39c3",
            timeseries_json="546a49f56a4cc3658f87238bd15e0b90adfd2765c5988b90dc9992b4f90e8218",
            alerts_json="95af7728f128d8c708495c8752ff0e515d1b46269d919eb705cbc7de2e68492a",
        ),
        _slo_invariants,
    ),
    Row(
        "observability",
        run_observability_scenario,
        dict(seed=2022),
        [{}],
        dict(jsonl="db5326f55b619d250977430eade3fa7d954bc1dca85f53e6536d44c0729e3c6d"),
        _observability_invariants,
    ),
    Row(
        "engine",
        _engine,
        dict(seed=REPLAY_SEED),
        [{}],
        dict(
            trace="6f61168c0f768610f582cc19088d8d7284ca79548237ed407dd1f89c85e08ce6",
            metrics="3626d8587248a26e40d83a0525cb59b446b5a93c1df07a68f5e9da005b4e55e2",
        ),
        _engine_invariants,
    ),
    # "__dict__" digests every field of the result dataclass.
    Row(
        "governance-stress",
        _governance_stress,
        dict(seed=REPLAY_SEED),
        [{}],
        {"__dict__": "f6f40fc44978424461cae206e7e3296f93fa4495d7a3f6c373369f260a1b7e03"},
        _governance_invariants,
    ),
    Row(
        "market-season",
        _market_season,
        dict(seed=REPLAY_SEED),
        [{}],
        {"__dict__": "e8ca3f59afce3ce967283444347a376bce83784cfec7369c174bb8cb15868454"},
        _market_invariants,
    ),
    # The society rows hold the agent table to its 28 column bytes per
    # agent at 100k and 1M agents.
    _perfbench_row(
        "society-100k",
        dict(metrics="f6ac7fdfc0f0c6c6c3bb121be649fb7e753fda86a3d5f87e802d9215cb390298"),
        bytes_per_agent=12.0,
    ),
    _perfbench_row(
        "serving-flash",
        dict(
            metrics="a9e1476800b7d5db0c5ff03002cb51f5cf52913bc7638ba7de913e9b17a5bb3e",
            trace_jsonl="b58a40f8820f24182359f1428a3fada7f2742f86e0891741df927cc76b4704d4",
            timeseries_json="664bb34e19fadd3fecdf0d4a0fee08e7e3d97e50e1daaff04e82b841569b48cd",
            alerts_json="75b7505b0dbf25a738661fc6dd72e1fff6019735ff9a50ca896f336366147378",
        ),
    ),
    _perfbench_row(
        "society-1m",
        dict(metrics="8907614302efe4d31eca2b975cef4c55b34b5cc15565bed8380bd4abcd5406ad"),
        bytes_per_agent=12.0,
    ),
]


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_golden_digests(row):
    runs: Runs = []
    for cell in row.cells:
        result = row.call(**{**row.base, **cell})
        for artifact, committed in row.digests.items():
            actual = _digest(getattr(result, artifact))
            assert actual == committed, (
                f"row {row.name!r} cell {cell} artifact {artifact!r}: "
                f"committed {committed}, actual {actual}"
            )
        runs.append((cell, result))
    row.check(runs)


def test_a_different_seed_moves_the_engine_digests():
    # Guards against the digest comparison passing vacuously.
    (row,) = [row for row in ROWS if row.name == "engine"]
    other = _engine(seed=REPLAY_SEED + 1)
    for artifact, committed in row.digests.items():
        assert _digest(getattr(other, artifact)) != committed, artifact
