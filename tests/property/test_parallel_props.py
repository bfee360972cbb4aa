"""Property-based tests: ``run_load(workers=K)`` is K-invariant.

The sharded execution layer's whole claim is that the worker count is a
*scheduling* knob, not a semantics knob: for any population, epoch
count, seed, and traffic mix, the metrics payload (and exported trace)
produced with a process pool must match the serial bytes exactly.
Hypothesis sweeps small randomized configurations, whose weighted shard
cuts replan every epoch; the scaling suite covers the 100k tier.

Examples are deliberately few — each one runs the full workload four
times (workers 1, 2, 3, 4) through real process pools.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.workloads.load import run_load

configs = st.fixed_dictionaries(
    {
        "n_agents": st.integers(min_value=60, max_value=400),
        "epochs": st.integers(min_value=1, max_value=2),
        "seed": st.integers(min_value=0, max_value=2**16),
        "txs_per_epoch": st.integers(min_value=0, max_value=40),
        "ratings_per_epoch": st.integers(min_value=0, max_value=24),
        "reports_per_epoch": st.integers(min_value=0, max_value=12),
        "votes_per_epoch": st.integers(min_value=0, max_value=16),
        "interactions_per_epoch": st.integers(min_value=0, max_value=40),
        "frames_per_epoch": st.integers(min_value=0, max_value=30),
        "cascade_members": st.integers(min_value=0, max_value=60),
        "n_shards": st.integers(min_value=1, max_value=5),
    }
)


def payload(result) -> str:
    return json.dumps(result.metrics, sort_keys=True)


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(config=configs)
def test_metrics_byte_identical_for_any_worker_count(config):
    config["electorate_size"] = min(50, config["n_agents"])
    baseline = run_load(workers=1, trace=True, **config)
    base_payload = payload(baseline)
    for workers in (2, 3, 4):
        pooled = run_load(workers=workers, trace=True, **config)
        assert payload(pooled) == base_payload, (
            f"workers={workers} changed the metrics payload for {config}"
        )
        assert pooled.trace_jsonl == baseline.trace_jsonl, (
            f"workers={workers} changed the exported trace for {config}"
        )


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_shards=st.integers(min_value=1, max_value=6),
)
def test_shard_count_changes_streams_but_stays_deterministic(seed, n_shards):
    # n_shards is part of the workload *definition* (it fixes the random
    # stream structure), so replays at the same shard count must agree.
    config = dict(
        n_agents=120, epochs=1, seed=seed, txs_per_epoch=12,
        ratings_per_epoch=6, reports_per_epoch=3, votes_per_epoch=4,
        electorate_size=40, interactions_per_epoch=10, frames_per_epoch=6,
        cascade_members=30, n_shards=n_shards,
    )
    assert payload(run_load(**config)) == payload(run_load(**config))
