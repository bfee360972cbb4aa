"""The shard worker: transfer columns against a per-transfer loop, and
frames that name their subjects by agent index and whose predicted
admissions match the authoritative pipeline's."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ledger.transactions import Transaction, TxKind
from repro.parallel.plan import Phase, ShardPlan
from repro.parallel.worker import (
    ShardEpochResult,
    ShardTask,
    channel_of,
    run_phase,
)
from repro.privacy import (
    ConsentRegistry,
    LaplaceMechanism,
    PrivacyBudget,
    PrivacyPipeline,
)
from repro.workloads.load import (
    CONSENT_DENIED_MOD,
    DEFAULT_CHANNELS,
    HOT_STRIDE,
    agent_addresses,
)


def reference_transfers(task, addresses):
    """The scalar loop the columns must reproduce: four draws per
    transfer (sender, recipient, amount, fee), nonces run on per
    sender, the id hashed from a built record."""
    lo, hi = task.plan.range_of(task.shard)
    n_agents = task.plan.n_agents
    rng = task.plan.rng(task.shard, task.epoch, Phase.TRANSACTIONS)
    nonces = np.array(task.base_nonce_slice, dtype=np.int64)
    rows = []
    for _ in range(task.tx_count):
        sender = lo + int(rng.integers(hi - lo))
        recipient = int(rng.integers(n_agents))
        if recipient == sender:
            recipient = (recipient + 1) % n_agents
        amount = int(rng.integers(1, 51))
        fee = int(rng.integers(1, 101))
        nonce = int(nonces[sender - lo])
        nonces[sender - lo] = nonce + 1
        tx = Transaction(
            addresses[sender], addresses[recipient], amount, fee, nonce,
            TxKind.TRANSFER,
        )
        rows.append((sender, recipient, amount, fee, nonce, tx.tx_id))
    return rows


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_agents=st.integers(min_value=1, max_value=300),
    n_shards=st.integers(min_value=1, max_value=4),
    epoch=st.integers(min_value=0, max_value=3),
    tx_count=st.integers(min_value=0, max_value=120),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_columns_match_the_scalar_loop(
    seed, n_agents, n_shards, epoch, tx_count, data
):
    n_shards = min(n_shards, n_agents)
    plan = ShardPlan(
        seed=seed, n_agents=n_agents, n_shards=n_shards,
        n_members=n_agents, hot_stride=100,
    )
    shard = data.draw(st.integers(min_value=0, max_value=n_shards - 1))
    lo, hi = plan.range_of(shard)
    base = np.array(
        data.draw(st.lists(st.integers(0, 1000), min_size=hi - lo,
                           max_size=hi - lo)),
        dtype=np.int32,
    )
    task = ShardTask(
        plan=plan, shard=shard, epoch=epoch, tx_count=tx_count,
        rating_count=0, report_count=0, vote_count=0, interaction_count=0,
        frame_count=0, base_nonce_slice=base,
        hot_spent=np.empty(0, dtype=np.float64),
    )
    result = ShardEpochResult(shard=shard)
    run_phase(task, result, Phase.TRANSACTIONS)
    columns = list(zip(
        result.tx_senders, result.tx_recipients, result.tx_amounts,
        result.tx_fees, result.tx_nonces, result.tx_ids,
    ))
    addresses = agent_addresses(n_agents)
    assert columns == reference_transfers(task, addresses)
    assert all(
        type(value) is int for row in columns for value in row[:5]
    )
    # The parties' addresses the ids were hashed from come back too.
    assert result.tx_sender_addresses == [
        addresses[s] for s in result.tx_senders
    ]
    assert result.tx_recipient_addresses == [
        addresses[r] for r in result.tx_recipients
    ]


def test_frames_carry_agent_indices_and_derive_no_address(monkeypatch):
    from repro.workloads import load

    def no_address(i):
        raise AssertionError(f"the frames phase derived agent {i}'s address")

    monkeypatch.setattr(load, "agent_address", no_address)
    plan = ShardPlan(
        seed=3, n_agents=2_000, n_shards=2, n_members=2_000, hot_stride=100,
    )
    shard = 1
    hot = plan.hot_subjects_of(shard)
    task = ShardTask(
        plan=plan, shard=shard, epoch=0, tx_count=0, rating_count=0,
        report_count=0, vote_count=0, interaction_count=0, frame_count=300,
        base_nonce_slice=np.zeros(plan.size_of(shard), dtype=np.int32),
        hot_spent=np.zeros(len(hot), dtype=np.float64),
        channels=DEFAULT_CHANNELS,
    )
    result = ShardEpochResult(shard=shard)
    run_phase(task, result, Phase.FRAMES)
    assert len(result.frames) == task.frame_count
    assert all(
        type(subject) is int and subject in hot
        for subject in result.frames.subjects
    )
    outcomes = result.predicted_outcomes
    assert sum(outcomes.values()) == task.frame_count
    # Consent and the cap both bind, so the prediction is not vacuous.
    assert outcomes["blocked_consent"] and outcomes["blocked_budget"]


def authoritative_pipeline(hot, hot_spent, privacy_cap):
    """The run's pipeline as set-up builds it, over the hot subjects
    ``hot``, each of which has already spent its ``hot_spent`` entry."""
    pipeline = PrivacyPipeline(
        consent=ConsentRegistry(),
        budget=PrivacyBudget(default_cap=privacy_cap),
    )
    for channel, epsilon in DEFAULT_CHANNELS:
        pipeline.set_pet(
            channel, LaplaceMechanism(epsilon, rng=np.random.default_rng(0))
        )
    for subject, spent in zip(hot, hot_spent):
        if (subject // HOT_STRIDE) % CONSENT_DENIED_MOD != 0:
            pipeline.consent.grant(
                subject, channel_of(subject, DEFAULT_CHANNELS, HOT_STRIDE)
            )
        if spent:
            pipeline.budget.charge(subject, spent)
    return pipeline


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_agents=st.integers(min_value=100, max_value=3_000),
    n_shards=st.integers(min_value=1, max_value=3),
    epoch=st.integers(min_value=0, max_value=3),
    frame_count=st.integers(min_value=0, max_value=400),
    privacy_cap=st.one_of(
        st.floats(min_value=0.05, max_value=8.0), st.sampled_from([0.25, 4.0])
    ),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_predicted_outcomes_match_the_pipeline(
    seed, n_agents, n_shards, epoch, frame_count, privacy_cap, data
):
    """The worker replays the pipeline's admission on the shipped spend
    snapshot: its outcome counts are the pipeline's for any snapshot,
    a cap already reached or one channel's epsilon short of it
    included."""
    plan = ShardPlan(
        seed=seed, n_agents=n_agents, n_shards=n_shards,
        n_members=n_agents, hot_stride=HOT_STRIDE,
    )
    shard = data.draw(st.integers(min_value=0, max_value=n_shards - 1))
    hot = plan.hot_subjects_of(shard)
    edges = [0.0, privacy_cap] + [
        privacy_cap - epsilon
        for _, epsilon in DEFAULT_CHANNELS
        if epsilon < privacy_cap
    ]
    spend = st.one_of(
        st.floats(min_value=0.0, max_value=privacy_cap), st.sampled_from(edges)
    )
    hot_spent = data.draw(
        st.lists(spend, min_size=len(hot), max_size=len(hot))
    )
    task = ShardTask(
        plan=plan, shard=shard, epoch=epoch, tx_count=0, rating_count=0,
        report_count=0, vote_count=0, interaction_count=0,
        frame_count=frame_count,
        base_nonce_slice=np.zeros(plan.size_of(shard), dtype=np.int32),
        hot_spent=np.array(hot_spent, dtype=np.float64),
        privacy_cap=privacy_cap,
        channels=DEFAULT_CHANNELS,
        consent_denied_mod=CONSENT_DENIED_MOD,
    )
    result = ShardEpochResult(shard=shard)
    run_phase(task, result, Phase.FRAMES)
    pipeline = authoritative_pipeline(hot, hot_spent, privacy_cap)
    pipeline.ingest_all(result.frames)
    stats, predicted = pipeline.stats, result.predicted_outcomes
    assert stats.offered == len(result.frames)
    assert predicted.get("released", 0) == stats.released
    assert predicted.get("blocked_consent", 0) == stats.blocked_consent
    assert predicted.get("blocked_budget", 0) == stats.blocked_budget
