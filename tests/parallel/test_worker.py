"""The shard worker's transfer columns against a per-transfer loop."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ledger.transactions import Transaction, TxKind
from repro.parallel.plan import Phase, ShardPlan
from repro.parallel.worker import ShardEpochResult, ShardTask, run_phase
from repro.workloads.load import agent_addresses


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
    assert columns == reference_transfers(task, agent_addresses(n_agents))
    assert all(
        type(value) is int for row in columns for value in row[:5]
    )
