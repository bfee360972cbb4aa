"""The population-scale load workload: determinism and real code paths."""

import gc
import json
import os
import sys

import pytest

from repro.errors import PrivacyError
from repro.ledger.chain import Blockchain
from repro.ledger.consensus import PoAConsensus
from repro.ledger.crypto import sha256
from repro.workloads.load import (
    LoadRunResult,
    agent_address,
    run_load,
    synthetic_transfer,
)

BENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "perfbench",
)
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)
from layers import Patches, mark_entries  # noqa: E402
from spec import WORKLOADS  # noqa: E402

SMALL = dict(
    n_agents=1_500,
    epochs=2,
    seed=7,
    txs_per_epoch=200,
    ratings_per_epoch=80,
    reports_per_epoch=30,
    votes_per_epoch=50,
    electorate_size=300,
)


class TestSyntheticTransactions:
    def test_passes_real_admission_and_application(self):
        # Synthetic signing must not bypass any *semantic* check: the
        # transaction flows through mempool admission, selection, block
        # assembly, and state application unchanged.
        sender = agent_address(0)
        chain = Blockchain(
            PoAConsensus([sha256(b"v").hex()]),
            genesis_balances={sender: 1_000},
        )
        stx = synthetic_transfer(sender, agent_address(1), 10, fee=2, nonce=0)
        assert chain.mempool.submit(stx, chain.state)
        block = chain.propose_block(sha256(b"v").hex(), timestamp=1.0)
        assert [s.tx_id for s in block.transactions] == [stx.tx_id]
        assert chain.state.balance_of(sender) == 1_000 - 12
        assert chain.state.nonce_of(sender) == 1

    def test_semantic_rejections_still_apply(self):
        sender = agent_address(0)
        chain = Blockchain(
            PoAConsensus([sha256(b"v").hex()]),
            genesis_balances={sender: 1_000},
        )
        stale = synthetic_transfer(sender, agent_address(1), 1, fee=1, nonce=0)
        chain.mempool.submit(stale, chain.state)
        chain.propose_block(sha256(b"v").hex(), timestamp=1.0)
        # Nonce 0 is consumed on chain: re-admission must be rejected.
        replay = synthetic_transfer(sender, agent_address(2), 2, fee=1, nonce=0)
        assert not chain.mempool.submit(replay, chain.state)

    def test_committed_blocks_hold_no_transaction_object(self, monkeypatch):
        # Block bodies keep columns: once a barrier has drained the
        # mempool into blocks, no Transaction of the run is alive.
        from repro.ledger.transactions import Transaction
        from repro.workloads import load

        def run_transactions():
            return [o for o in gc.get_objects() if type(o) is Transaction]

        gc.collect()
        # Held, so their ids cannot be reused by the run's objects.
        earlier = run_transactions()
        known = {id(o) for o in earlier}
        counts = []
        apply_trust = load._apply_trust

        def counting(run):
            apply_trust(run)
            counts.append(
                sum(id(o) not in known for o in run_transactions())
            )

        monkeypatch.setattr(load, "_apply_trust", counting)
        result = run_load(**{**SMALL, "epochs": 20, "txs_per_epoch": 60})
        assert result.txs_included == 20 * 60
        assert counts == [0] * 20

    def test_addresses_are_valid_hex32(self):
        address = agent_address(123)
        assert len(address) == 64
        bytes.fromhex(address)


class TestLoadWorkload:
    def test_two_seeded_runs_are_byte_identical(self):
        first = run_load(**SMALL)
        second = run_load(**SMALL)
        assert isinstance(first, LoadRunResult)
        assert first == second
        assert json.dumps(first.metrics, sort_keys=True) == json.dumps(
            second.metrics, sort_keys=True
        )

    def test_block_size_below_one_rejected(self):
        # A block size of 0 or less would include no transaction at all.
        for block_size in (0, -1):
            with pytest.raises(ValueError, match="block_size"):
                run_load(block_size=block_size, **SMALL)

    def test_nan_privacy_cap_rejected(self):
        # NaN passed `cap <= 0` and then blocked almost every frame.
        with pytest.raises(PrivacyError):
            run_load(privacy_cap=float("nan"), **SMALL)

    def test_different_seed_differs(self):
        base = run_load(**SMALL)
        other = run_load(**{**SMALL, "seed": 8})
        assert base.metrics != other.metrics

    def test_all_channels_exercised(self):
        result = run_load(**SMALL)
        assert result.chain_height > 0
        assert result.txs_included == result.txs_submitted > 0
        assert result.ratings_recorded > 0
        assert result.reports_filed > 0
        assert result.votes_cast > 0
        assert result.proposals_closed == SMALL["epochs"]
        assert result.trust_computes == SMALL["epochs"]
        counters = result.metrics["counters"]
        assert counters["load.epochs"] == float(SMALL["epochs"])
        assert counters["load.reports.filed"] == float(result.reports_filed)
        histograms = result.metrics["histograms"]
        assert histograms["load.tx.fee"]["count"] == float(result.txs_submitted)

    def test_privacy_pipeline_phase_carries_traffic(self):
        # Frames flow through the full PET pipeline: offered splits
        # exactly into released + consent-blocked + budget-blocked, and
        # the seeded caps/consent denials genuinely bind.
        result = run_load(**SMALL)
        assert result.frames_offered > 0
        assert result.frames_offered == (
            result.frames_released
            + result.frames_blocked_consent
            + result.frames_blocked_budget
        )
        assert result.frames_released > 0
        assert result.frames_blocked_consent > 0
        counters = result.metrics["counters"]
        assert counters["load.privacy.frames"] == float(result.frames_offered)
        assert counters["load.privacy.released"] == float(result.frames_released)

    def test_worker_count_is_a_pure_scheduling_knob(self):
        # The PR5 contract: metrics AND traces are byte-identical for
        # any worker count, process pools included.
        serial = run_load(workers=1, trace=True, **SMALL)
        serial_payload = json.dumps(serial.metrics, sort_keys=True)
        for workers in (2, 4):
            pooled = run_load(workers=workers, trace=True, **SMALL)
            assert (
                json.dumps(pooled.metrics, sort_keys=True) == serial_payload
            ), f"workers={workers} changed the metrics payload"
            assert pooled.trace_jsonl == serial.trace_jsonl
        assert serial.n_shards > 1  # the equivalence was not vacuous

    def test_explicit_shard_count_respected(self):
        result = run_load(n_shards=3, **SMALL)
        assert result.n_shards == 3
        replay = run_load(n_shards=3, **SMALL)
        assert result.metrics == replay.metrics

    def test_no_wall_clock_in_metrics(self):
        # Byte-identical replay depends on this: every metric value must
        # derive from the seed, never from time.time().
        result = run_load(**SMALL)
        payload = json.dumps(result.metrics)
        assert "timestamp" not in payload
        assert "wall" not in payload

    def test_exact_backend_also_supported(self):
        result = run_load(**{**SMALL, "histogram_backend": "exact"})
        sketch = run_load(**SMALL)
        # Counts agree across backends; quantiles may differ slightly.
        assert (
            result.metrics["histograms"]["load.tx.fee"]["count"]
            == sketch.metrics["histograms"]["load.tx.fee"]["count"]
        )


class TestElasticSharding:
    def test_imbalance_report_is_timing_only(self):
        a = run_load(**SMALL)
        b = run_load(**SMALL)
        # Wall-clock report exists and covers every phase plus "epoch"…
        assert a.imbalance is not None
        assert "epoch" in a.imbalance
        assert a.imbalance["epoch"]["imbalance"] >= 1.0
        # …but never enters equality (timing differs between runs) nor
        # the metrics payload (replays must stay byte-identical).
        assert a == b
        assert "imbalance" not in json.dumps(a.metrics)


class TestBoundaryCalls:
    def test_order_the_repository_benchmark_segments_on(self):
        # perfbench splits each society repetition into segments at
        # these calls, and set-up ends at the first dispatch: a call
        # that moves changes what the benchmark measures.
        paths = WORKLOADS["society-100k"].segment_marks
        marks = []
        patches = Patches()
        try:
            for label, path in enumerate(paths):
                patches.replace(
                    path, lambda fn, label=label: mark_entries(marks, label, fn)
                )
            result = run_load(n_shards=3, block_size=60, **SMALL)
        finally:
            patches.restore()
        calls = [
            paths[label].replace(":", ".").rsplit(".", 1)[1]
            for label, _ in marks
        ]
        epoch = [
            "map_ordered",
            *["run_shard_epoch"] * 3,
            *["propose_block"] * 4,  # 200 transfers, 60 a block
            "submit_proposal",
            "process_prepared",
            "ingest_all",
            "global_trust_top",
        ]
        # Set-up warms the caches once before the pool exists; every
        # epoch warms them for its own cuts before dispatching.
        assert calls == [
            "warm_caches", "warm_caches", *epoch, "warm_caches", *epoch
        ]
        assert result.chain_height == 8
