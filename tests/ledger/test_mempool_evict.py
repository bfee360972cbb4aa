"""Fee-ordered heap eviction and the mempool's observability events."""

import pytest

from repro.ledger import LedgerState, Mempool, Wallet
from repro.obs import Instrumentation
from repro.sim import MetricsRegistry, TraceLog
from repro.workloads.load import agent_address, synthetic_transfer


@pytest.fixture
def wallets():
    return [Wallet(seed=f"evict-{i}".encode(), height=8) for i in range(6)]


@pytest.fixture
def state(wallets):
    return LedgerState({w.address: 100_000 for w in wallets})


SINK = "dd" * 32


class TestHeapEviction:
    def test_cheapest_evicted_for_higher_fee(self, wallets, state):
        pool = Mempool(capacity=3)
        fees = [5, 2, 9]
        for wallet, fee in zip(wallets, fees):
            assert pool.submit(wallet.transfer(SINK, 1, nonce=0, fee=fee), state)
        cheapest = wallets[1].transfer(SINK, 1, nonce=0, fee=2)
        newcomer = wallets[3].transfer(SINK, 1, nonce=0, fee=7)
        assert pool.submit(newcomer, state)
        assert pool.evicted_count == 1
        resident_fees = sorted(s.tx.fee for s in pool.pending())
        assert resident_fees == [5, 7, 9]

    def test_newcomer_rejected_when_cheapest(self, wallets, state):
        pool = Mempool(capacity=2)
        pool.submit(wallets[0].transfer(SINK, 1, nonce=0, fee=5), state)
        pool.submit(wallets[1].transfer(SINK, 1, nonce=0, fee=5), state)
        low = wallets[2].transfer(SINK, 1, nonce=0, fee=5)
        assert not pool.submit(low, state)  # equal fee does not displace
        assert pool.rejected_count == 1
        assert pool.evicted_count == 0

    def test_eviction_sequence_matches_fee_order(self, wallets, state):
        pool = Mempool(capacity=2)
        pool.submit(wallets[0].transfer(SINK, 1, nonce=0, fee=1), state)
        pool.submit(wallets[1].transfer(SINK, 1, nonce=0, fee=2), state)
        # Each newcomer outbids the current cheapest.
        pool.submit(wallets[2].transfer(SINK, 1, nonce=0, fee=3), state)
        pool.submit(wallets[3].transfer(SINK, 1, nonce=0, fee=4), state)
        assert pool.evicted_count == 2
        assert sorted(s.tx.fee for s in pool.pending()) == [3, 4]

    def test_heap_survives_prune_included(self, wallets, state):
        pool = Mempool(capacity=3)
        txs = [
            w.transfer(SINK, 1, nonce=0, fee=fee)
            for w, fee in zip(wallets[:3], (4, 6, 8))
        ]
        for stx in txs:
            pool.submit(stx, state)
        # Prune the cheapest; its heap entry is now stale.
        pool.prune_included([txs[0].tx_id])
        newcomer = wallets[3].transfer(SINK, 1, nonce=0, fee=5)
        assert pool.submit(newcomer, state)  # room exists, no eviction
        assert pool.evicted_count == 0
        # Now full again: eviction must pick the *live* cheapest (5).
        higher = wallets[4].transfer(SINK, 1, nonce=0, fee=7)
        assert pool.submit(higher, state)
        assert sorted(s.tx.fee for s in pool.pending()) == [6, 7, 8]

    def test_heap_tracks_residents_not_history(self):
        # A pool that never fills never pops its eviction heap; included
        # transactions must not pile up in it as stale entries.
        pool = Mempool()
        senders = [agent_address(i) for i in range(20)]
        for cycle in range(100):
            batch = [
                synthetic_transfer(sender, SINK, 1, fee=1 + i % 5, nonce=cycle)
                for i, sender in enumerate(senders)
            ]
            for stx in batch:
                assert pool.submit(stx)
            # Include all but the last five; they wait for the next block.
            pool.prune_included([stx.tx_id for stx in batch[:-5]])
            assert len(pool._fee_heap) <= 2 * len(pool)
            pool.prune_included([stx.tx_id for stx in batch[-5:]])
            assert len(pool) == 0
        assert pool._fee_heap == []


class TestEvictionEvents:
    def _obs(self):
        return Instrumentation(
            trace=TraceLog(), metrics=MetricsRegistry(), run_id="t"
        )

    def test_eviction_event_payload(self, wallets, state):
        obs = self._obs()
        pool = Mempool(capacity=1, obs=obs)
        victim = wallets[0].transfer(SINK, 1, nonce=0, fee=2)
        pool.submit(victim, state, time=10.0)
        displacer = wallets[1].transfer(SINK, 1, nonce=0, fee=9)
        pool.submit(displacer, state, time=25.0)
        (event,) = list(obs.trace.query(kind="tx.evicted"))
        assert event.payload["tx_id"] == victim.tx_id
        assert event.payload["sender"] == victim.tx.sender
        assert event.payload["fee"] == 2
        assert event.payload["age"] == 15.0
        assert event.payload["displaced_by"] == displacer.tx_id

    def test_age_none_without_timestamps(self, wallets, state):
        obs = self._obs()
        pool = Mempool(capacity=1, obs=obs)
        pool.submit(wallets[0].transfer(SINK, 1, nonce=0, fee=2), state)
        pool.submit(wallets[1].transfer(SINK, 1, nonce=0, fee=9), state)
        (event,) = list(obs.trace.query(kind="tx.evicted"))
        assert event.payload["age"] is None

    def test_age_none_when_admitted_without_timestamp(self, wallets, state):
        # The victim was admitted with no timestamp; even though the
        # displacing submission carries one, the age is unknowable and
        # must be None, not 0 (0 would claim instant eviction).
        obs = self._obs()
        pool = Mempool(capacity=1, obs=obs)
        pool.submit(wallets[0].transfer(SINK, 1, nonce=0, fee=2), state)
        pool.submit(wallets[1].transfer(SINK, 1, nonce=0, fee=9), state, time=30.0)
        (event,) = list(obs.trace.query(kind="tx.evicted"))
        assert event.payload["age"] is None

    def test_age_none_when_evicted_without_timestamp(self, wallets, state):
        # Admission was stamped but the displacing submission was not:
        # no "now" exists to subtract from, so age is again None.
        obs = self._obs()
        pool = Mempool(capacity=1, obs=obs)
        pool.submit(wallets[0].transfer(SINK, 1, nonce=0, fee=2), state, time=10.0)
        pool.submit(wallets[1].transfer(SINK, 1, nonce=0, fee=9), state)
        (event,) = list(obs.trace.query(kind="tx.evicted"))
        assert event.payload["age"] is None

    def test_admission_and_rejection_events(self, wallets, state):
        obs = self._obs()
        pool = Mempool(obs=obs)
        stx = wallets[0].transfer(SINK, 1, nonce=0, fee=1)
        pool.submit(stx, state, time=0.0)
        pool.submit(stx, state, time=1.0)  # duplicate
        assert obs.trace.count(kind="tx.admitted") == 1
        (rejected,) = list(obs.trace.query(kind="tx.rejected"))
        assert rejected.payload["reason"] == "duplicate"
        assert obs.metrics.counter("ledger.mempool.admitted").value == 1
        assert obs.metrics.counter("ledger.mempool.rejected").value == 1
