"""Tests for the blockchain: validation, fork choice, queries."""

import pytest

from repro.errors import InvalidBlockError
from repro.ledger import (
    Blockchain,
    ContractRegistry,
    LedgerState,
    PoAConsensus,
    PoSConsensus,
    TxKind,
    VotingContract,
    Wallet,
    build_block,
)
from repro.obs import Instrumentation
from repro.sim import MetricsRegistry, TraceLog


@pytest.fixture
def validator():
    return Wallet(seed=b"chain-validator", height=6)


@pytest.fixture
def alice():
    return Wallet(seed=b"chain-alice", height=6)


@pytest.fixture
def chain(validator, alice):
    return Blockchain(
        PoAConsensus([validator.address]),
        genesis_balances={alice.address: 1000, validator.address: 10},
    )


class TestBasics:
    def test_genesis_state(self, chain, alice):
        assert chain.height == 0
        assert chain.state.balance_of(alice.address) == 1000

    def test_propose_block_applies_transactions(self, chain, validator, alice):
        chain.mempool.submit(alice.transfer("ff" * 32, 100, nonce=0), chain.state)
        block = chain.propose_block(validator.address, timestamp=1.0)
        assert chain.height == 1
        assert len(block.transactions) == 1
        assert chain.state.balance_of(alice.address) == 900

    def test_fees_paid_to_proposer(self, chain, validator, alice):
        chain.mempool.submit(
            alice.transfer("ff" * 32, 100, nonce=0, fee=7), chain.state
        )
        chain.propose_block(validator.address, timestamp=1.0)
        assert chain.state.balance_of(validator.address) == 17

    def test_wrong_proposer_rejected(self, chain, alice):
        with pytest.raises(InvalidBlockError):
            chain.propose_block(alice.address, timestamp=1.0)

    def test_mempool_pruned_after_inclusion(self, chain, validator, alice):
        stx = alice.transfer("ff" * 32, 100, nonce=0)
        chain.mempool.submit(stx, chain.state)
        chain.propose_block(validator.address, timestamp=1.0)
        assert len(chain.mempool) == 0

    def test_failing_tx_dropped_not_poisoning(self, chain, validator, alice):
        # Submit a tx that will fail at execution time (overdraw), plus a
        # good one; the block must contain only the good one and the bad
        # one must not wedge future proposals.
        bad = alice.transfer("ff" * 32, 10_000, nonce=0)
        # Bypass admission checks, writing straight into the pool's index
        # structures (white-box: exercises execution-time tx failure).
        import heapq

        from repro.ledger.mempool import _SenderChain

        pool = chain.mempool
        pool._by_id[bad.tx_id] = bad
        sender_chain = pool._chains.setdefault(alice.address, _SenderChain())
        sender_chain.add(bad)
        heapq.heappush(pool._head_heap, (-sender_chain.max_fee(), alice.address))
        block = chain.propose_block(validator.address, timestamp=1.0)
        assert bad.tx_id not in [s.tx_id for s in block.transactions]
        chain.propose_block(validator.address, timestamp=2.0)
        assert chain.height == 2


class TestExecuteOnce:
    """A block the chain fills from its mempool runs each transaction
    once; a drop, given transactions and received blocks replay."""

    @pytest.fixture
    def applied(self, monkeypatch):
        tx_ids = []
        original = LedgerState.apply

        def counting(state, stx, contract_executor=None):
            tx_ids.append(stx.tx_id)
            return original(state, stx, contract_executor=contract_executor)

        monkeypatch.setattr(LedgerState, "apply", counting)
        return tx_ids

    def test_clean_block_adopts_speculative_state(
        self, chain, validator, alice, applied
    ):
        for nonce in range(3):
            chain.mempool.submit(
                alice.transfer("ff" * 32, 10, nonce=nonce, fee=1), chain.state
            )
        block = chain.propose_block(validator.address, timestamp=1.0)
        assert len(block.transactions) == 3
        assert applied == block.tx_ids
        assert chain.state.balance_of(alice.address) == 1000 - 33
        assert chain.state.balance_of(validator.address) == 10 + 3
        assert chain.state.nonce_of(alice.address) == 3

    def test_speculation_drop_replays_block(self, chain, validator, alice, applied):
        broke = Wallet(seed=b"chain-broke", height=4)
        good = alice.transfer("ff" * 32, 10, nonce=0, fee=1)
        overdraw = broke.transfer("ff" * 32, 5, nonce=0, fee=2)
        chain.mempool.submit(good, chain.state)
        chain.mempool.submit(overdraw, chain.state)
        block = chain.propose_block(validator.address, timestamp=1.0)
        assert block.tx_ids == [good.tx_id]
        # Speculation tried both; the block was then replayed on its parent.
        assert sorted(applied) == sorted([overdraw.tx_id, good.tx_id, good.tx_id])
        assert chain.state.balance_of(alice.address) == 989
        assert chain.state.balance_of(validator.address) == 11

    def test_given_and_received_blocks_replay_once(
        self, chain, validator, alice, applied
    ):
        first = alice.transfer("ff" * 32, 10, nonce=0)
        chain.propose_block(validator.address, timestamp=1.0, transactions=[first])
        second = alice.transfer("ff" * 32, 10, nonce=1)
        chain.add_block(
            build_block(2, chain.head.block_hash, 2.0, validator.address, [second])
        )
        assert applied == [first.tx_id, second.tx_id]
        assert chain.state.balance_of(alice.address) == 980

    def test_contract_call_executes_once(self, validator, alice):
        metrics = MetricsRegistry()
        trace = TraceLog()
        obs = Instrumentation(trace=trace, metrics=metrics, run_id="t")
        contracts = ContractRegistry(obs=obs)
        voting = contracts.deploy(VotingContract())
        chain = Blockchain(
            PoAConsensus([validator.address]),
            genesis_balances={alice.address: 1000},
            contracts=contracts,
            obs=obs,
        )
        chain.mempool.submit(
            alice.call_contract(
                voting, "open", {"poll_id": "p", "options": ["yes", "no"]}, nonce=0
            ),
            chain.state,
        )
        block = chain.propose_block(validator.address, timestamp=1.0)
        assert len(block.transactions) == 1
        assert trace.count(source="ledger.contracts") == 1
        assert metrics.counter("ledger.contracts.voting.calls").value == 1
        assert chain.state.contract_storage[voting]["polls"]["p"]["open"]


class TestCommittedStorage:
    """Reading contract storage through a committed block state neither
    edits that state nor hands out a value that aliases it."""

    def test_reads_leave_block_states_unchanged(self, validator, alice):
        contracts = ContractRegistry()
        voting = contracts.deploy(VotingContract())
        chain = Blockchain(
            PoAConsensus([validator.address]),
            genesis_balances={alice.address: 1000},
            contracts=contracts,
        )
        chain.mempool.submit(
            alice.call_contract(
                voting, "open", {"poll_id": "a", "options": ["yes", "no"]}, nonce=0
            ),
            chain.state,
        )
        opened = chain.propose_block(validator.address, timestamp=1.0)
        chain.propose_block(validator.address, timestamp=2.0)  # empty
        head = chain.state.contract_storage
        assert head._local == {}
        chain.state.contract_storage[voting]["polls"]["a"]["open"] = False
        assert head._local == {}
        chain.state_at(opened.block_hash).contract_storage[voting]["polls"][
            "a"
        ]["open"] = False
        for state in (chain.state, chain.state_at(opened.block_hash)):
            assert state.contract_storage[voting]["polls"]["a"]["open"]

        # Blocks built on a frozen state still copy on read into their own
        # layer, so execution sees and extends the committed poll.
        chain.mempool.submit(
            alice.call_contract(
                voting, "vote", {"poll_id": "a", "option": "yes"}, nonce=1
            ),
            chain.state,
        )
        chain.propose_block(validator.address, timestamp=3.0)
        votes = chain.state.contract_storage[voting]["polls"]["a"]["votes"]
        assert votes == {alice.address: "yes"}
        opened_state = chain.state_at(opened.block_hash)
        assert opened_state.contract_storage[voting]["polls"]["a"]["votes"] == {}


class TestValidation:
    def test_unknown_parent_rejected(self, chain, validator):
        orphan = build_block(5, "ab" * 32, 1.0, validator.address, [])
        with pytest.raises(InvalidBlockError):
            chain.add_block(orphan)
        assert chain.rejected_blocks == 1

    def test_wrong_height_rejected(self, chain, validator):
        bad = build_block(
            7, chain.head.block_hash, 1.0, validator.address, []
        )
        with pytest.raises(InvalidBlockError):
            chain.add_block(bad)

    def test_timestamp_monotonicity(self, chain, validator):
        chain.propose_block(validator.address, timestamp=5.0)
        past = build_block(
            2, chain.head.block_hash, 1.0, validator.address, []
        )
        with pytest.raises(InvalidBlockError):
            chain.add_block(past)

    def test_duplicate_block_rejected(self, chain, validator):
        block = chain.propose_block(validator.address, timestamp=1.0)
        with pytest.raises(InvalidBlockError):
            chain.add_block(block)

    def test_double_spend_across_blocks_rejected(self, chain, validator, alice):
        stx = alice.transfer("ff" * 32, 100, nonce=0)
        chain.mempool.submit(stx, chain.state)
        chain.propose_block(validator.address, timestamp=1.0)
        replay = build_block(
            2, chain.head.block_hash, 2.0, validator.address, [stx]
        )
        with pytest.raises(InvalidBlockError):
            chain.add_block(replay)

    def test_verify_chain(self, chain, validator, alice):
        for t in range(3):
            nonce = chain.state.nonce_of(alice.address)
            chain.mempool.submit(
                alice.transfer("ff" * 32, 1, nonce=nonce), chain.state
            )
            chain.propose_block(validator.address, timestamp=float(t + 1))
        assert chain.verify_chain()


class TestForkChoice:
    def test_fork_blocks_stored_and_longest_wins(self, validator, alice):
        # Two validators so competing same-height blocks are possible.
        v2 = Wallet(seed=b"chain-validator-2", height=6)
        chain = Blockchain(
            PoAConsensus([validator.address]),
            genesis_balances={alice.address: 1000},
        )
        b1 = chain.propose_block(validator.address, timestamp=1.0)
        # Competing block at the same height from the same parent
        # (different timestamp → different hash).
        fork = build_block(
            1, chain.genesis.block_hash, 2.0, validator.address, []
        )
        chain.add_block(fork)
        # Head is whichever of the two has the lower hash (deterministic).
        expected = min([b1, fork], key=lambda b: b.block_hash)
        assert chain.head.block_hash == expected.block_hash
        # Extending the non-head fork reorgs onto it.
        loser = b1 if expected is fork else fork
        extension = build_block(
            2, loser.block_hash, 3.0, validator.address, []
        )
        chain.add_block(extension)
        assert chain.head.block_hash == extension.block_hash
        assert chain.reorg_count >= 1

    def test_state_follows_head_across_reorg(self, validator, alice):
        chain = Blockchain(
            PoAConsensus([validator.address]),
            genesis_balances={alice.address: 1000},
        )
        spend = alice.transfer("ff" * 32, 500, nonce=0)
        chain.propose_block(validator.address, timestamp=1.0, transactions=[spend])
        assert chain.state.balance_of(alice.address) == 500
        # Build a longer empty fork from genesis.
        empty_1 = build_block(
            1, chain.genesis.block_hash, 2.0, validator.address, []
        )
        chain.add_block(empty_1)
        empty_2 = build_block(
            2, empty_1.block_hash, 3.0, validator.address, []
        )
        chain.add_block(empty_2)
        assert chain.head.block_hash == empty_2.block_hash
        # On the new canonical chain the spend never happened.
        assert chain.state.balance_of(alice.address) == 1000


class TestQueries:
    def test_find_transaction(self, chain, validator, alice):
        stx = alice.transfer("ff" * 32, 1, nonce=0)
        chain.mempool.submit(stx, chain.state)
        chain.propose_block(validator.address, timestamp=1.0)
        located = chain.find_transaction(stx.tx_id)
        assert located is not None
        block, found = located
        assert found.tx_id == stx.tx_id
        assert block.height == 1

    def test_find_missing_transaction(self, chain):
        assert chain.find_transaction("ab" * 32) is None

    def test_main_chain_order(self, chain, validator):
        for t in range(3):
            chain.propose_block(validator.address, timestamp=float(t + 1))
        heights = [b.height for b in chain.main_chain()]
        assert heights == [0, 1, 2, 3]


class TestPoSIntegration:
    def test_stake_then_propose(self, alice):
        chain = Blockchain(
            PoSConsensus(), genesis_balances={alice.address: 1000}
        )
        stake = alice.sign(
            alice.build_transaction("", amount=100, nonce=0, kind=TxKind.STAKE)
        )
        # Bootstrap problem: no stakes yet, so no one may propose.
        with pytest.raises(InvalidBlockError):
            chain.propose_block(alice.address, timestamp=1.0, transactions=[stake])
        # Pre-stake in genesis instead.
        chain2 = Blockchain(PoSConsensus(), genesis_balances={alice.address: 1000})
        chain2.state.stakes[alice.address] = 100  # operator bootstrap
        expected = chain2.consensus.expected_proposer(
            1, chain2.head.block_hash, chain2.state
        )
        assert expected == alice.address
        chain2.propose_block(alice.address, timestamp=1.0)
        assert chain2.height == 1
