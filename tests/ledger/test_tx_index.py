"""The canonical-chain transaction index: O(1) lookups, reorg rebuilds."""

import pytest

from repro.ledger import Blockchain, PoAConsensus, Transaction, Wallet


@pytest.fixture
def validator():
    return Wallet(seed=b"txindex-validator", height=6)


@pytest.fixture
def sender():
    return Wallet(seed=b"txindex-sender", height=8)


@pytest.fixture
def chain(validator, sender):
    return Blockchain(
        PoAConsensus([validator.address]),
        genesis_balances={validator.address: 1000, sender.address: 100_000},
    )


SINK = "ee" * 32


class TestFindTransaction:
    def test_found_with_location(self, chain, validator, sender):
        stx = sender.transfer(SINK, 5, nonce=0, fee=1)
        chain.propose_block(validator.address, timestamp=1.0, transactions=[stx])
        block, found = chain.find_transaction(stx.tx_id)
        assert found.tx_id == stx.tx_id
        assert block.height == 1
        assert chain.transaction_location(stx.tx_id) == (1, 0)

    def test_unknown_returns_none(self, chain):
        assert chain.find_transaction("deadbeef") is None
        assert chain.transaction_location("deadbeef") is None

    def test_position_within_block(self, chain, validator, sender):
        txs = [sender.transfer(SINK, 1, nonce=i, fee=1) for i in range(3)]
        chain.propose_block(validator.address, timestamp=1.0, transactions=txs)
        for position, stx in enumerate(txs):
            assert chain.transaction_location(stx.tx_id) == (1, position)

    def test_index_grows_with_extensions(self, chain, validator, sender):
        ids = []
        for height in range(4):
            stx = sender.transfer(SINK, 1, nonce=height, fee=1)
            ids.append(stx.tx_id)
            chain.propose_block(
                validator.address, timestamp=float(height + 1), transactions=[stx]
            )
        for height, tx_id in enumerate(ids, start=1):
            assert chain.transaction_location(tx_id) == (height, 0)

    def test_matches_linear_scan(self, chain, validator, sender):
        for height in range(5):
            txs = [
                sender.transfer(SINK, 1, nonce=height * 2 + j, fee=1)
                for j in range(2)
            ]
            chain.propose_block(
                validator.address, timestamp=float(height + 1), transactions=txs
            )
        for block, stx in chain.iter_transactions():
            found_block, found = chain.find_transaction(stx.tx_id)
            assert found_block.block_hash == block.block_hash
            assert found.tx_id == stx.tx_id


class TestReorgRebuild:
    def test_reorg_reindexes_canonical_chain(self, validator, sender):
        from repro.ledger.block import build_block

        chain = Blockchain(
            PoAConsensus([validator.address]),
            genesis_balances={validator.address: 1000, sender.address: 100_000},
        )
        genesis = chain.genesis
        # Canonical branch: one block with tx_a.
        tx_a = sender.transfer(SINK, 1, nonce=0, fee=1)
        chain.propose_block(validator.address, timestamp=1.0, transactions=[tx_a])
        assert chain.transaction_location(tx_a.tx_id) == (1, 0)

        # Competing branch from genesis grows to height 2 with tx_b.
        tx_b = sender.transfer(SINK, 2, nonce=0, fee=1)
        fork1 = build_block(
            height=1,
            prev_hash=genesis.block_hash,
            timestamp=1.0,
            proposer=validator.address,
            transactions=[tx_b],
        )
        chain.add_block(fork1)
        fork2 = build_block(
            height=2,
            prev_hash=fork1.block_hash,
            timestamp=2.0,
            proposer=validator.address,
            transactions=[],
        )
        chain.add_block(fork2)

        assert chain.reorg_count == 1
        assert chain.head.block_hash == fork2.block_hash
        # The displaced branch's tx is gone; the new branch's is indexed.
        assert chain.transaction_location(tx_a.tx_id) is None
        assert chain.transaction_location(tx_b.tx_id) == (1, 0)
        _, found = chain.find_transaction(tx_b.tx_id)
        assert found.tx_id == tx_b.tx_id


class TestColumnBodies:
    """Pinned transfers committed as column bodies index and read back
    as the records submitted, across a reorg."""

    PAYER = "aa" * 32
    VALIDATOR = "vv" * 32

    def _chain(self):
        return Blockchain(
            PoAConsensus([self.VALIDATOR]),
            genesis_balances={self.PAYER: 1_000},
        )

    def _transfers(self, nonces, amount=1):
        return [
            Transaction.pinned(self.PAYER, SINK, amount, fee=2, nonce=n)
            for n in nonces
        ]

    def test_lookups_return_the_submitted_records(self):
        chain = self._chain()
        txs = self._transfers(range(5))
        for tx in txs:
            assert chain.mempool.submit(tx, chain.state)
        chain.propose_block(self.VALIDATOR, timestamp=1.0, max_txs=3)
        chain.propose_block(self.VALIDATOR, timestamp=2.0, max_txs=3)
        assert [stx for _, stx in chain.iter_transactions()] == txs
        for position, tx in enumerate(txs):
            block, found = chain.find_transaction(tx.tx_id)
            assert found == tx and found.verify()
            assert chain.transaction_location(tx.tx_id) == (
                1 + position // 3, position % 3
            )
        assert chain.state.balance_of(self.PAYER) == 1_000 - 5 * 3

    def test_reorg_rebuilds_the_index_from_columns(self):
        from repro.ledger.block import build_block

        chain = self._chain()
        tx_a = self._transfers([0])[0]
        chain.propose_block(self.VALIDATOR, timestamp=1.0, transactions=[tx_a])
        fork_txs = self._transfers([0, 1], amount=7)
        fork1 = build_block(
            1, chain.genesis.block_hash, 1.0, self.VALIDATOR, fork_txs[:1]
        )
        chain.add_block(fork1)
        fork2 = build_block(2, fork1.block_hash, 2.0, self.VALIDATOR, fork_txs[1:])
        chain.add_block(fork2)

        assert chain.reorg_count == 1
        assert chain.head.block_hash == fork2.block_hash
        assert chain.transaction_location(tx_a.tx_id) is None
        for height, tx in enumerate(fork_txs, start=1):
            assert chain.transaction_location(tx.tx_id) == (height, 0)
            assert chain.find_transaction(tx.tx_id)[1] == tx
        assert chain.state.balance_of(self.PAYER) == 1_000 - 2 * 9
        assert chain.state.balance_of(SINK) == 14
        assert chain.state.total_supply == 1_000
