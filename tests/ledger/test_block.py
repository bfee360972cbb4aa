"""Tests for blocks."""

import gc

import pytest

from repro.errors import InvalidBlockError
from repro.ledger import Block, MerkleTree, Transaction, TxKind, Wallet, build_block
from repro.ledger import transactions
from repro.ledger.block import TxColumns


@pytest.fixture
def signer():
    return Wallet(seed=b"block-signer", height=4)


def make_txs(signer, count):
    return [
        signer.transfer("ff" * 32, amount=1, nonce=n) for n in range(count)
    ]


class TestConstruction:
    def test_build_block_computes_merkle_root(self, signer):
        txs = make_txs(signer, 3)
        block = build_block(1, "00" * 32, 1.0, "proposer", txs)
        assert block.merkle_root == block.compute_merkle_root()

    def test_block_hash_deterministic(self):
        a = Block(1, "00" * 32, "", 1.0, "p")
        b = Block(1, "00" * 32, "", 1.0, "p")
        assert a.block_hash == b.block_hash

    def test_block_hash_field_sensitivity(self):
        base = Block(1, "00" * 32, "", 1.0, "p")
        assert base.block_hash != Block(2, "00" * 32, "", 1.0, "p").block_hash
        assert base.block_hash != Block(1, "11" * 32, "", 1.0, "p").block_hash
        assert base.block_hash != Block(1, "00" * 32, "", 2.0, "p").block_hash
        assert base.block_hash != Block(1, "00" * 32, "", 1.0, "q").block_hash

    def test_negative_height_rejected(self):
        with pytest.raises(InvalidBlockError):
            Block(-1, "00" * 32, "", 0.0, "p")

    def test_total_fees(self, signer):
        txs = [
            signer.transfer("ff" * 32, amount=1, nonce=0, fee=2),
            signer.transfer("ff" * 32, amount=1, nonce=1, fee=3),
        ]
        block = build_block(1, "00" * 32, 1.0, "p", txs)
        assert block.total_fees == 5


class TestValidation:
    def test_valid_block_passes(self, signer):
        block = build_block(1, "00" * 32, 1.0, "p", make_txs(signer, 2))
        block.validate_structure()

    def test_wrong_merkle_root_detected(self, signer):
        txs = make_txs(signer, 2)
        block = Block(
            height=1,
            prev_hash="00" * 32,
            merkle_root="ab" * 32,
            timestamp=1.0,
            proposer="p",
            transactions=tuple(txs),
        )
        with pytest.raises(InvalidBlockError):
            block.validate_structure()

    def test_duplicate_tx_detected(self, signer):
        stx = signer.transfer("ff" * 32, amount=1, nonce=0)
        block = build_block(1, "00" * 32, 1.0, "p", [stx, stx])
        with pytest.raises(InvalidBlockError):
            block.validate_structure()

    def test_bad_signature_detected(self, signer):
        stx = signer.transfer("ff" * 32, amount=1, nonce=0)
        tampered_tx = signer.build_transaction("ff" * 32, amount=999, nonce=0)
        forged = type(stx)(
            tx=tampered_tx, signature=stx.signature, key_proof=stx.key_proof
        )
        block = build_block(1, "00" * 32, 1.0, "p", [forged])
        with pytest.raises(InvalidBlockError):
            block.validate_structure()


class TestInclusionProofs:
    def test_proof_verifies_against_header(self, signer):
        txs = make_txs(signer, 4)
        block = build_block(1, "00" * 32, 1.0, "p", txs)
        target = txs[2].tx_id
        proof = block.inclusion_proof(target)
        assert proof.verify(
            bytes.fromhex(target), bytes.fromhex(block.merkle_root)
        )

    def test_missing_tx_rejected(self, signer):
        block = build_block(1, "00" * 32, 1.0, "p", make_txs(signer, 2))
        with pytest.raises(InvalidBlockError):
            block.inclusion_proof("ab" * 32)


def pinned_rows(count):
    rows = [
        Transaction.pinned("aa" * 32, "bb" * 32, n + 1, n % 3, n)
        for n in range(count)
    ]
    rows.append(
        Transaction.pinned(
            "cc" * 32, "", 0, 2, 0, TxKind.RECORD, {"purpose": "audit"}
        )
    )
    return rows


class TestColumnBody:
    """Bodies keep columns; rows read back equal the rows stored."""

    def test_rows_read_back_equal_the_rows_built_from(self):
        rows = pinned_rows(5)
        block = build_block(1, "00" * 32, 1.0, "p", rows)
        body = block.transactions
        assert isinstance(body, TxColumns)
        assert list(body) == rows
        assert body == tuple(rows) and body == rows
        assert body[-1] == rows[-1] and body[1:3] == rows[1:3]
        assert body[-1].payload == {"purpose": "audit"}
        assert all(row.verify() for row in body)
        with pytest.raises(IndexError):
            body[len(rows)]
        # Equal to a block built directly from the same rows.
        assert Block(1, "00" * 32, block.merkle_root, 1.0, "p", tuple(rows)) == block

    def test_pinned_rows_are_kept_as_columns_only(self):
        body = build_block(1, "00" * 32, 1.0, "p", pinned_rows(3)).transactions
        columns = gc.get_referents(body)
        assert not any(
            isinstance(item, Transaction)
            for item in columns + gc.get_referents(*columns)
        )

    def test_derived_values_match_the_rows(self):
        rows = pinned_rows(6)
        block = build_block(1, "00" * 32, 1.0, "p", rows)
        ids = [row.tx_id for row in rows]
        assert block.tx_ids == ids
        assert block.total_fees == sum(row.fee for row in rows)
        assert block.compute_merkle_root() == (
            MerkleTree([bytes.fromhex(tx_id) for tx_id in ids]).root.hex()
        )
        for tx_id in ids:
            assert block.inclusion_proof(tx_id).verify(
                bytes.fromhex(tx_id), bytes.fromhex(block.merkle_root)
            )

    def test_signed_rows_are_kept_by_identity(self, signer, monkeypatch):
        txs = make_txs(signer, 2)
        assert all(stx.verify() for stx in txs)
        block = build_block(1, "00" * 32, 1.0, "p", txs)
        assert all(a is b for a, b in zip(block.transactions, txs))

        # The cached verification survives: validation re-runs no
        # Lamport check.
        def fail(*args):
            raise AssertionError("Lamport verification re-ran")

        monkeypatch.setattr(transactions, "lamport_verify", fail)
        block.validate_structure()
        assert all(stx.verify() for stx in block.transactions)
