"""Tests for transactions and signed transactions."""

import dataclasses
import pickle
import sys
from dataclasses import FrozenInstanceError

import pytest

from repro.errors import InvalidTransactionError
from repro.ledger import Transaction, TxKind
from repro.ledger.crypto import sha256
from repro.ledger.encoding import canonical_encode


def make_tx(**overrides):
    defaults = dict(
        sender="aa" * 32,
        recipient="bb" * 32,
        amount=10,
        fee=1,
        nonce=0,
        kind=TxKind.TRANSFER,
    )
    defaults.update(overrides)
    return Transaction(**defaults)


class TestValidation:
    def test_negative_amount_rejected(self):
        with pytest.raises(InvalidTransactionError):
            make_tx(amount=-1)

    def test_negative_fee_rejected(self):
        with pytest.raises(InvalidTransactionError):
            make_tx(fee=-1)

    def test_negative_nonce_rejected(self):
        with pytest.raises(InvalidTransactionError):
            make_tx(nonce=-1)

    def test_empty_sender_rejected(self):
        with pytest.raises(InvalidTransactionError):
            make_tx(sender="")


class TestHashing:
    def test_tx_id_deterministic(self):
        assert make_tx().tx_id == make_tx().tx_id

    def test_tx_id_field_sensitivity(self):
        base = make_tx()
        assert base.tx_id != make_tx(amount=11).tx_id
        assert base.tx_id != make_tx(nonce=1).tx_id
        assert base.tx_id != make_tx(kind=TxKind.STAKE).tx_id
        assert base.tx_id != make_tx(payload={"k": 1}).tx_id

    def test_tx_id_is_hex_sha256(self):
        tx_id = make_tx().tx_id
        assert len(tx_id) == 64
        int(tx_id, 16)  # must parse as hex


class TestSlottedRecord:
    """The id and signing-bytes caches are slots, invisible to equality,
    repr, construction and pickling."""

    def test_id_and_bytes_match_the_canonical_encoding(self):
        tx = make_tx(payload={"k": [1, "v"]})
        assert tx.signing_bytes == canonical_encode(tx.to_dict())
        assert tx.tx_id == sha256(canonical_encode(tx.to_dict())).hex()
        assert tx.tx_id is tx.tx_id  # computed once

    @pytest.mark.skipif(
        sys.version_info < (3, 10), reason="dataclass slots need Python 3.10"
    )
    def test_no_instance_dict(self):
        assert not hasattr(make_tx(), "__dict__")

    def test_caches_do_not_enter_equality_or_repr(self):
        warm, cold = make_tx(), make_tx()
        warm.tx_id
        assert warm == cold
        assert repr(warm) == repr(cold)
        assert "_tx_id" not in repr(warm)
        assert warm != make_tx(fee=2)
        with pytest.raises(TypeError):
            make_tx(_tx_id="forged")

    def test_still_frozen(self):
        tx = make_tx()
        with pytest.raises(FrozenInstanceError):
            tx.amount = 11

    @pytest.mark.parametrize("warm", [False, True])
    def test_pickle_round_trip(self, warm):
        tx = make_tx(payload={"k": 1})
        if warm:
            tx.tx_id
        copy = pickle.loads(pickle.dumps(tx))
        assert copy == tx
        assert copy.tx_id == make_tx(payload={"k": 1}).tx_id
        assert copy.signing_bytes == tx.signing_bytes

    def test_replace_recomputes_the_id(self):
        tx = make_tx()
        tx.tx_id
        bumped = dataclasses.replace(tx, nonce=5)
        assert bumped.tx_id == make_tx(nonce=5).tx_id != tx.tx_id


class TestPinnedRecord:
    """A pinned transaction is its own signed-transaction surface; a
    plain one with the same fields is equal, has the same id, and is
    refused wherever a signature is checked."""

    @staticmethod
    def _pair():
        fields = dict(
            sender="aa" * 32, recipient="bb" * 32, amount=10, fee=1, nonce=0
        )
        return Transaction.pinned(**fields), make_tx(**fields)

    def test_equal_with_the_same_id(self):
        pinned, plain = self._pair()
        assert pinned == plain
        assert pinned.tx_id == plain.tx_id
        assert repr(pinned) == repr(plain)
        assert pinned.tx is pinned and plain.tx is plain
        assert pinned.verify() and not plain.verify()
        pinned.require_valid()
        with pytest.raises(InvalidTransactionError):
            plain.require_valid()

    def test_rows_and_copies(self):
        pinned, _ = self._pair()
        row = Transaction.pinned_row(
            "aa" * 32, "bb" * 32, 10, 1, 0, TxKind.TRANSFER, {}, pinned.tx_id
        )
        assert row == pinned and row.verify()
        assert row.signing_bytes == pinned.signing_bytes
        assert pickle.loads(pickle.dumps(pinned)).verify()
        # A modified copy is no longer vouched for.
        assert not dataclasses.replace(pinned, amount=11).verify()

    def test_pinned_construction_still_checks_fields(self):
        with pytest.raises(InvalidTransactionError):
            Transaction.pinned("aa" * 32, "bb" * 32, -1, 1, 0)

    def test_only_the_pinned_record_passes_admission(self):
        from repro.ledger import Mempool

        pinned, plain = self._pair()
        pool = Mempool()
        assert not pool.submit(plain)
        assert pool.rejected_count == 1
        assert pool.submit(pinned)
        assert pool.pending() == [pinned]

    def test_only_the_pinned_record_applies(self):
        from repro.ledger import LedgerState

        pinned, plain = self._pair()
        state = LedgerState({"aa" * 32: 100})
        with pytest.raises(InvalidTransactionError):
            state.apply(plain)
        assert state.balance_of("aa" * 32) == 100
        state.apply(pinned)
        assert state.balance_of("aa" * 32) == 89
        assert state.balance_of("bb" * 32) == 10

    def test_only_the_pinned_record_validates_in_a_block(self):
        from repro.errors import InvalidBlockError
        from repro.ledger import build_block

        pinned, plain = self._pair()
        build_block(1, "00" * 32, 1.0, "p", [pinned]).validate_structure()
        with pytest.raises(InvalidBlockError, match="invalid signature"):
            build_block(1, "00" * 32, 1.0, "p", [plain]).validate_structure()


class TestSignedTransactions:
    def test_wallet_signature_verifies(self, fresh_wallet):
        wallet = fresh_wallet("tx-signer")
        tx = wallet.build_transaction("cc" * 32, amount=1, nonce=0)
        stx = wallet.sign(tx)
        assert stx.verify()

    def test_modified_tx_fails_verification(self, fresh_wallet):
        wallet = fresh_wallet("tx-signer-2")
        tx = wallet.build_transaction("cc" * 32, amount=1, nonce=0)
        stx = wallet.sign(tx)
        tampered_tx = Transaction(
            sender=tx.sender,
            recipient=tx.recipient,
            amount=999,
            fee=tx.fee,
            nonce=tx.nonce,
            kind=tx.kind,
            payload=tx.payload,
        )
        forged = type(stx)(
            tx=tampered_tx, signature=stx.signature, key_proof=stx.key_proof
        )
        assert not forged.verify()

    def test_wrong_sender_address_fails(self, fresh_wallet):
        wallet = fresh_wallet("tx-signer-3")
        other = fresh_wallet("tx-other")
        tx = wallet.build_transaction("cc" * 32, amount=1, nonce=0)
        stx = wallet.sign(tx)
        # Re-point the sender at someone else's address.
        stolen_tx = Transaction(
            sender=other.address,
            recipient=tx.recipient,
            amount=tx.amount,
            fee=tx.fee,
            nonce=tx.nonce,
            kind=tx.kind,
        )
        forged = type(stx)(
            tx=stolen_tx, signature=stx.signature, key_proof=stx.key_proof
        )
        assert not forged.verify()

    def test_non_hex_sender_fails_gracefully(self, fresh_wallet):
        wallet = fresh_wallet("tx-signer-4")
        tx = wallet.build_transaction("cc" * 32, amount=1, nonce=0)
        stx = wallet.sign(tx)
        bad_tx = Transaction(
            sender="not-hex!",
            recipient=tx.recipient,
            amount=tx.amount,
            fee=tx.fee,
            nonce=tx.nonce,
            kind=tx.kind,
        )
        forged = type(stx)(
            tx=bad_tx, signature=stx.signature, key_proof=stx.key_proof
        )
        assert not forged.verify()

    def test_require_valid_raises(self, fresh_wallet):
        wallet = fresh_wallet("tx-signer-5")
        tx = wallet.build_transaction("cc" * 32, amount=1, nonce=0)
        stx = wallet.sign(tx)
        tampered = type(stx)(
            tx=wallet.build_transaction("cc" * 32, amount=2, nonce=0),
            signature=stx.signature,
            key_proof=stx.key_proof,
        )
        with pytest.raises(InvalidTransactionError):
            tampered.require_valid()
