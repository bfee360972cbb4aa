"""Tests for the ledger state machine."""

import pytest

from repro.errors import InvalidTransactionError
from repro.ledger import LedgerState, TxKind, Wallet


@pytest.fixture
def alice():
    return Wallet(seed=b"state-alice")


@pytest.fixture
def bob():
    return Wallet(seed=b"state-bob")


@pytest.fixture
def state(alice, bob):
    return LedgerState({alice.address: 100, bob.address: 50})


class TestTransfers:
    def test_transfer_moves_balance(self, state, alice, bob):
        state.apply(alice.transfer(bob.address, 30, nonce=0))
        assert state.balance_of(alice.address) == 70
        assert state.balance_of(bob.address) == 80

    def test_insufficient_balance_rejected(self, state, alice, bob):
        with pytest.raises(InvalidTransactionError):
            state.apply(alice.transfer(bob.address, 1000, nonce=0))

    def test_fee_deducted_from_sender(self, state, alice, bob):
        state.apply(alice.transfer(bob.address, 30, nonce=0, fee=5))
        assert state.balance_of(alice.address) == 65

    def test_amount_plus_fee_must_be_covered(self, state, alice, bob):
        with pytest.raises(InvalidTransactionError):
            state.apply(alice.transfer(bob.address, 98, nonce=0, fee=5))

    def test_transfer_to_unknown_account_creates_it(self, state, alice):
        state.apply(alice.transfer("ee" * 32, 10, nonce=0))
        assert state.balance_of("ee" * 32) == 10


class TestNonces:
    def test_nonces_must_be_sequential(self, state, alice, bob):
        state.apply(alice.transfer(bob.address, 1, nonce=0))
        with pytest.raises(InvalidTransactionError):
            state.apply(alice.transfer(bob.address, 1, nonce=0))  # replay
        with pytest.raises(InvalidTransactionError):
            state.apply(alice.transfer(bob.address, 1, nonce=5))  # gap
        state.apply(alice.transfer(bob.address, 1, nonce=1))
        assert state.nonce_of(alice.address) == 2

    def test_replayed_signed_tx_rejected(self, state, alice, bob):
        stx = alice.transfer(bob.address, 5, nonce=0)
        state.apply(stx)
        with pytest.raises(InvalidTransactionError):
            state.apply(stx)


class TestStaking:
    def test_stake_moves_balance_to_stake(self, state, alice):
        stx = alice.sign(
            alice.build_transaction("", amount=40, nonce=0, kind=TxKind.STAKE)
        )
        state.apply(stx)
        assert state.balance_of(alice.address) == 60
        assert state.stake_of(alice.address) == 40

    def test_unstake_returns_balance(self, state, alice):
        state.apply(
            alice.sign(
                alice.build_transaction("", amount=40, nonce=0, kind=TxKind.STAKE)
            )
        )
        state.apply(
            alice.sign(
                alice.build_transaction("", amount=0, nonce=1, kind=TxKind.UNSTAKE,
                                        payload={})
            )
        )
        # unstake of 0 is a no-op; now unstake a real amount
        stx = alice.sign(
            alice.build_transaction("", amount=15, nonce=2, kind=TxKind.UNSTAKE)
        )
        state.apply(stx)
        assert state.stake_of(alice.address) == 25
        assert state.balance_of(alice.address) == 75

    def test_overdraw_unstake_rejected(self, state, alice):
        stx = alice.sign(
            alice.build_transaction("", amount=10, nonce=0, kind=TxKind.UNSTAKE)
        )
        with pytest.raises(InvalidTransactionError):
            state.apply(stx)

    def test_supply_conserved_by_staking(self, state, alice):
        before = state.total_supply
        state.apply(
            alice.sign(
                alice.build_transaction("", amount=30, nonce=0, kind=TxKind.STAKE)
            )
        )
        assert state.total_supply == before


class TestRecords:
    def test_record_appends_payload(self, state, alice):
        state.apply(alice.record(nonce=0, record_payload={"category": "gaze"}))
        assert state.records[-1]["category"] == "gaze"
        assert state.records[-1]["sender"] == alice.address


class TestContracts:
    def test_contract_tx_requires_executor(self, state, alice):
        stx = alice.call_contract("dd" * 32, "m", {}, nonce=0)
        with pytest.raises(InvalidTransactionError):
            state.apply(stx)

    def test_contract_executor_receives_call(self, state, alice):
        calls = []

        def executor(st, stx):
            calls.append(stx.tx.payload["method"])
            return {"ok": True}

        stx = alice.call_contract("dd" * 32, "ping", {}, nonce=0, amount=5)
        result = state.apply(stx, contract_executor=executor)
        assert result == {"ok": True}
        assert calls == ["ping"]
        assert state.balance_of("dd" * 32) == 5  # value moved to contract


class TestFeesAndCopies:
    def test_credit_fees(self, state):
        state.credit_fees("pp" * 32, 7)
        assert state.balance_of("pp" * 32) == 7

    def test_negative_fees_rejected(self, state):
        with pytest.raises(ValueError):
            state.credit_fees("pp" * 32, -1)

    def test_copy_is_independent(self, state, alice, bob):
        clone = state.copy()
        clone.apply(alice.transfer(bob.address, 10, nonce=0))
        assert state.balance_of(alice.address) == 100
        assert clone.balance_of(alice.address) == 90

    def test_copy_preserves_contract_storage(self, state):
        state.contract_storage["c1"] = {"nested": {"list": [1, 2]}}
        clone = state.copy()
        clone.contract_storage["c1"]["nested"]["list"].append(3)
        assert state.contract_storage["c1"]["nested"]["list"] == [1, 2]

    def test_negative_initial_balance_rejected(self):
        with pytest.raises(ValueError):
            LedgerState({"x": -5})


class TestCopyOnWriteChild:
    """child() snapshots: O(1) overlays used by the chain hot path."""

    def test_child_reads_parent_values(self, state, alice, bob):
        child = state.child()
        assert child.balance_of(alice.address) == 100
        assert child.balance_of(bob.address) == 50
        assert child.nonce_of(alice.address) == 0
        assert child.total_supply == state.total_supply

    def test_child_writes_do_not_leak_into_parent(self, state, alice, bob):
        child = state.child()
        child.apply(alice.transfer(bob.address, 30, nonce=0, fee=2))
        assert child.balance_of(alice.address) == 68
        assert child.nonce_of(alice.address) == 1
        # Parent snapshot is untouched.
        assert state.balance_of(alice.address) == 100
        assert state.nonce_of(alice.address) == 0

    def test_grandchild_layers_stack(self, state, alice, bob):
        child = state.child()
        child.apply(alice.transfer(bob.address, 10, nonce=0))
        grandchild = child.child()
        grandchild.apply(alice.transfer(bob.address, 10, nonce=1))
        assert grandchild.balance_of(alice.address) == 80
        assert child.balance_of(alice.address) == 90
        assert state.balance_of(alice.address) == 100

    def test_deep_chains_flatten_and_stay_correct(self, state, alice, bob):
        # Far deeper than the flatten threshold; values must survive.
        current = state
        for i in range(50):
            current = current.child()
            current.apply(alice.transfer(bob.address, 1, nonce=i))
        assert current.balance_of(alice.address) == 50
        assert current.balance_of(bob.address) == 100
        assert current.nonce_of(alice.address) == 50
        assert current.total_supply == state.total_supply
        assert state.balance_of(alice.address) == 100

    def test_deep_chains_over_column_base_read_like_dict_base(self):
        from repro.world.columnar import AgentTable

        addresses = [f"{i:064x}" for i in range(40)]
        outsider = "ee" * 32  # not interned: lands in overlays only
        table = AgentTable(addresses, initial_balance=500)
        balances = {address: 500 for address in addresses}
        nonces = {}
        states = [LedgerState.from_columns(table), LedgerState(balances)]
        for depth in range(50):
            # Each layer writes keys the next few layers leave alone, so
            # reads must reach every layer down to the base.
            writes = {addresses[depth % 40]: depth}
            if depth % 7 == 0:
                writes[outsider] = depth
            balances.update(writes)
            nonces[addresses[3 * depth % 40]] = depth + 1
            states = [parent.child() for parent in states]
            for current in states:
                current.balances.update(writes)
                current.nonces[addresses[3 * depth % 40]] = depth + 1
                for address in addresses + [outsider]:
                    assert current.balance_of(address) == balances.get(address, 0)
                    assert current.nonce_of(address) == nonces.get(address, 0)
                    assert (address in current.balances) == (address in balances)
                assert dict(current.balances) == balances
                assert dict(current.nonces) == nonces
                assert current.total_supply == sum(balances.values())
        # The column base is never written through an overlay.
        assert table.balances.tolist() == [500] * 40

    def test_contract_storage_copy_on_read(self, state):
        state.contract_storage["c1"] = {"nested": {"list": [1, 2]}}
        child = state.child()
        child.contract_storage["c1"]["nested"]["list"].append(3)
        assert child.contract_storage["c1"]["nested"]["list"] == [1, 2, 3]
        assert state.contract_storage["c1"]["nested"]["list"] == [1, 2]

    def test_contract_storage_setdefault_isolated(self, state):
        state.contract_storage["c1"] = {"supply": 5}
        child = state.child()
        storage = child.contract_storage.setdefault("c1", {})
        storage["supply"] = 9
        assert child.contract_storage["c1"]["supply"] == 9
        assert state.contract_storage["c1"]["supply"] == 5

    def test_records_overlay(self, state, alice):
        state.records.append({"sender": "root", "category": "seed"})
        child = state.child()
        child.records.append({"sender": "child", "category": "gaze"})
        assert len(child.records) == 2
        assert child.records[-1]["sender"] == "child"
        assert child.records[0]["sender"] == "root"
        assert len(state.records) == 1

    def test_child_then_eager_copy_is_independent(self, state, alice, bob):
        child = state.child()
        child.apply(alice.transfer(bob.address, 10, nonce=0))
        clone = child.copy()
        clone.apply(alice.transfer(bob.address, 10, nonce=1))
        assert clone.balance_of(alice.address) == 80
        assert child.balance_of(alice.address) == 90

    def test_mapping_protocol_on_overlays(self, state, alice, bob):
        child = state.child()
        child.stakes[alice.address] = 25
        assert dict(child.stakes) == {alice.address: 25}
        assert alice.address in child.stakes
        assert child.stakes == {alice.address: 25}
        assert sorted(child.balances.values()) == [50, 100]
        assert len(child.balances) == 2
