"""Property-based tests: columnar agent state ≡ object/dict state.

The struct-of-arrays :class:`~repro.world.columnar.AgentTable` is an
optimisation of the per-agent dict world, so every observable —
balances, nonces, privacy spends, reputation, acceptance verdicts,
refusal *ordering* (skip-not-suffix), and raised exception types — must
be indistinguishable between the two backings.  Hypothesis drives
interleaved mutations across all four column families and compares
against the dict-backed reference after every program.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PrivacyBudgetExceeded, PrivacyError
from repro.privacy import PrivacyBudget
from repro.world.columnar import AddressBook, AgentTable, ColumnMap
from repro.workloads.load import agent_address, agent_addresses

N_AGENTS = 4
ADDRESSES = agent_addresses(N_AGENTS)
CAP = 1.0


def derived_book():
    """A book that has derived every address in ADDRESSES."""
    book = AddressBook(N_AGENTS, ADDRESSES.__getitem__)
    book.addresses()
    return book

valid_epsilon = st.one_of(
    st.floats(min_value=0.0, max_value=0.6, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, CAP, CAP + 1e-13, 2 * CAP]),  # boundary values
)
bad_epsilon = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.5, -1e-9]
)
subject_idx = st.integers(min_value=0, max_value=N_AGENTS - 1)
valid_batch = st.lists(
    st.tuples(subject_idx, valid_epsilon), min_size=0, max_size=24
)


def column_budget(cap: float = CAP):
    table = AgentTable(N_AGENTS, privacy_cap=cap)
    return table, PrivacyBudget.from_table(table, derived_book())


def sequential_reference(budget, batch):
    """The semantics charge_many promises: per-entry charge, skipping
    refusals (skip-not-suffix: later entries still get their turn)."""
    verdicts = []
    for idx, epsilon in batch:
        try:
            budget.charge(ADDRESSES[idx], epsilon)
            verdicts.append(True)
        except PrivacyBudgetExceeded:
            verdicts.append(False)
    return verdicts


class TestChargeManyColumnarEquivalence:
    @given(batch=valid_batch)
    @settings(max_examples=200, deadline=None)
    def test_verdicts_and_spends_match_object_budget(self, batch):
        _, col_budget = column_budget()
        obj_budget = PrivacyBudget(default_cap=CAP)
        expected = sequential_reference(obj_budget, batch)
        subjects = [ADDRESSES[i] for i, _ in batch]
        epsilons = [e for _, e in batch]
        got = col_budget.charge_many(subjects, epsilons)
        assert got == expected
        for address in ADDRESSES:
            # Bitwise: the vectorized kernel must perform each accepted
            # IEEE add in its sequential position.
            assert col_budget.spent(address) == obj_budget.spent(address)

    @given(batch=valid_batch)
    @settings(max_examples=150, deadline=None)
    def test_refusals_skip_not_suffix(self, batch):
        """A refused entry must not poison later entries for the same
        subject — the acceptance list equals the charge-by-charge
        reference, not an accept-prefix/refuse-suffix pattern."""
        table, col_budget = column_budget()
        reference = PrivacyBudget(default_cap=CAP)
        expected = sequential_reference(reference, batch)
        got = col_budget.charge_many(
            [ADDRESSES[i] for i, _ in batch], [e for _, e in batch]
        )
        assert got == expected
        # And the column holds exactly the accepted spends.
        for i, address in enumerate(ADDRESSES):
            total = reference.spent(address)
            assert float(table.privacy_spent[i]) == total

    @given(
        batch=st.lists(
            st.tuples(subject_idx, valid_epsilon), min_size=8, max_size=24
        ),
        poison=bad_epsilon,
        position=st.integers(min_value=0, max_value=23),
    )
    @settings(max_examples=100, deadline=None)
    def test_invalid_epsilon_raises_same_type_and_mutates_nothing(
        self, batch, poison, position
    ):
        bad = list(batch)
        bad.insert(position % (len(bad) + 1), (0, poison))
        subjects = [ADDRESSES[i] for i, _ in bad]
        epsilons = [e for _, e in bad]
        table, col_budget = column_budget()
        obj_budget = PrivacyBudget(default_cap=CAP)
        with pytest.raises(PrivacyError):
            obj_budget.charge_many(subjects, epsilons)
        with pytest.raises(PrivacyError):
            col_budget.charge_many(subjects, epsilons)
        # Validation-before-mutation on both paths: nothing spent.
        assert all(obj_budget.spent(a) == 0.0 for a in ADDRESSES)
        assert not table.privacy_spent.any()

    @given(batch=valid_batch)
    @settings(max_examples=100, deadline=None)
    def test_ledger_rows_match_object_budget(self, batch):
        _, col_budget = column_budget()
        obj_budget = PrivacyBudget(default_cap=CAP)
        sequential_reference(obj_budget, batch)
        col_budget.charge_many(
            [ADDRESSES[i] for i, _ in batch], [e for _, e in batch]
        )
        assert [
            (e.subject, e.epsilon) for e in col_budget.ledger
        ] == [(e.subject, e.epsilon) for e in obj_budget.ledger]


class TestChargeSpentKernel:
    @given(
        entries=st.lists(
            st.tuples(
                subject_idx,
                st.floats(
                    min_value=0.0,
                    max_value=0.5,
                    allow_nan=False,
                    allow_infinity=False,
                ),
            ),
            min_size=0,
            max_size=32,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_loop_bitwise(self, entries):
        table = AgentTable(N_AGENTS, privacy_cap=CAP)
        subjects = np.array([i for i, _ in entries], dtype=np.int64)
        epsilons = np.array([e for _, e in entries], dtype=np.float64)
        # Scalar reference on plain Python floats.
        spent = [0.0] * N_AGENTS
        expected = []
        for idx, eps in entries:
            room = max(0.0, CAP - spent[idx])
            if eps <= room + 1e-12:
                spent[idx] += eps
                expected.append(True)
            else:
                expected.append(False)
        got = table.charge_spent(subjects, epsilons)
        assert got.tolist() == expected
        assert table.privacy_spent.tolist() == spent


key_strategy = st.one_of(
    st.sampled_from(ADDRESSES),  # an agent's address
    st.sampled_from(["ff" * 32, "validator", "aa" * 32]),  # overflow
)


class TestAddressBook:
    def test_derives_each_address_once_on_first_use(self):
        calls = []
        book = AddressBook(N_AGENTS, lambda i: calls.append(i) or ADDRESSES[i])
        assert book.address_of(2) == book.address_of(2) == ADDRESSES[2]
        assert calls == [2]
        assert book.get(ADDRESSES[2]) == 2
        assert book.misses == 0

    def test_a_miss_derives_every_address_once(self):
        calls = []
        book = AddressBook(
            N_AGENTS,
            lambda i: calls.append(i) or agent_address(i),
            non_agents=["validator"],
        )
        # A known non-agent never misses.
        assert book.get("validator") == -1
        assert book.misses == 0
        assert book.get(ADDRESSES[3]) == 3
        assert book.misses == 1
        assert sorted(calls) == list(range(N_AGENTS))
        assert book.get("ff" * 32) == -1
        assert book.misses == 2
        assert book.addresses() == ADDRESSES
        assert len(calls) == N_AGENTS

    def test_out_of_range_index_and_duplicate_address_raise(self):
        book = AddressBook(N_AGENTS, agent_address)
        for index in (-1, N_AGENTS):
            with pytest.raises(IndexError):
                book.address_of(index)
        clash = AddressBook(2, lambda i: "same")
        clash.address_of(0)
        with pytest.raises(ValueError):
            clash.address_of(1)


class TestColumnMapDictSemantics:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["set", "get", "contains", "add"]),
                key_strategy,
                st.integers(min_value=0, max_value=10**9),
            ),
            min_size=0,
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_interleaved_ops_match_plain_dict(self, ops):
        # The book derives addresses on first use, so the first lookup
        # of an address it has not derived takes the miss path.
        table = AgentTable(N_AGENTS, initial_balance=7)
        view = table.balance_map(AddressBook(N_AGENTS, agent_address))
        reference = {a: 7 for a in ADDRESSES}
        for op, key, value in ops:
            if op == "set":
                view[key] = value
                reference[key] = value
            elif op == "add":  # read-modify-write, the ledger idiom
                view[key] = view.get(key, 0) + value
                reference[key] = reference.get(key, 0) + value
            elif op == "get":
                assert view.get(key, -1) == reference.get(key, -1)
            else:
                assert (key in view) == (key in reference)
        assert dict(view.items()) == reference
        assert len(view) == len(reference)
        assert sorted(view) == sorted(reference)
        # Values round-trip as plain Python ints, never numpy scalars.
        assert all(type(v) is int for v in view.values())

    def test_delete_is_rejected(self):
        table = AgentTable(N_AGENTS)
        view = table.balance_map(derived_book())
        with pytest.raises(TypeError):
            del view[ADDRESSES[0]]


class TestInterleavedMutations:
    """One program mutating all four column families, checked against
    dict-backed state — the composed 'society tick' equivalence."""

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["balance", "nonce", "charge", "reputation"]),
                subject_idx,
                st.integers(min_value=0, max_value=50),
            ),
            min_size=0,
            max_size=40,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_columnar_state_matches_dicts(self, ops):
        table = AgentTable(N_AGENTS, initial_balance=100, privacy_cap=CAP)
        book = AddressBook(N_AGENTS, agent_address)
        col_budget = PrivacyBudget.from_table(table, book)
        balance_view = table.balance_map(book)
        nonce_view = table.nonce_map(book)

        balances = {a: 100 for a in ADDRESSES}
        nonces = {}
        obj_budget = PrivacyBudget(default_cap=CAP)
        reputation = {a: 0.0 for a in ADDRESSES}

        for op, idx, value in ops:
            address = ADDRESSES[idx]
            if op == "balance":
                balance_view[address] = balance_view[address] + value
                balances[address] = balances[address] + value
            elif op == "nonce":
                nonce_view[address] = nonce_view.get(address, 0) + 1
                nonces[address] = nonces.get(address, 0) + 1
            elif op == "charge":
                epsilon = value / 100.0
                got = exp = None
                try:
                    col_budget.charge(address, epsilon)
                    got = True
                except PrivacyBudgetExceeded:
                    got = False
                try:
                    obj_budget.charge(address, epsilon)
                    exp = True
                except PrivacyBudgetExceeded:
                    exp = False
                assert got == exp
            else:
                table.reputation[idx] = value / 10.0
                reputation[address] = value / 10.0

        assert {a: balance_view[a] for a in ADDRESSES} == balances
        assert {a: nonce_view[a] for a in ADDRESSES} == {
            a: nonces.get(a, 0) for a in ADDRESSES
        }
        for i, address in enumerate(ADDRESSES):
            assert col_budget.spent(address) == obj_budget.spent(address)
            assert float(table.reputation[i]) == reputation[address]
        assert math.isclose(
            float(table.privacy_spent.sum()),
            sum(obj_budget.spent(a) for a in ADDRESSES),
        )
