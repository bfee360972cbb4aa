"""Property-based tests: columnar agent state ≡ dict state.

The struct-of-arrays :class:`~repro.world.columnar.AgentTable` is an
optimisation of the per-agent dict world, so the balance view the
ledger reads must be indistinguishable from a plain dict, the
:class:`~repro.world.columnar.AddressBook` behind it must resolve every
agent's address to its row, derived or not, and balance and nonce
writes must never disturb each other.  Hypothesis drives interleaved
reads and writes and compares against dicts after every program.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.world.columnar import AddressBook, AgentTable
from repro.workloads.load import agent_address, agent_addresses

N_AGENTS = 4
ADDRESSES = agent_addresses(N_AGENTS)


def derived_book():
    """A book that has derived every address in ADDRESSES."""
    book = AddressBook(N_AGENTS, ADDRESSES.__getitem__)
    book.addresses()
    return book


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

    def test_a_recorded_address_is_checked_and_never_derived(self):
        calls = []
        book = AddressBook(N_AGENTS, lambda i: calls.append(i) or ADDRESSES[i])
        assert book.record(2, ADDRESSES[2]) == ADDRESSES[2]
        assert book.address_of(2) == book.record(2, ADDRESSES[2])
        assert book.get(ADDRESSES[2]) == 2
        assert calls == [] and book.misses == 0
        for index, address in ((2, ADDRESSES[3]), (3, ADDRESSES[2])):
            with pytest.raises(ValueError):
                book.record(index, address)
        for index in (-1, N_AGENTS):
            with pytest.raises(IndexError):
                book.record(index, "ab" * 32)


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
    """One program moving balances through the ledger's view and nonces
    in their column, as an epoch's transfers do, and shipping nonce
    slices to shards, checked against dict-backed state."""

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["balance", "nonce", "ship"]),
                st.integers(min_value=0, max_value=N_AGENTS - 1),
                st.integers(min_value=0, max_value=50),
            ),
            min_size=0,
            max_size=40,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_columnar_state_matches_dicts(self, ops):
        table = AgentTable(N_AGENTS, initial_balance=100)
        balance_view = table.balance_map(AddressBook(N_AGENTS, agent_address))
        balances = {a: 100 for a in ADDRESSES}
        nonces = {}
        shipped = []

        for op, idx, value in ops:
            address = ADDRESSES[idx]
            if op == "balance":
                balance_view[address] = balance_view[address] + value
                balances[address] = balances[address] + value
            elif op == "nonce":  # the sender's nonce runs on by one
                table.nonces[idx] = table.nonces[idx] + 1
                nonces[idx] = nonces.get(idx, 0) + 1
            else:  # a shard's task carries a copy of its nonce slice
                shipped.append((
                    table.nonces[idx:].copy(),
                    [nonces.get(i, 0) for i in range(idx, N_AGENTS)],
                ))

        assert {a: balance_view[a] for a in ADDRESSES} == balances
        assert table.nonces.tolist() == [
            nonces.get(i, 0) for i in range(N_AGENTS)
        ]
        # Later writes to the column never reach a shipped slice.
        for column, expected in shipped:
            assert column.tolist() == expected
