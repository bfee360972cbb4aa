"""Property-based tests: mempool selection always yields applicable blocks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ledger import LedgerState, Mempool, Wallet
from repro.ledger.mempool import _desc_id, _fee_key
from repro.workloads.load import agent_address, synthetic_transfer

# Fixed wallet cast (generation is the expensive part).
_WALLETS = [Wallet(seed=f"mp-prop-{i}".encode(), height=6) for i in range(3)]

submissions = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),    # sender
        st.integers(min_value=0, max_value=8),    # nonce
        st.integers(min_value=0, max_value=20),   # fee
    ),
    max_size=25,
)


class TestSelectionProperties:
    @given(subs=submissions, max_count=st.integers(min_value=1, max_value=30))
    @settings(max_examples=50, deadline=None)
    def test_selection_is_always_applicable_in_order(self, subs, max_count):
        state = LedgerState({w.address: 10_000 for w in _WALLETS})
        pool = Mempool()
        wallets = [Wallet(seed=f"mp-prop-{i}".encode(), height=6) for i in range(3)]
        for sender_i, nonce, fee in subs:
            stx = wallets[sender_i].transfer(
                "ff" * 32, amount=1, nonce=nonce, fee=fee
            )
            pool.submit(stx, state)
        selected = pool.select(state, max_count=max_count)
        assert len(selected) <= max_count
        # The selected sequence must apply cleanly in order.
        for stx in selected:
            state.apply(stx)

    @given(subs=submissions)
    @settings(max_examples=50, deadline=None)
    def test_no_duplicate_selection(self, subs):
        state = LedgerState({w.address: 10_000 for w in _WALLETS})
        pool = Mempool()
        wallets = [Wallet(seed=f"mp-prop-{i}".encode(), height=6) for i in range(3)]
        for sender_i, nonce, fee in subs:
            pool.submit(
                wallets[sender_i].transfer("ff" * 32, 1, nonce=nonce, fee=fee),
                state,
            )
        selected = pool.select(state, max_count=100)
        ids = [s.tx_id for s in selected]
        assert len(ids) == len(set(ids))

    @given(subs=submissions)
    @settings(max_examples=50, deadline=None)
    def test_per_sender_nonces_strictly_sequential(self, subs):
        state = LedgerState({w.address: 10_000 for w in _WALLETS})
        pool = Mempool()
        wallets = [Wallet(seed=f"mp-prop-{i}".encode(), height=6) for i in range(3)]
        for sender_i, nonce, fee in subs:
            pool.submit(
                wallets[sender_i].transfer("ff" * 32, 1, nonce=nonce, fee=fee),
                state,
            )
        selected = pool.select(state, max_count=100)
        per_sender = {}
        for stx in selected:
            per_sender.setdefault(stx.tx.sender, []).append(stx.tx.nonce)
        for sender, nonces in per_sender.items():
            start = state.nonce_of(sender)
            assert nonces == list(range(start, start + len(nonces)))

    @given(subs=submissions)
    @settings(max_examples=40, deadline=None)
    def test_prune_then_reselect_disjoint(self, subs):
        state = LedgerState({w.address: 10_000 for w in _WALLETS})
        pool = Mempool()
        wallets = [Wallet(seed=f"mp-prop-{i}".encode(), height=6) for i in range(3)]
        for sender_i, nonce, fee in subs:
            pool.submit(
                wallets[sender_i].transfer("ff" * 32, 1, nonce=nonce, fee=fee),
                state,
            )
        first = pool.select(state, max_count=5)
        pool.prune_included([s.tx_id for s in first])
        # apply the first batch so the state advances
        for stx in first:
            state.apply(stx)
        second = pool.select(state, max_count=100)
        assert {s.tx_id for s in first}.isdisjoint({s.tx_id for s in second})


def _greedy_reference(pending, state, max_count):
    """The naive spec: per pick, rescan every sender for its executable
    transaction (best fee at the sender's next nonce, replacements
    resolved to the highest ``(fee, tx_id)``), then take the global best.
    The indexed implementation must match this order exactly."""
    by_sender = {}
    for stx in pending:
        by_sender.setdefault(stx.tx.sender, {}).setdefault(
            stx.tx.nonce, []
        ).append(stx)
    session = {sender: state.nonce_of(sender) for sender in by_sender}
    selected = []
    while len(selected) < max_count:
        best = None
        for sender, buckets in by_sender.items():
            bucket = buckets.get(session[sender])
            if not bucket:
                continue
            candidate = max(bucket, key=_fee_key)
            if best is None or _fee_key(candidate) > _fee_key(best):
                best = candidate
        if best is None:
            break
        selected.append(best)
        session[best.tx.sender] += 1
    return selected


# Synthetic (unsigned-but-valid) submissions: many senders, nonce gaps,
# fee ties, and replacements — everything the index must get right.
indexed_submissions = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),    # sender
        st.integers(min_value=0, max_value=5),    # nonce
        st.integers(min_value=0, max_value=6),    # fee (ties likely)
        st.integers(min_value=1, max_value=3),    # amount (distinct tx_ids)
    ),
    max_size=40,
)


class TestIndexedSelectionEquivalence:
    """The head-heap implementation against the naive greedy spec."""

    @given(
        subs=indexed_submissions,
        max_count=st.integers(min_value=1, max_value=45),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_greedy_reference(self, subs, max_count):
        state = LedgerState({agent_address(i): 10_000 for i in range(8)})
        pool = Mempool()
        for sender_i, nonce, fee, amount in subs:
            pool.submit(
                synthetic_transfer(
                    agent_address(sender_i), "ff" * 32, amount, fee, nonce
                ),
                state,
            )
        got = [s.tx_id for s in pool.select(state, max_count=max_count)]
        want = [
            s.tx_id
            for s in _greedy_reference(pool.pending(), state, max_count)
        ]
        assert got == want

    @given(subs=indexed_submissions, max_count=st.integers(min_value=1, max_value=45))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_under_eviction_pressure(self, subs, max_count):
        # A small pool forces evictions mid-stream; selection must agree
        # with the reference over whatever residents survived.
        state = LedgerState({agent_address(i): 10_000 for i in range(8)})
        pool = Mempool(capacity=10)
        for sender_i, nonce, fee, amount in subs:
            pool.submit(
                synthetic_transfer(
                    agent_address(sender_i), "ff" * 32, amount, fee, nonce
                ),
                state,
            )
        got = [s.tx_id for s in pool.select(state, max_count=max_count)]
        want = [
            s.tx_id
            for s in _greedy_reference(pool.pending(), state, max_count)
        ]
        assert got == want

    @given(subs=indexed_submissions)
    @settings(max_examples=60, deadline=None)
    def test_select_repeatable_and_nonmutating(self, subs):
        # select() must not consume pool state: two identical calls
        # return identical picks, and residency is unchanged.
        state = LedgerState({agent_address(i): 10_000 for i in range(8)})
        pool = Mempool()
        for sender_i, nonce, fee, amount in subs:
            pool.submit(
                synthetic_transfer(
                    agent_address(sender_i), "ff" * 32, amount, fee, nonce
                ),
                state,
            )
        before = {s.tx_id for s in pool.pending()}
        first = [s.tx_id for s in pool.select(state, max_count=25)]
        second = [s.tx_id for s in pool.select(state, max_count=25)]
        assert first == second
        assert {s.tx_id for s in pool.pending()} == before


class TestDescId:
    @given(tx_id=st.text(alphabet="0123456789abcdefABCDEF", min_size=64, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_matches_digitwise_inversion(self, tx_id):
        expected = "".join("%x" % (15 - int(ch, 16)) for ch in tx_id)
        assert _desc_id(tx_id) == expected


# (admissions, residents a block then includes, oldest first) per cycle.
admit_include_cycles = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=12),
    ),
    min_size=1,
    max_size=30,
)


class TestEvictionHeapBound:
    @given(cycles=admit_include_cycles, capacity=st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_heap_bounded_and_evictions_match_reference(self, cycles, capacity):
        pool = Mempool(capacity=capacity)
        residents = {}  # reference pool: tx_id -> stx, in admission order
        serial = 0
        for admissions, included in cycles:
            for _ in range(admissions):
                serial += 1
                stx = synthetic_transfer(
                    agent_address(serial), agent_address(0),
                    amount=serial, fee=serial * 7 % 11, nonce=0,
                )
                if len(residents) >= capacity:
                    victim = min(residents.values(), key=_fee_key)
                    if victim.tx.fee >= stx.tx.fee:
                        assert not pool.submit(stx)
                        continue
                    del residents[victim.tx_id]
                assert pool.submit(stx)
                residents[stx.tx_id] = stx
            block = list(residents)[:included]
            pool.prune_included(block)
            for tx_id in block:
                del residents[tx_id]
            assert {stx.tx_id for stx in pool.pending()} == set(residents)
            assert len(pool._fee_heap) <= 2 * len(pool)
