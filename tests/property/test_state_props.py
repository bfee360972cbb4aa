"""Property-based tests: the transfer path of ``LedgerState.apply``
against a dict reference model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidTransactionError
from repro.ledger import LedgerState, Transaction

ACCOUNTS = ["a0" * 32, "a1" * 32, "a2" * 32]
GENESIS = {ACCOUNTS[0]: 300, ACCOUNTS[1]: 40}  # ACCOUNTS[2] starts absent

transfers = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),    # sender
        st.integers(min_value=0, max_value=3),    # recipient; 3 is ""
        st.integers(min_value=0, max_value=400),  # amount
        st.integers(min_value=0, max_value=5),    # fee
        st.sampled_from([0, 0, 0, 1, -1]),        # nonce minus expected
        st.booleans(),                            # new overlay after it
    ),
    max_size=30,
)


def _snapshot(state):
    return dict(state.balances), dict(state.nonces)


class TestTransferPath:
    @given(ops=transfers)
    @settings(max_examples=150, deadline=None)
    def test_matches_a_dict_model(self, ops):
        balances, nonces = dict(GENESIS), {}
        state = LedgerState(GENESIS).child()
        for s, r, amount, fee, offset, layer in ops:
            sender = ACCOUNTS[s]
            recipient = ACCOUNTS[r] if r < len(ACCOUNTS) else ""
            expected = nonces.get(sender, 0)
            nonce = max(0, expected + offset)
            tx = Transaction.pinned(sender, recipient, amount, fee, nonce)
            if nonce != expected or balances.get(sender, 0) < amount + fee:
                before = _snapshot(state)
                with pytest.raises(InvalidTransactionError):
                    state.apply(tx)
                assert _snapshot(state) == before
            else:
                assert state.apply(tx) is None
                balances[sender] = balances.get(sender, 0) - amount - fee
                if recipient:
                    balances[recipient] = balances.get(recipient, 0) + amount
                nonces[sender] = nonce + 1
            assert _snapshot(state) == (balances, nonces)
            if layer:
                # The parent is frozen from here on; reads walk overlays.
                state = state.child()
