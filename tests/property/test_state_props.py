"""Property-based tests: the transfer path of ``LedgerState.apply``
against a dict reference model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidBlockError, InvalidTransactionError
from repro.ledger import (
    Blockchain,
    LedgerState,
    PoAConsensus,
    Transaction,
    build_block,
)
from repro.world.columnar import AddressBook, AgentTable

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


# The block-state chain: each block state reads its own delta, then one
# flat view of every delta below it, which the newest child takes over.
AGENTS = [f"{i:064x}" for i in range(4)]
VALIDATOR = "ee" * 32

chain_steps = st.lists(
    st.tuples(
        st.sampled_from(["propose", "drop", "fork", "read", "reject"]),
        st.integers(min_value=0, max_value=10**6),  # picks a known block
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),    # sender
                st.integers(min_value=0, max_value=3),    # recipient
                st.integers(min_value=0, max_value=400),  # amount
            ),
            max_size=4,
        ),
    ),
    min_size=1,
    max_size=20,
)


def _model_apply(model, tx):
    balances, nonces = model
    held = balances.get(tx.sender, 0)
    if tx.recipient == tx.sender:
        balances[tx.sender] = held - tx.fee
    else:
        balances[tx.sender] = held - tx.amount - tx.fee
        balances[tx.recipient] = balances.get(tx.recipient, 0) + tx.amount
    nonces[tx.sender] = tx.nonce + 1


def _model_after(model, block):
    after = (dict(model[0]), dict(model[1]))
    for tx in block.transactions:
        _model_apply(after, tx)
    if block.total_fees:
        after[0][VALIDATOR] = after[0].get(VALIDATOR, 0) + block.total_fees
    return after


def _transfers(model, moves):
    """Transfers that apply in any order that keeps each sender's
    nonces in sequence: a sender only spends what it held before."""
    balances, nonces = model
    spent, next_nonce, txs = {}, dict(nonces), []
    for s, r, amount in moves:
        sender = AGENTS[s]
        if balances.get(sender, 0) - spent.get(sender, 0) < amount + 1:
            continue
        nonce = next_nonce.get(sender, 0)
        txs.append(Transaction.pinned(sender, AGENTS[r], amount, 1, nonce))
        spent[sender] = spent.get(sender, 0) + amount + 1
        next_nonce[sender] = nonce + 1
    return txs


def _matches(state, model):
    balances, nonces = model
    for address in AGENTS + [VALIDATOR]:
        assert state.balance_of(address) == balances.get(address, 0)
        assert state.nonce_of(address) == nonces.get(address, 0)
        assert (address in state.balances) == (address in balances)
    assert dict(state.balances) == balances
    assert dict(state.nonces) == nonces


class TestBlockStates:
    @given(steps=chain_steps, columns=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_every_block_state_matches_its_snapshot(self, steps, columns):
        if columns:
            genesis = LedgerState.from_columns(
                AgentTable(len(AGENTS), initial_balance=300),
                AddressBook(len(AGENTS), AGENTS.__getitem__, (VALIDATOR,)),
            )
        else:
            genesis = LedgerState({address: 300 for address in AGENTS})
        chain = Blockchain(PoAConsensus([VALIDATOR]), genesis_state=genesis)
        models = {chain.head.block_hash: ({a: 300 for a in AGENTS}, {})}
        known = [chain.head]
        for step, (kind, pick, moves) in enumerate(steps):
            parent = known[pick % len(known)]
            model = models[parent.block_hash]
            touched = parent
            if kind in ("propose", "drop"):
                # From the pool onto the head: a clean block commits the
                # speculative state, and a drop (an overdraw) replays
                # the block on a second child of the head.
                parent = chain.head
                model = models[parent.block_hash]
                txs = _transfers(model, moves)
                if kind == "drop":
                    sender = AGENTS[pick % len(AGENTS)]
                    txs = [tx for tx in txs if tx.sender != sender]
                    txs.append(
                        Transaction.pinned(
                            sender, AGENTS[0], 10**6, 1,
                            model[1].get(sender, 0),
                        )
                    )
                for tx in txs:
                    assert chain.mempool.submit(tx, chain.state)
                touched = chain.propose_block(
                    VALIDATOR, timestamp=parent.timestamp + 1 + step / 1000
                )
                assert len(chain.mempool) == 0
                models[touched.block_hash] = _model_after(model, touched)
                known.append(touched)
            elif kind in ("fork", "reject"):
                # A received block on any known state (an old one forks);
                # a rejected one fails on a bad nonce.
                txs = _transfers(model, moves)
                if kind == "reject":
                    sender = AGENTS[pick % len(AGENTS)]
                    txs.append(
                        Transaction.pinned(
                            sender, AGENTS[1], 0, 1,
                            model[1].get(sender, 0) + 7,
                        )
                    )
                block = build_block(
                    height=parent.height + 1,
                    prev_hash=parent.block_hash,
                    timestamp=parent.timestamp + 1 + step / 1000,
                    proposer=VALIDATOR,
                    transactions=txs,
                )
                if kind == "reject":
                    with pytest.raises(InvalidBlockError):
                        chain.add_block(block)
                else:
                    chain.add_block(block)
                    models[block.block_hash] = _model_after(model, block)
                    known.append(block)
                    touched = block
            _matches(chain.state_at(touched.block_hash), models[touched.block_hash])
            _matches(chain.state, models[chain.head.block_hash])
