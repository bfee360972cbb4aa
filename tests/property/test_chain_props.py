"""Property-based tests: ledger invariants under arbitrary tx streams."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidTransactionError
from repro.ledger import (
    Blockchain,
    ContractRegistry,
    LedgerState,
    PoAConsensus,
    TxKind,
    VotingContract,
    Wallet,
    build_block,
)

# Wallets are expensive to build; share a fixed cast across examples.
_CAST = [Wallet(seed=f"prop-wallet-{i}".encode(), height=6) for i in range(3)]
_VALIDATOR = Wallet(seed=b"prop-validator", height=8)

operations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),   # sender index
        st.integers(min_value=0, max_value=2),   # recipient index
        st.integers(min_value=0, max_value=300), # amount
        st.integers(min_value=0, max_value=5),   # fee
        st.sampled_from(["transfer", "stake", "unstake"]),
    ),
    max_size=25,
)


class TestSupplyConservation:
    @given(ops=operations)
    @settings(max_examples=40, deadline=None)
    def test_total_supply_conserved_in_state(self, ops):
        state = LedgerState({w.address: 500 for w in _CAST})
        initial_supply = state.total_supply
        burned = 0
        for sender_i, recipient_i, amount, fee, kind in ops:
            sender = Wallet(
                seed=f"prop-wallet-{sender_i}".encode(), height=6
            )
            nonce = state.nonce_of(sender.address)
            try:
                if kind == "transfer":
                    stx = sender.transfer(
                        _CAST[recipient_i].address, amount, nonce=nonce, fee=fee
                    )
                else:
                    tx_kind = TxKind.STAKE if kind == "stake" else TxKind.UNSTAKE
                    stx = sender.sign(
                        sender.build_transaction(
                            "", amount=amount, nonce=nonce, fee=fee, kind=tx_kind
                        )
                    )
                state.apply(stx)
                burned += fee  # fees burn until credit_fees is called
            except InvalidTransactionError:
                continue
        assert state.total_supply == initial_supply - burned

    @given(ops=operations)
    @settings(max_examples=15, deadline=None)
    def test_chain_supply_conserved_with_fees_to_proposer(self, ops):
        chain = Blockchain(
            PoAConsensus([_VALIDATOR.address]),
            genesis_balances={w.address: 500 for w in _CAST},
        )
        initial = chain.state.total_supply
        wallets = [
            Wallet(seed=f"prop-wallet-{i}".encode(), height=6) for i in range(3)
        ]
        for sender_i, recipient_i, amount, fee, kind in ops:
            sender = wallets[sender_i]
            nonce = chain.state.nonce_of(sender.address)
            if kind != "transfer":
                continue
            try:
                stx = sender.transfer(
                    _CAST[recipient_i].address, amount, nonce=nonce, fee=fee
                )
            except Exception:
                continue
            chain.mempool.submit(stx, chain.state)
            chain.propose_block(_VALIDATOR.address, timestamp=float(chain.height))
        # Proposer receives all fees, so supply is exactly conserved.
        assert chain.state.total_supply == initial

    @given(ops=operations)
    @settings(max_examples=10, deadline=None)
    def test_balances_never_negative(self, ops):
        state = LedgerState({w.address: 100 for w in _CAST})
        wallets = [
            Wallet(seed=f"prop-wallet-{i}".encode(), height=6) for i in range(3)
        ]
        for sender_i, recipient_i, amount, fee, kind in ops:
            sender = wallets[sender_i]
            try:
                stx = sender.transfer(
                    _CAST[recipient_i].address,
                    amount,
                    nonce=state.nonce_of(sender.address),
                    fee=fee,
                )
                state.apply(stx)
            except InvalidTransactionError:
                continue
            assert all(b >= 0 for b in state.balances.values())
            assert all(s >= 0 for s in state.stakes.values())


# A chain's life in rounds: submit some transactions, let the chain build
# a block of at most ``max_txs`` from its mempool, then maybe overtake the
# head with an empty fork from ``fork_back`` blocks below it (0: no fork).
_sender = st.integers(min_value=0, max_value=2)
_fee = st.integers(min_value=0, max_value=5)
_POLLS = ("p0", "p1")
_submissions = st.lists(
    st.one_of(
        # Amounts past the 500 genesis balances overdraw: speculation
        # drops them.
        st.tuples(
            st.just("transfer"), _sender, st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=700), _fee,
        ),
        st.tuples(st.just("stake"), _sender, st.integers(0, 300), _fee),
        st.tuples(st.just("unstake"), _sender, st.integers(0, 300), _fee),
        st.tuples(st.just("record"), _sender, st.text(max_size=6), _fee),
        # A duplicate poll reverts after its attached value has moved.
        st.tuples(
            st.just("open"), _sender, st.sampled_from(_POLLS),
            st.integers(0, 20), _fee,
        ),
        st.tuples(
            st.just("vote"), _sender, st.sampled_from(_POLLS),
            st.sampled_from(["yes", "no", "maybe"]), _fee,
        ),
    ),
    max_size=6,
)
chain_rounds = st.lists(
    st.tuples(
        _submissions,
        st.integers(min_value=1, max_value=4),   # max_txs
        st.integers(min_value=0, max_value=3),   # fork_back
    ),
    min_size=1,
    max_size=8,
)


def _state_view(state):
    """Everything a block state holds, as plain values."""
    return {
        "balances": dict(state.balances),
        "nonces": dict(state.nonces),
        "stakes": dict(state.stakes),
        "records": list(state.records),
        # Read the layers without the copy-on-read writes of item access.
        "contract_storage": state.contract_storage._merged(),
        "total_supply": state.total_supply,
    }


def _next_nonce(chain, address):
    """The lowest nonce at or past the chain's that no pending tx holds."""
    pending = {
        stx.tx.nonce for stx in chain.mempool.pending() if stx.tx.sender == address
    }
    nonce = chain.state.nonce_of(address)
    while nonce in pending:
        nonce += 1
    return nonce


def _sign(step, nonce, voting):
    kind, sender_i = step[0], step[1]
    sender = _CAST[sender_i]
    if kind == "transfer":
        _, _, recipient_i, amount, fee = step
        return sender.transfer(
            _CAST[recipient_i].address, amount, nonce=nonce, fee=fee
        )
    if kind in ("stake", "unstake"):
        _, _, amount, fee = step
        tx_kind = TxKind.STAKE if kind == "stake" else TxKind.UNSTAKE
        return sender.sign(
            sender.build_transaction(
                "", amount=amount, nonce=nonce, fee=fee, kind=tx_kind
            )
        )
    if kind == "record":
        return sender.record(nonce, {"note": step[2]}, fee=step[3])
    if kind == "open":
        _, _, poll, amount, fee = step
        return sender.call_contract(
            voting, "open", {"poll_id": poll, "options": ["yes", "no"]},
            nonce=nonce, amount=amount, fee=fee,
        )
    _, _, poll, option, fee = step
    return sender.call_contract(
        voting, "vote", {"poll_id": poll, "option": option}, nonce=nonce, fee=fee
    )


def _assert_index_matches_scan(chain):
    scan = {}
    for block in chain.main_chain():
        for position, stx in enumerate(block.transactions):
            scan[stx.tx_id] = (block.height, position)
    assert len(chain._tx_index) == len(scan)
    for tx_id, location in scan.items():
        assert chain.transaction_location(tx_id) == location


class TestAdoptedBlockState:
    """A block the chain builds commits its speculative state; that state
    must equal a replay of the block on its parent."""

    @given(rounds=chain_rounds)
    @settings(max_examples=60, deadline=None)
    def test_adopted_state_equals_replay(self, rounds):
        contracts = ContractRegistry()
        voting = contracts.deploy(VotingContract())
        chain = Blockchain(
            PoAConsensus([_VALIDATOR.address]),
            genesis_balances={w.address: 500 for w in _CAST},
            contracts=contracts,
        )
        clock = 0.0
        for submissions, max_txs, fork_back in rounds:
            for step in submissions:
                nonce = _next_nonce(chain, _CAST[step[1]].address)
                chain.mempool.submit(_sign(step, nonce, voting), chain.state)

            clock += 1.0
            block = chain.propose_block(
                _VALIDATOR.address, timestamp=clock, max_txs=max_txs
            )
            replay = chain.state_at(block.prev_hash).child()
            for stx in block.transactions:
                replay.apply(stx, contract_executor=contracts)
            replay.credit_fees(block.proposer, block.total_fees)
            adopted = chain.state_at(block.block_hash)
            assert _state_view(adopted) == _state_view(replay)
            assert adopted.balance_of(_VALIDATOR.address) == replay.balance_of(
                _VALIDATOR.address
            )
            _assert_index_matches_scan(chain)

            if not fork_back or chain.height < fork_back:
                continue
            reorgs = chain.reorg_count
            tip = chain.main_chain()[chain.height - fork_back]
            for _ in range(fork_back + 1):
                clock += 1.0
                tip = build_block(
                    tip.height + 1, tip.block_hash, clock, _VALIDATOR.address, []
                )
                chain.add_block(tip)
                _assert_index_matches_scan(chain)
            assert chain.head.block_hash == tip.block_hash
            assert chain.reorg_count == reorgs + 1
