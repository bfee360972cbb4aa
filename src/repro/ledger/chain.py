"""The blockchain: block storage, validation, fork choice, and queries.

``Blockchain`` keeps every received block in a block-tree, applies each
block's transactions to a copy of its parent's state, and selects the
canonical head by *longest chain* (tie broken by lowest block hash so
every node agrees).  Because states are kept per block, reorgs are
instant — the head pointer just moves.  A block the chain assembles from
its own mempool runs each transaction once: the speculative state its
candidates were checked on becomes the block's state.

The chain is the audit substrate of the reproduction: the paper's §II-D
asks that "a distributed ledger can register any party's data collection
and processing activities"; :meth:`find_transaction` plus
:meth:`Block.inclusion_proof` give auditors exact, cryptographic answers.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ContractError, InvalidBlockError, InvalidTransactionError
from repro.ledger.block import Block, build_block
from repro.ledger.consensus import ConsensusStrategy
from repro.ledger.contracts import ContractRegistry
from repro.ledger.mempool import Mempool
from repro.ledger.state import LedgerState
from repro.ledger.transactions import SignedTransaction
from repro.obs.instrument import NULL_OBS, Instrumentation

__all__ = ["Blockchain"]

GENESIS_PREV_HASH = "00" * 32


class Blockchain:
    """A single logical chain (all simulated nodes share one instance;
    network partitions are modelled by feeding conflicting blocks).

    Parameters
    ----------
    consensus:
        Proposer-eligibility strategy (PoA or PoS).
    genesis_balances:
        Initial token allocation.
    genesis_state:
        Pre-built genesis :class:`LedgerState` — e.g.
        :meth:`LedgerState.from_columns` over an ``AgentTable`` so a
        million-agent genesis never builds a dict.  Mutually exclusive
        with ``genesis_balances``.
    contracts:
        Registry executing CONTRACT/MINT transactions; a fresh empty
        registry is created if omitted.
    """

    def __init__(
        self,
        consensus: ConsensusStrategy,
        genesis_balances: Optional[Dict[str, int]] = None,
        contracts: Optional[ContractRegistry] = None,
        obs: Optional[Instrumentation] = None,
        genesis_state: Optional[LedgerState] = None,
    ):
        self.consensus = consensus
        self.contracts = contracts if contracts is not None else ContractRegistry()
        if genesis_state is None:
            genesis_state = LedgerState(genesis_balances or {})
        elif genesis_balances is not None:
            raise ValueError("pass genesis_balances or genesis_state, not both")
        self._genesis = Block(
            height=0,
            prev_hash=GENESIS_PREV_HASH,
            merkle_root="",
            timestamp=0.0,
            proposer="genesis",
        )
        genesis_hash = self._genesis.block_hash
        self._blocks: Dict[str, Block] = {genesis_hash: self._genesis}
        self._states: Dict[str, LedgerState] = {genesis_hash: genesis_state}
        self._head_hash = genesis_hash
        self._obs = obs if obs is not None else NULL_OBS
        self.mempool = Mempool(obs=obs)
        self.rejected_blocks = 0
        self.reorg_count = 0
        # tx_id → (block_hash, position) along the *canonical* chain,
        # maintained on head moves: extensions append their block's
        # transactions, reorgs rebuild.  find_transaction and audit
        # queries are O(1) instead of a linear chain walk.
        self._tx_index: Dict[str, Tuple[str, int]] = {}

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def genesis(self) -> Block:
        return self._genesis

    @property
    def head(self) -> Block:
        """The canonical tip."""
        return self._blocks[self._head_hash]

    @property
    def height(self) -> int:
        return self.head.height

    @property
    def state(self) -> LedgerState:
        """State after applying the canonical chain (do not mutate)."""
        return self._states[self._head_hash]

    def block_by_hash(self, block_hash: str) -> Optional[Block]:
        return self._blocks.get(block_hash)

    def state_at(self, block_hash: str) -> Optional[LedgerState]:
        return self._states.get(block_hash)

    def main_chain(self) -> List[Block]:
        """Genesis→head block list along the canonical chain."""
        chain: List[Block] = []
        cursor: Optional[Block] = self.head
        while cursor is not None:
            chain.append(cursor)
            if cursor.height == 0:
                break
            cursor = self._blocks.get(cursor.prev_hash)
        chain.reverse()
        return chain

    def iter_transactions(self) -> Iterator[Tuple[Block, SignedTransaction]]:
        """Yield ``(block, signed_tx)`` along the canonical chain."""
        for block in self.main_chain():
            for stx in block.transactions:
                yield block, stx

    def find_transaction(self, tx_id: str) -> Optional[Tuple[Block, SignedTransaction]]:
        """Locate a transaction on the canonical chain (O(1): indexed)."""
        location = self._tx_index.get(tx_id)
        if location is None:
            return None
        block_hash, position = location
        block = self._blocks[block_hash]
        return block, block.transactions[position]

    def transaction_location(self, tx_id: str) -> Optional[Tuple[int, int]]:
        """``(block_height, index_in_block)`` of a canonical-chain
        transaction, or None — the audit-trail lookup, O(1)."""
        location = self._tx_index.get(tx_id)
        if location is None:
            return None
        block_hash, position = location
        return self._blocks[block_hash].height, position

    # ------------------------------------------------------------------
    # Block production
    # ------------------------------------------------------------------
    def propose_block(
        self,
        proposer: str,
        timestamp: float,
        transactions: Optional[Sequence[SignedTransaction]] = None,
        max_txs: int = 100,
    ) -> Block:
        """Assemble, validate, and append the next canonical block.

        If ``transactions`` is omitted, the block is filled from the
        mempool, and the state the candidates were speculatively applied
        to becomes the block's state unless one of them was dropped.
        Raises :class:`InvalidBlockError` if ``proposer`` is not the
        consensus-expected proposer for the next height.
        """
        parent = self.head
        with self._obs.span(
            "ledger.chain",
            "block.produce",
            time=timestamp,
            height=parent.height + 1,
            proposer=proposer,
        ) as span:
            executed: Optional[LedgerState] = None
            if transactions is None:
                # Pre-execute candidates speculatively so one reverting
                # contract call cannot poison every subsequent proposal.
                candidates = self.mempool.select(self.state, max_count=max_txs)
                # Copy-on-write overlay: speculation only pays for the keys
                # the candidate transactions actually touch.
                speculative = self.state.child()
                executable = []
                for stx in candidates:
                    try:
                        speculative.apply(stx, contract_executor=self.contracts)
                    except (InvalidTransactionError, ContractError):
                        self.mempool.prune_included([stx.tx_id])
                        self._obs.event(
                            "ledger.chain",
                            "tx.dropped_speculation",
                            time=timestamp,
                            tx_id=stx.tx_id,
                        )
                    else:
                        executable.append(stx)
                transactions = executable
                # With nothing dropped, the speculative child holds exactly
                # this block's transactions applied to its parent: commit
                # it instead of executing them again.  A dropped contract
                # call may have left moved value or storage writes behind,
                # so then the block is replayed like any received block.
                if len(executable) == len(candidates):
                    executed = speculative
            block = build_block(
                height=parent.height + 1,
                prev_hash=parent.block_hash,
                timestamp=timestamp,
                proposer=proposer,
                transactions=transactions,
            )
            span.set_attribute("n_txs", len(block.transactions))
            span.set_attribute("block_hash", block.block_hash)
            self._commit(block, executed)
            self._obs.counter("ledger.blocks_produced").inc()
            self._obs.histogram("ledger.block_txs").observe(
                float(len(block.transactions))
            )
        return block

    def add_block(self, block: Block) -> None:
        """Validate ``block`` against its parent and store it.

        Validation: structure (Merkle root, signatures, duplicates),
        parent linkage, height, monotonic timestamp, consensus proposer
        rule, and clean application of every transaction to the parent
        state.  Accepting a block may move the head (fork choice).
        """
        self._commit(block, None)

    def _commit(self, block: Block, executed: Optional[LedgerState]) -> None:
        """Run :meth:`add_block`'s checks on ``block`` and store it.

        ``executed`` is a child of the parent state that already holds
        the block's transactions, applied in order (a block this chain
        assembled, with no speculation drop); None replays them on a
        fresh child of the parent.
        """
        if block.block_hash in self._blocks:
            raise InvalidBlockError(f"block {block.block_hash[:12]} already known")
        parent = self._blocks.get(block.prev_hash)
        if parent is None:
            self.rejected_blocks += 1
            raise InvalidBlockError(
                f"block {block.block_hash[:12]}: unknown parent "
                f"{block.prev_hash[:12]}"
            )
        if block.height != parent.height + 1:
            self.rejected_blocks += 1
            raise InvalidBlockError(
                f"block {block.block_hash[:12]}: height {block.height} does not "
                f"extend parent height {parent.height}"
            )
        if block.timestamp < parent.timestamp:
            self.rejected_blocks += 1
            raise InvalidBlockError(
                f"block {block.block_hash[:12]}: timestamp {block.timestamp} "
                f"before parent {parent.timestamp}"
            )
        try:
            block.validate_structure()
        except InvalidBlockError:
            self.rejected_blocks += 1
            raise

        parent_state = self._states[block.prev_hash]
        self.consensus.validate(block, parent_state)

        new_state = executed
        if new_state is None:
            # Copy-on-write snapshot over the (frozen) parent block state:
            # appending a block is O(keys touched), not O(total accounts).
            new_state = parent_state.child()
            try:
                for stx in block.transactions:
                    new_state.apply(stx, contract_executor=self.contracts)
            except (InvalidTransactionError, ContractError) as exc:
                self.rejected_blocks += 1
                raise InvalidBlockError(
                    f"block {block.block_hash[:12]}: transaction failed ({exc})"
                ) from exc
        new_state.credit_fees(block.proposer, block.total_fees)
        new_state.freeze()

        self._blocks[block.block_hash] = block
        self._states[block.block_hash] = new_state
        self._update_head(block)
        self.mempool.prune_included(block.tx_ids)
        self._obs.event(
            "ledger.chain",
            "block.accepted",
            time=block.timestamp,
            height=block.height,
            block_hash=block.block_hash,
            n_txs=len(block.transactions),
            canonical=self._head_hash == block.block_hash,
        )

    def _update_head(self, candidate: Block) -> None:
        head = self.head
        # Longest chain wins; equal heights break ties by *lowest* hash so
        # every node converges on the same head deterministically.
        better_height = candidate.height > head.height
        same_height_lower_hash = (
            candidate.height == head.height
            and candidate.block_hash < head.block_hash
        )
        if better_height or same_height_lower_hash:
            extends_head = candidate.prev_hash == head.block_hash
            if not extends_head:
                self.reorg_count += 1
                self._obs.counter("ledger.reorgs").inc()
                self._obs.event(
                    "ledger.chain",
                    "head.reorg",
                    time=candidate.timestamp,
                    new_height=candidate.height,
                    new_head=candidate.block_hash,
                    old_head=head.block_hash,
                )
            self._head_hash = candidate.block_hash
            if extends_head:
                self._index_block(candidate)
            else:
                self._rebuild_tx_index()

    def _index_block(self, block: Block) -> None:
        """Index a canonical block's transactions from its id column."""
        block_hash = block.block_hash
        self._tx_index.update(
            (tx_id, (block_hash, position))
            for position, tx_id in enumerate(block.tx_ids)
        )

    def _rebuild_tx_index(self) -> None:
        """Re-index the canonical chain after a reorg (head moves to a
        block that does not extend the previous head)."""
        self._tx_index.clear()
        for block in self.main_chain():
            self._index_block(block)

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def verify_chain(self) -> bool:
        """Re-validate linkage and Merkle roots along the whole canonical
        chain (used by auditors and property tests)."""
        chain = self.main_chain()
        for prev, block in zip(chain, chain[1:]):
            if block.prev_hash != prev.block_hash:
                return False
            if block.compute_merkle_root() != block.merkle_root:
                return False
        return True
