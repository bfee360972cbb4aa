"""Blocks: headers committing to ordered transaction lists.

A block header carries ``(height, prev_hash, merkle_root, timestamp,
proposer)``; the body is the ordered list of signed transactions.  The
Merkle root commits to transaction ids, so light audit clients can check
inclusion with a :class:`~repro.ledger.merkle.MerkleProof` and the header
alone (used by ``repro.ledger.audit``).

The body is stored as columns (:class:`TxColumns`): one list per field,
so a committed block of pinned transfers holds no per-transfer object.
The Merkle root, ``tx_ids``, ``total_fees`` and the chain's transaction
index read the columns; ``Block.transactions`` builds rows on read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.errors import InvalidBlockError
from repro.ledger.crypto import sha256
from repro.ledger.encoding import canonical_encode
from repro.ledger.merkle import MerkleProof, MerkleTree
from repro.ledger.transactions import SignedTransaction, Transaction

__all__ = ["Block", "TxColumns", "build_block"]


class TxColumns(Sequence[SignedTransaction]):
    """A block body, one column per transaction field.

    Every row's id, sender, recipient, amount, fee, nonce and kind are
    stored in lists; payloads other than the empty dict are kept aside by
    position.  A pinned :class:`Transaction` is stored as those values
    only.  Any other row (a :class:`SignedTransaction`, or a plain
    transaction that validation must refuse) is also kept as its own
    object, so a cached signature check survives.  Reading by index
    (negative too), slice or iteration returns the kept objects and
    builds equal pinned rows for the rest; a body equals another body,
    or a list or tuple, holding equal rows in the same order.  The
    columns are shared, not copied: do not mutate them.
    """

    __slots__ = (
        "ids", "senders", "recipients", "amounts", "fees", "nonces",
        "kinds", "_payloads", "_objects",
    )

    def __init__(self, rows: Iterable[SignedTransaction] = ()) -> None:
        rows = list(rows)
        txs = [row.tx for row in rows]
        self.ids: List[str] = [tx.tx_id for tx in txs]
        self.senders: List[str] = [tx.sender for tx in txs]
        self.recipients: List[str] = [tx.recipient for tx in txs]
        self.amounts: List[int] = [tx.amount for tx in txs]
        self.fees: List[int] = [tx.fee for tx in txs]
        self.nonces: List[int] = [tx.nonce for tx in txs]
        self.kinds = [tx.kind for tx in txs]
        self._objects: Dict[int, SignedTransaction] = {
            i: row
            for i, row in enumerate(rows)
            if type(row) is not Transaction or not row.verify()
        }
        self._payloads: Dict[int, Any] = {
            i: tx.payload
            for i, tx in enumerate(txs)
            if i not in self._objects
            and not (type(tx.payload) is dict and not tx.payload)
        }

    def __len__(self) -> int:
        return len(self.ids)

    def _row(self, i: int) -> SignedTransaction:
        row = self._objects.get(i)
        if row is not None:
            return row
        payloads = self._payloads
        return Transaction.pinned_row(
            self.senders[i],
            self.recipients[i],
            self.amounts[i],
            self.fees[i],
            self.nonces[i],
            self.kinds[i],
            payloads[i] if i in payloads else {},
            self.ids[i],
        )

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[SignedTransaction, List[SignedTransaction]]:
        n = len(self.ids)
        if isinstance(index, slice):
            return [self._row(i) for i in range(*index.indices(n))]
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("block body index out of range")
        return self._row(index)

    def __iter__(self) -> Iterator[SignedTransaction]:
        return map(self._row, range(len(self.ids)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (TxColumns, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"TxColumns({list(self)!r})"

    def first_invalid(self) -> Optional[SignedTransaction]:
        """The first row whose signature check fails, or None.  Only the
        kept objects are checked: every other row is pinned."""
        for row in self._objects.values():
            if not row.verify():
                return row
        return None


@dataclass(frozen=True)
class Block:
    """An immutable block.

    The genesis block has ``height == 0``, ``prev_hash == "00" * 32``,
    an empty body, and proposer ``"genesis"``.
    """

    height: int
    prev_hash: str
    merkle_root: str
    timestamp: float
    proposer: str
    # Any sequence of signed transactions; stored as :class:`TxColumns`.
    transactions: TxColumns = ()  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.height < 0:
            raise InvalidBlockError(f"height must be >= 0, got {self.height}")
        if type(self.transactions) is not TxColumns:
            object.__setattr__(
                self, "transactions", TxColumns(self.transactions)
            )

    def header_dict(self) -> Dict[str, Any]:
        return {
            "height": self.height,
            "prev_hash": self.prev_hash,
            "merkle_root": self.merkle_root,
            "timestamp": self.timestamp,
            "proposer": self.proposer,
        }

    # Blocks are frozen, so derived hashes are computed once and cached:
    # fork choice, chain queries, and error paths all re-read block_hash.
    @cached_property
    def block_hash(self) -> str:
        """Hex hash over the canonical header encoding."""
        return sha256(canonical_encode(self.header_dict())).hex()

    @property
    def tx_ids(self) -> List[str]:
        """Body transaction ids, in order: the id column (do not mutate)."""
        return self.transactions.ids

    @cached_property
    def total_fees(self) -> int:
        return sum(self.transactions.fees)

    @cached_property
    def _merkle_tree(self) -> MerkleTree:
        return MerkleTree([bytes.fromhex(tx_id) for tx_id in self.tx_ids])

    def compute_merkle_root(self) -> str:
        """The Merkle root over the body's transaction ids (cached —
        the body is immutable, so one tree build serves validation and
        every later inclusion proof)."""
        return self._merkle_tree.root.hex()

    def validate_structure(self) -> None:
        """Structural checks independent of chain context.

        Raises
        ------
        InvalidBlockError
            If the Merkle root does not match the body, a transaction id
            is duplicated, or any signature fails.
        """
        if self.compute_merkle_root() != self.merkle_root:
            raise InvalidBlockError(
                f"block {self.block_hash[:12]}: merkle root mismatch"
            )
        ids = self.tx_ids
        if len(set(ids)) != len(ids):
            raise InvalidBlockError(
                f"block {self.block_hash[:12]}: duplicate transaction in body"
            )
        forged = self.transactions.first_invalid()
        if forged is not None:
            raise InvalidBlockError(
                f"block {self.block_hash[:12]}: invalid signature on "
                f"tx {forged.tx_id[:12]}"
            )

    def inclusion_proof(self, tx_id: str) -> MerkleProof:
        """Merkle proof that ``tx_id`` is in this block.

        Raises
        ------
        InvalidBlockError
            If the transaction is not in the body.
        """
        ids = self.tx_ids
        try:
            index = ids.index(tx_id)
        except ValueError:
            raise InvalidBlockError(
                f"tx {tx_id[:12]} not in block {self.block_hash[:12]}"
            ) from None
        return self._merkle_tree.proof(index)


def build_block(
    height: int,
    prev_hash: str,
    timestamp: float,
    proposer: str,
    transactions: Sequence[SignedTransaction],
) -> Block:
    """Assemble a block, computing the Merkle root from the body's id
    column."""
    body = TxColumns(transactions)
    tree = MerkleTree([bytes.fromhex(tx_id) for tx_id in body.ids])
    block = Block(
        height=height,
        prev_hash=prev_hash,
        merkle_root=tree.root.hex(),
        timestamp=float(timestamp),
        proposer=proposer,
        transactions=body,
    )
    # Seed the cache so validation does not rebuild the tree just built.
    block.__dict__["_merkle_tree"] = tree
    return block
