"""Transactions: the unit of state change on the ledger.

A transaction is an immutable, canonically-hashable record.  Besides
plain value transfers, the kind taxonomy covers everything the paper
asks the chain to carry:

* ``TRANSFER`` — token movement between accounts,
* ``RECORD`` — a registered data-collection/processing activity (§II-D),
* ``CONTRACT`` — a smart-contract call (DAO votes, escrow, registries),
* ``MINT`` — NFT creation (§IV-A),
* ``STAKE`` / ``UNSTAKE`` — proof-of-stake bonding.

Signatures are detached: :class:`SignedTransaction` binds a
:class:`Transaction` to the Lamport signature and the Merkle
authentication path that proves the one-time key belongs to the sender's
address (see ``repro.ledger.wallet``).

A *pinned* transaction (:meth:`Transaction.pinned`) carries its
authorisation as a flag instead: it is its own signed-transaction
surface (``tx``, ``tx_id``, ``verify()``, ``require_valid()``) with
``verify()`` true.  Population-scale workloads use it where real
Lamport key material would cost seconds per agent; a plain
``Transaction`` has the same surface with ``verify()`` false, so the
mempool, the state machine and block validation refuse it.  Each
transfer of such a workload is then one slotted record from admission
to commit.  :func:`transfer_id` hashes a transfer straight from its
field values, in the same fixed byte layout ``Transaction`` signs, so a
generator can compute ids without building records.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.errors import InvalidTransactionError
from repro.ledger.crypto import LamportSignature, lamport_verify, sha256
from repro.ledger.encoding import canonical_encode
from repro.ledger.merkle import MerkleProof

__all__ = ["TxKind", "Transaction", "SignedTransaction", "transfer_id"]


class TxKind(str, enum.Enum):
    """Taxonomy of ledger operations."""

    TRANSFER = "transfer"
    RECORD = "record"
    CONTRACT = "contract"
    MINT = "mint"
    STAKE = "stake"
    UNSTAKE = "unstake"


# ``Transaction.to_dict``'s keys, pre-encoded in ``canonical_encode``'s
# sorted order (amount, fee, kind, nonce, payload, recipient, sender);
# each kind's key, value and the following key make one constant.
_AMOUNT_KEY = canonical_encode("amount")
_FEE_KEY = canonical_encode("fee")
_KIND_FRAMES = {
    kind: canonical_encode("kind")
    + canonical_encode(kind.value)
    + canonical_encode("nonce")
    for kind in TxKind
}
_PAYLOAD_KEY = canonical_encode("payload")
_EMPTY_PAYLOAD = canonical_encode({})
_RECIPIENT_KEY = canonical_encode("recipient")
_SENDER_KEY = canonical_encode("sender")
_TRANSFER_FRAME = _KIND_FRAMES[TxKind.TRANSFER]
# ``canonical_encode``'s eight-byte length prefixes, tabled for the
# short atoms of a transaction.
_LENGTHS = [n.to_bytes(8, "big") for n in range(256)]
_SEVEN_ITEMS = (7).to_bytes(8, "big")


def _length(n: int) -> bytes:
    return _LENGTHS[n] if n < 256 else n.to_bytes(8, "big")


def _encode_layout(
    sender: str,
    recipient: str,
    amount: int,
    fee: int,
    nonce: int,
    kind_frame: bytes,
    payload: bytes,
) -> bytes:
    """``canonical_encode`` of a transaction's seven-key dict, written
    from its field values: ``int`` amount, fee and nonce, ``str`` sender
    and recipient, a ``_KIND_FRAMES`` entry and the encoded payload."""
    amount_b = b"%d" % amount
    fee_b = b"%d" % fee
    nonce_b = b"%d" % nonce
    recipient_b = recipient.encode("utf-8")
    sender_b = sender.encode("utf-8")
    body = b"".join(
        (
            _SEVEN_ITEMS,
            _AMOUNT_KEY, b"I", _length(len(amount_b)), amount_b,
            _FEE_KEY, b"I", _length(len(fee_b)), fee_b,
            kind_frame, b"I", _length(len(nonce_b)), nonce_b,
            _PAYLOAD_KEY, payload,
            _RECIPIENT_KEY, b"S", _length(len(recipient_b)), recipient_b,
            _SENDER_KEY, b"S", _length(len(sender_b)), sender_b,
        )
    )
    return b"D" + _length(len(body)) + body


def transfer_id(
    sender: str, recipient: str, amount: int, fee: int, nonce: int
) -> str:
    """The ``tx_id`` of a payload-free TRANSFER with these fields (plain
    ``int`` and ``str`` values), computed without building the record."""
    return sha256(
        _encode_layout(
            sender, recipient, amount, fee, nonce, _TRANSFER_FRAME,
            _EMPTY_PAYLOAD,
        )
    ).hex()


# Slotted where dataclasses can slot (Python 3.10+); older interpreters
# keep a per-instance ``__dict__`` with the same fields.
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(frozen=True, **_SLOTS)
class Transaction:
    """An unsigned transaction.

    Attributes
    ----------
    sender:
        Hex address of the signing account.
    recipient:
        Hex address of the receiving account or contract ("" for pure
        record transactions).
    amount:
        Value moved, in base units (non-negative integer).
    fee:
        Fee paid to the block proposer (non-negative integer).
    nonce:
        Per-sender sequence number; the state machine requires nonces to
        be consumed in order, which blocks replay.
    kind:
        One of :class:`TxKind`.
    payload:
        Kind-specific canonical-encodable data (e.g. contract method and
        arguments, or the data-collection record being registered).

    Every transaction has the signed-transaction surface (``tx`` is the
    transaction itself); ``verify()`` is true only for one built by
    :meth:`pinned` or :meth:`pinned_row`.
    """

    sender: str
    recipient: str
    amount: int
    fee: int
    nonce: int
    kind: TxKind
    payload: Dict[str, Any] = field(default_factory=dict)
    # Caches behind ``tx_id`` and ``signing_bytes``: a transaction is
    # immutable once constructed (the payload dict is treated as frozen
    # by convention), yet its id is re-derived at mempool admission,
    # block building, pruning, and auditing.  Slots, not a per-instance
    # ``__dict__``; equality, ``repr`` and ``__init__`` ignore them.
    _tx_id: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )
    _signing_bytes: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False
    )
    # Set only by the pinned constructors; like the caches, ignored by
    # equality, ``repr`` and ``__init__`` (``dataclasses.replace`` gives
    # a plain copy).
    _pinned: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.amount < 0:
            raise InvalidTransactionError(f"amount must be >= 0, got {self.amount}")
        if self.fee < 0:
            raise InvalidTransactionError(f"fee must be >= 0, got {self.fee}")
        if self.nonce < 0:
            raise InvalidTransactionError(f"nonce must be >= 0, got {self.nonce}")
        if not self.sender:
            raise InvalidTransactionError("sender must be non-empty")

    @classmethod
    def pinned(
        cls,
        sender: str,
        recipient: str,
        amount: int,
        fee: int,
        nonce: int,
        kind: TxKind = TxKind.TRANSFER,
        payload: Optional[Dict[str, Any]] = None,
    ) -> "Transaction":
        """A checked transaction whose authorisation is pinned true.

        Stands in for a signed transaction where real key material would
        dominate the cost (population-scale workloads and benchmarks);
        never for consensus tests, which must exercise real signatures.
        """
        tx = cls(
            sender, recipient, amount, fee, nonce, kind,
            {} if payload is None else payload,
        )
        object.__setattr__(tx, "_pinned", True)
        return tx

    @classmethod
    def pinned_row(
        cls,
        sender: str,
        recipient: str,
        amount: int,
        fee: int,
        nonce: int,
        kind: TxKind,
        payload: Dict[str, Any],
        tx_id: str,
    ) -> "Transaction":
        """A pinned transaction rebuilt from column values and its known
        id, without ``__init__``'s checks or any hashing: the caller
        vouches that the values passed those checks and that ``tx_id``
        is their hash (a row read back from a block body, or a transfer
        whose id its generator computed with :func:`transfer_id`)."""
        tx = object.__new__(cls)
        set_ = object.__setattr__
        set_(tx, "sender", sender)
        set_(tx, "recipient", recipient)
        set_(tx, "amount", amount)
        set_(tx, "fee", fee)
        set_(tx, "nonce", nonce)
        set_(tx, "kind", kind)
        set_(tx, "payload", payload)
        set_(tx, "_tx_id", tx_id)
        set_(tx, "_signing_bytes", None)
        set_(tx, "_pinned", True)
        return tx

    @property
    def tx(self) -> "Transaction":
        """The transaction itself (the signed-transaction surface)."""
        return self

    def verify(self) -> bool:
        """True only for a pinned transaction; a plain one is unsigned."""
        return self._pinned

    def require_valid(self) -> None:
        """Raise :class:`InvalidTransactionError` unless :meth:`verify`."""
        if not self._pinned:
            raise InvalidTransactionError(
                f"signature verification failed for tx {self.tx_id[:12]}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Canonical dict form (used for hashing and serialisation)."""
        return {
            "sender": self.sender,
            "recipient": self.recipient,
            "amount": self.amount,
            "fee": self.fee,
            "nonce": self.nonce,
            "kind": self.kind.value,
            "payload": self.payload,
        }

    @property
    def tx_id(self) -> str:
        """Hex transaction hash over the canonical encoding."""
        tx_id = self._tx_id
        if tx_id is None:
            tx_id = sha256(self.signing_bytes).hex()
            object.__setattr__(self, "_tx_id", tx_id)
        return tx_id

    @property
    def signing_bytes(self) -> bytes:
        """The exact bytes a wallet signs: ``canonical_encode(self.to_dict())``."""
        encoded = self._signing_bytes
        if encoded is None:
            encoded = self._encode()
            object.__setattr__(self, "_signing_bytes", encoded)
        return encoded

    def _encode(self) -> bytes:
        """Written by :func:`_encode_layout` when every field has its
        plain type; anything else (a ``bool`` or numpy amount, a ``str``
        subclass) takes the generic encoder, which encodes or raises for
        it exactly as it always has."""
        amount, fee, nonce = self.amount, self.fee, self.nonce
        sender, recipient, kind = self.sender, self.recipient, self.kind
        if not (
            type(amount) is int
            and type(fee) is int
            and type(nonce) is int
            and type(sender) is str
            and type(recipient) is str
            and type(kind) is TxKind
        ):
            return canonical_encode(self.to_dict())
        payload = self.payload
        return _encode_layout(
            sender,
            recipient,
            amount,
            fee,
            nonce,
            _KIND_FRAMES[kind],
            _EMPTY_PAYLOAD
            if type(payload) is dict and not payload
            else canonical_encode(payload),
        )


@dataclass(frozen=True)
class SignedTransaction:
    """A transaction plus the proof that the sender authorised it.

    ``key_proof`` is the Merkle inclusion proof tying the one-time public
    key (``signature.public_digest``) to the sender address, which is the
    root of the sender wallet's key tree.
    """

    tx: Transaction
    signature: LamportSignature
    key_proof: MerkleProof

    @property
    def tx_id(self) -> str:
        return self.tx.tx_id

    def verify(self) -> bool:
        """Full authorisation check (result cached per instance).

        1. The Lamport signature must verify over the signing bytes.
        2. The one-time public key must be proven (via ``key_proof``) to
           be a leaf of the Merkle tree whose root is the sender address.

        A transaction travels through mempool admission, speculative
        execution, block application, and structural validation; the
        inputs are immutable, so one Lamport verification suffices.
        """
        cached = self.__dict__.get("_verify_ok")
        if cached is None:
            cached = self._verify_uncached()
            # Frozen dataclass: write through __dict__, not __setattr__.
            self.__dict__["_verify_ok"] = cached
        return cached

    def _verify_uncached(self) -> bool:
        if not lamport_verify(self.signature, self.tx.signing_bytes):
            return False
        try:
            sender_root = bytes.fromhex(self.tx.sender)
        except ValueError:
            return False
        return self.key_proof.verify(self.signature.public_digest, sender_root)

    def require_valid(self) -> None:
        """Raise :class:`InvalidTransactionError` unless :meth:`verify`."""
        if not self.verify():
            raise InvalidTransactionError(
                f"signature verification failed for tx {self.tx_id[:12]}"
            )
