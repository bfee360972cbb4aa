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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Optional, Tuple

from repro.errors import InvalidTransactionError
from repro.ledger.crypto import LamportSignature, lamport_verify, sha256
from repro.ledger.encoding import (
    _encode_int,
    _encode_items,
    _encode_str,
    canonical_encode,
)
from repro.ledger.merkle import MerkleProof

__all__ = ["TxKind", "Transaction", "SignedTransaction"]


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


@dataclass(frozen=True)
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
    """

    sender: str
    recipient: str
    amount: int
    fee: int
    nonce: int
    kind: TxKind
    payload: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.amount < 0:
            raise InvalidTransactionError(f"amount must be >= 0, got {self.amount}")
        if self.fee < 0:
            raise InvalidTransactionError(f"fee must be >= 0, got {self.fee}")
        if self.nonce < 0:
            raise InvalidTransactionError(f"nonce must be >= 0, got {self.nonce}")
        if not self.sender:
            raise InvalidTransactionError("sender must be non-empty")

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

    # Cached: a transaction is immutable once constructed (the payload
    # dict is treated as frozen by convention), yet its id is re-derived
    # at mempool admission, block building, pruning, and auditing.
    @cached_property
    def tx_id(self) -> str:
        """Hex transaction hash over the canonical encoding."""
        return sha256(self.signing_bytes).hex()

    @cached_property
    def signing_bytes(self) -> bytes:
        """The exact bytes a wallet signs: ``canonical_encode(self.to_dict())``.

        Written straight from the fixed seven-key layout when every field
        has its plain type; anything else (a ``bool`` or numpy amount, a
        ``str`` subclass) takes the generic encoder, which encodes or
        raises for it exactly as it always has.
        """
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
        return _encode_items(
            7,
            b"".join(
                (
                    _AMOUNT_KEY,
                    _encode_int(amount),
                    _FEE_KEY,
                    _encode_int(fee),
                    _KIND_FRAMES[kind],
                    _encode_int(nonce),
                    _PAYLOAD_KEY,
                    _EMPTY_PAYLOAD
                    if type(payload) is dict and not payload
                    else canonical_encode(payload),
                    _RECIPIENT_KEY,
                    _encode_str(recipient),
                    _SENDER_KEY,
                    _encode_str(sender),
                )
            ),
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
