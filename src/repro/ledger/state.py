"""Account state machine: balances, nonces, and stakes.

``LedgerState`` is a pure state container with an ``apply`` method that
validates and executes one signed transaction.  The blockchain replays
blocks through it and tries a block's mempool candidates on a child.

Validation rules (all raise :class:`InvalidTransactionError`):

* the signature and key proof must verify,
* the nonce must equal the sender's next expected nonce (replay guard),
* the sender must cover ``amount + fee``,
* stake operations must respect bonded balances.

Contract calls are delegated to an executor callable so the state module
does not depend on the contract VM (dependencies stay one-directional).

Block states are copy-on-write snapshots (:meth:`LedgerState.child`):
each map of a child holds only its own delta, and a read checks that
delta, then one flat dict of every delta below it, then the genesis
base.  The newest child takes the flat over from its parent, so the
head of a growing chain reads in at most three lookups and no snapshot
ever copies the keys touched since genesis; a state whose flat moved on
rebuilds one from its ancestors' deltas when it is next read.
"""

from __future__ import annotations

from collections.abc import Mapping, MutableMapping
from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.world.columnar import AddressBook, AgentTable

from repro.errors import InvalidTransactionError
from repro.ledger.transactions import SignedTransaction, Transaction, TxKind

__all__ = ["LedgerState"]

# A copy-on-write list materialises its parent prefix once this many
# overlays stack up, bounding the walk an index read takes.
_FLATTEN_DEPTH = 16

_MISSING = object()


class _CowMap(MutableMapping):
    """Mapping overlay: reads fall through to the parent snapshot,
    writes land in a local delta dict.

    Besides its own delta (``_local``) an overlay reads one *flat* dict
    holding every overlay delta below it, oldest first and newest
    winning, and then the base mapping under the oldest overlay, so a
    read is at most three lookups however deep the chain.  The flat
    moves down the chain: the newest child of a map takes its parent's
    flat and updates it in place with the parent's delta (O(that
    delta)), and the parent gives it up.  A map without a flat (a
    forked or dropped child took it, or an old block state is read)
    rebuilds one from its ancestors' deltas on its next read, starting
    from the nearest ancestor that still holds one.

    The parent is logically frozen once a child exists (the chain never
    mutates a committed block state); nothing enforces that, so do not
    hand a parent out for mutation after calling ``LedgerState.child``.
    """

    __slots__ = ("_local", "_flat", "_parent", "_base")

    def __init__(self, parent: Optional[Mapping] = None):
        self._local: Dict = {}
        if isinstance(parent, _CowMap):
            flat = parent._flat_below()
            parent._flat = None
            flat.update(parent._local)
            self._flat: Optional[Dict] = flat
            self._parent: Optional[_CowMap] = parent
            self._base = parent._base
        else:
            self._flat = {}
            self._parent = None
            self._base = parent

    def _flat_below(self) -> Dict:
        """The flat of every overlay delta below this one, rebuilt from
        the ancestors' deltas if a child took it."""
        flat = self._flat
        if flat is None:
            deltas = []
            node = self._parent
            while node is not None and node._flat is None:
                deltas.append(node._local)
                node = node._parent
            if node is None:
                flat = {}
            else:
                flat = dict(node._flat)
                flat.update(node._local)
            for local in reversed(deltas):
                flat.update(local)
            self._flat = flat
        return flat

    def _merged(self) -> Dict:
        """Materialise the full mapping (newest layer wins)."""
        base = self._base
        merged = dict(base) if base else {}
        merged.update(self._flat_below())
        merged.update(self._local)
        return merged

    def __getitem__(self, key):
        local = self._local
        if key in local:
            return local[key]
        flat = self._flat
        if flat is None:
            flat = self._flat_below()
        if key in flat:
            return flat[key]
        base = self._base
        if base is not None:
            return base[key]
        raise KeyError(key)

    def get(self, key, default=None):
        local = self._local
        if key in local:
            return local[key]
        flat = self._flat
        if flat is None:
            flat = self._flat_below()
        if key in flat:
            return flat[key]
        base = self._base
        if base is not None:
            return base.get(key, default)
        return default

    def __contains__(self, key) -> bool:
        return self.get(key, _MISSING) is not _MISSING

    def __setitem__(self, key, value) -> None:
        self._local[key] = value

    def __delitem__(self, key) -> None:
        raise TypeError("ledger state maps are append/update-only")

    def __iter__(self) -> Iterator:
        return iter(self._merged())

    def __len__(self) -> int:
        return len(self._merged())

    def __eq__(self, other) -> bool:
        if isinstance(other, _CowMap):
            return self._merged() == other._merged()
        if isinstance(other, Mapping):
            return self._merged() == dict(other)
        return NotImplemented

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"_CowMap({self._merged()!r})"


class _CowStorageMap(_CowMap):
    """Contract-storage overlay: values are *mutable* nested dicts, so a
    read that resolves to a parent layer deep-copies the value into the
    local layer first — executors may then mutate it freely without
    corrupting the parent snapshot.

    Once frozen (the chain freezes every block state it commits), a
    read returns a private deep copy and stores nothing: reading leaves
    every layer unchanged, and mutating what a read returned reaches no
    block state."""

    __slots__ = ("_frozen",)

    def __init__(self, parent: Optional[Mapping] = None):
        super().__init__(parent)
        self._frozen = False

    def __getitem__(self, key):
        local = self._local
        if key in local:
            value = local[key]
            if not self._frozen:
                return value
        else:
            flat = self._flat_below()
            if key in flat:
                value = flat[key]
            else:
                base = self._base
                if base is None:
                    raise KeyError(key)
                value = base.get(key, _MISSING)
                if value is _MISSING:
                    raise KeyError(key)
        value = _deep_copy_storage(value)
        if not self._frozen:
            local[key] = value
        return value

    def get(self, key, default=None):
        try:
            return self[key]
        except KeyError:
            return default


class _CowList:
    """Append-only list overlay: a frozen parent prefix plus local
    appends.  Supports the subset of the list protocol the ledger uses
    (append, len, iteration, indexing, equality)."""

    __slots__ = ("_parent", "_parent_len", "_local", "_depth")

    def __init__(self, parent):
        depth = parent._depth + 1 if isinstance(parent, _CowList) else 1
        if depth > _FLATTEN_DEPTH:
            parent = list(parent)
            depth = 1
        self._parent = parent
        self._parent_len = len(parent)
        self._local: list = []
        self._depth = depth

    def append(self, item) -> None:
        self._local.append(item)

    def __len__(self) -> int:
        return self._parent_len + len(self._local)

    def __iter__(self) -> Iterator:
        yield from islice(iter(self._parent), self._parent_len)
        yield from self._local

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("list index out of range")
        if index >= self._parent_len:
            return self._local[index - self._parent_len]
        return self._parent[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, (_CowList, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"_CowList({list(self)!r})"

# Executor signature: (state, signed_tx) -> result payload (or None).
ContractExecutor = Callable[["LedgerState", SignedTransaction], Optional[Dict[str, Any]]]


class LedgerState:
    """Mutable account state: balances, nonces, stakes, contract storage.

    ``contract_storage`` is a two-level dict
    ``{contract_address: {key: value}}`` that the contract VM reads and
    writes through; keeping it here means a state copy captures contract
    state too, so fork replays are exact.
    """

    def __init__(self, initial_balances: Optional[Dict[str, int]] = None):
        self.balances: Dict[str, int] = dict(initial_balances or {})
        for address, balance in self.balances.items():
            if balance < 0:
                raise ValueError(f"negative initial balance for {address[:12]}")
        self.nonces: Dict[str, int] = {}
        self.stakes: Dict[str, int] = {}
        self.contract_storage: Dict[str, Dict[str, Any]] = {}
        self.records: list = []  # applied RECORD payloads, in order

    @classmethod
    def from_columns(
        cls, table: "AgentTable", addresses: "AddressBook"
    ) -> "LedgerState":
        """Genesis state whose balances read straight from an
        :class:`~repro.world.columnar.AgentTable` balance column — no
        million-entry genesis dict is ever built.  ``addresses`` resolves
        an address key to its row (an address it never derived still
        reads its genesis balance).

        The table's columns become the frozen copy-on-write base: blocks
        apply to :meth:`child` overlays exactly as with a dict genesis,
        so the columns must not be mutated after the chain starts (same
        contract as any parent snapshot).  Nonces/stakes start empty,
        matching ``LedgerState({addr: bal, ...})`` semantics where
        absent keys read as zero.
        """
        balances = table.balances
        if balances.size and int(balances.min()) < 0:
            raise ValueError("negative initial balance in column")
        state = cls.__new__(cls)
        state.balances = table.balance_map(addresses)
        state.nonces = {}
        state.stakes = {}
        state.contract_storage = {}
        state.records = []
        return state

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def balance_of(self, address: str) -> int:
        return self.balances.get(address, 0)

    def nonce_of(self, address: str) -> int:
        """Next expected nonce for ``address``."""
        return self.nonces.get(address, 0)

    def stake_of(self, address: str) -> int:
        return self.stakes.get(address, 0)

    @property
    def total_supply(self) -> int:
        """Total tokens across balances and stakes (fees are paid to
        proposers via :meth:`credit_fees`, so supply is conserved)."""
        return sum(self.balances.values()) + sum(self.stakes.values())

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply(
        self,
        stx: SignedTransaction,
        contract_executor: Optional[ContractExecutor] = None,
    ) -> Optional[Dict[str, Any]]:
        """Validate and execute ``stx``; returns the contract result (if
        any).  State is unchanged when an exception is raised *before*
        any mutation; contract executors must enforce their own atomicity
        (the chain applies blocks to a copy, so a failed block never
        corrupts committed state)."""
        stx.require_valid()
        tx = stx.tx
        if tx.kind == TxKind.TRANSFER:
            self._apply_transfer(tx)
            return None
        expected_nonce = self.nonce_of(tx.sender)
        if tx.nonce != expected_nonce:
            raise InvalidTransactionError(
                f"bad nonce for {tx.sender[:12]}: got {tx.nonce}, "
                f"expected {expected_nonce}"
            )
        cost = tx.amount + tx.fee
        if self.balance_of(tx.sender) < cost:
            raise InvalidTransactionError(
                f"insufficient balance for {tx.sender[:12]}: "
                f"have {self.balance_of(tx.sender)}, need {cost}"
            )

        result: Optional[Dict[str, Any]] = None
        if tx.kind == TxKind.RECORD:
            self.records.append({"sender": tx.sender, **tx.payload})
        elif tx.kind == TxKind.STAKE:
            self._debit(tx.sender, tx.amount)
            self.stakes[tx.sender] = self.stake_of(tx.sender) + tx.amount
        elif tx.kind == TxKind.UNSTAKE:
            if self.stake_of(tx.sender) < tx.amount:
                raise InvalidTransactionError(
                    f"cannot unstake {tx.amount}, only "
                    f"{self.stake_of(tx.sender)} bonded"
                )
            self.stakes[tx.sender] = self.stake_of(tx.sender) - tx.amount
            self._credit(tx.sender, tx.amount)
        elif tx.kind in (TxKind.CONTRACT, TxKind.MINT):
            if contract_executor is None:
                raise InvalidTransactionError(
                    f"no contract executor available for {tx.kind.value} tx"
                )
            # Value sent to a contract moves before execution, matching
            # the usual smart-contract model.
            self._debit(tx.sender, tx.amount)
            self._credit(tx.recipient, tx.amount)
            result = contract_executor(self, stx)
        else:  # pragma: no cover - enum is exhaustive
            raise InvalidTransactionError(f"unknown tx kind {tx.kind}")

        # Fee is burned from the sender here and credited to the block
        # proposer by the chain via credit_fees().
        if tx.fee:
            self._debit(tx.sender, tx.fee)
        self.nonces[tx.sender] = expected_nonce + 1
        return result

    def _apply_transfer(self, tx: Transaction) -> None:
        """A TRANSFER's checks and effects, each value read once: the
        sender's nonce and balance, then one write per touched key.  The
        amount moves to the recipient (burned if empty) and the fee is
        burned for :meth:`credit_fees`, as the other kinds do."""
        sender, amount, fee = tx.sender, tx.amount, tx.fee
        balances, nonces = self.balances, self.nonces
        expected_nonce = nonces.get(sender, 0)
        if tx.nonce != expected_nonce:
            raise InvalidTransactionError(
                f"bad nonce for {sender[:12]}: got {tx.nonce}, "
                f"expected {expected_nonce}"
            )
        balance = balances.get(sender, 0)
        cost = amount + fee
        if balance < cost:
            raise InvalidTransactionError(
                f"insufficient balance for {sender[:12]}: "
                f"have {balance}, need {cost}"
            )
        recipient = tx.recipient
        if recipient == sender:
            balances[sender] = balance - fee
        else:
            balances[sender] = balance - cost
            if recipient:
                balances[recipient] = balances.get(recipient, 0) + amount
        nonces[sender] = expected_nonce + 1

    def credit_fees(self, proposer: str, total_fees: int) -> None:
        """Pay collected block fees to the proposer."""
        if total_fees < 0:
            raise ValueError("total_fees must be >= 0")
        if total_fees:
            self._credit(proposer, total_fees)

    def _debit(self, address: str, amount: int) -> None:
        balance = self.balance_of(address)
        if balance < amount:
            raise InvalidTransactionError(
                f"debit of {amount} exceeds balance {balance} of {address[:12]}"
            )
        self.balances[address] = balance - amount

    def _credit(self, address: str, amount: int) -> None:
        if not address:
            return  # burns (empty recipient) are allowed
        self.balances[address] = self.balance_of(address) + amount

    # ------------------------------------------------------------------
    # Copies
    # ------------------------------------------------------------------
    def copy(self) -> "LedgerState":
        """Deep-enough *eager* copy (contract storage values are assumed
        canonical-encodable, i.e. tree-shaped).  Fully independent of
        this state in both directions; cost is O(state size).  Prefer
        :meth:`child` on hot paths where this state is a frozen
        snapshot."""
        clone = LedgerState()
        clone.balances = dict(self.balances)
        clone.nonces = dict(self.nonces)
        clone.stakes = dict(self.stakes)
        clone.contract_storage = {
            addr: _deep_copy_storage(storage)
            for addr, storage in self.contract_storage.items()
        }
        clone.records = list(self.records)
        return clone

    def child(self) -> "LedgerState":
        """Copy-on-write snapshot layered over this state.

        The child reads through to this state and writes only deltas —
        the chain uses this so appending a block costs O(touched keys)
        instead of O(total accounts).  The child takes over this state's
        flat read view and folds this state's own delta into it, so the
        cost is O(keys this state wrote).  Contract: once a child exists,
        this state is a frozen snapshot and must not be mutated (the
        chain guarantees that — committed block states are never written
        again); mutate the child only.
        """
        clone = LedgerState.__new__(LedgerState)
        clone.balances = _CowMap(self.balances)
        clone.nonces = _CowMap(self.nonces)
        clone.stakes = _CowMap(self.stakes)
        clone.contract_storage = _CowStorageMap(self.contract_storage)
        clone.records = _CowList(self.records)
        return clone

    def freeze(self) -> None:
        """Mark a :meth:`child` state committed: contract-storage reads
        through it return private copies and write nothing into it."""
        self.contract_storage._frozen = True


def _deep_copy_storage(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: _deep_copy_storage(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_deep_copy_storage(v) for v in value]
    return value
