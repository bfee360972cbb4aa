"""Columnar agent-state core: struct-of-arrays society for 1M+ agents.

Per-agent Python objects and ``Dict[str, int]`` state put a practical
ceiling around 100k agents: every balance is a boxed int, every address
a repeated 64-char string key, and shipping a shard means pickling a
dict per agent.  :class:`AgentTable` stores the *hot* per-agent state as
typed numpy columns instead:

======================  ==========  =======================================
column                  dtype       backs
======================  ==========  =======================================
``balances``            int64       ledger genesis balances
``nonces``              int32       the load-workload nonce tracker
``reputation``          float64     cached per-agent trust readout
``privacy_spent``       float64     :class:`repro.privacy.PrivacyBudget`
``privacy_cap``         float64     per-subject budget caps
``consent``             uint8       consent bitmap (bit per channel)
======================  ==========  =======================================

That is :data:`BYTES_PER_AGENT_COLUMNS` = 37 bytes of column data per
agent.  An agent's identity is its dense row index; its 64-hex address
is the pseudonym the ledger, the DAO electorate, consent and moderation
read, and only the agents that reach those layers ever need one.

Three pieces:

* :class:`AddressBook` — index ↔ address for one run, each address
  derived on first use, so a run holds the addresses it touched and no
  population-sized string table.
* :class:`AgentTable` — the columns that hold the load workload's
  society, plus :meth:`AgentTable.charge_spent`, the sequential-exact
  bulk privacy charge behind ``PrivacyBudget.charge_many``.
* :class:`ColumnMap` — a :class:`~collections.abc.MutableMapping` view
  presenting one column under the existing ``Dict[str, number]``
  contract (address keys, resolved through an :class:`AddressBook`), so
  ``LedgerState`` and ``PrivacyBudget`` keep working unchanged on top
  of columns.  Keys that are not agents — e.g. the block validator
  collecting fees — spill into a small overflow dict.

Determinism: every value stored in a column round-trips exactly
(int64 / IEEE float64 are the same numbers Python uses), so a workload
run column-backed is byte-identical — metrics and traces — to the same
run on dicts.  ``tests/property/test_columnar_props.py`` pins this.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

__all__ = [
    "AddressBook",
    "AgentTable",
    "ColumnMap",
    "BYTES_PER_AGENT_COLUMNS",
]

#: Raw column bytes per agent: 8 (balance) + 4 (nonce) + 8 (reputation)
#: + 8 (spent) + 8 (cap) + 1 (consent).
BYTES_PER_AGENT_COLUMNS = 37


class AddressBook:
    """Dense agent index ↔ address for ``n_agents`` agents, each address
    derived on first use.

    :meth:`address_of` derives an agent's address once (``derive(i)``)
    and remembers both directions, so a run pays for the addresses it
    touches, not for the population.  :meth:`get` resolves an address
    to its index.  An address the book has not derived is a *miss*: the
    first miss derives every remaining address, so any agent's address
    still resolves to its row and no lookup can silently read the wrong
    value.  ``misses`` counts those lookups; a run whose reads all name
    addresses it derived keeps it at 0.  Keys listed in ``non_agents``
    (e.g. a block validator) are known not to be agents and never miss.
    """

    __slots__ = (
        "_n", "_derive", "_addresses", "_index", "_non_agents", "_complete",
        "misses",
    )

    def __init__(
        self,
        n_agents: int,
        derive: Callable[[int], str],
        non_agents: Iterable[str] = (),
    ):
        self._n = n_agents
        self._derive = derive
        self._addresses: Dict[int, str] = {}
        self._index: Dict[str, int] = {}
        self._non_agents = frozenset(non_agents)
        self._complete = False
        self.misses = 0

    def __len__(self) -> int:
        return self._n

    def address_of(self, index: int) -> str:
        """Agent ``index``'s address, derived on first use."""
        address = self._addresses.get(index)
        if address is None:
            if not 0 <= index < self._n:
                raise IndexError(f"agent index {index} out of range")
            address = self._derive(index)
            if self._index.setdefault(address, index) != index:
                raise ValueError(f"duplicate address {address!r}")
            self._addresses[index] = address
        return address

    def addresses(self) -> List[str]:
        """Every agent's address in index order (derives the rest)."""
        self._derive_all()
        return [self._addresses[i] for i in range(self._n)]

    def get(self, address: str) -> int:
        """Index of ``address``, or -1 if it is no agent's."""
        index = self._index.get(address)
        if index is not None:
            return index
        if address in self._non_agents:
            return -1
        self.misses += 1
        self._derive_all()
        return self._index.get(address, -1)

    def bulk_indices(self, addresses: Sequence[str]) -> Optional[np.ndarray]:
        """Batch address→index lookup over derived addresses; ``None`` if
        any address is not one of them (callers fall back to their
        per-key path, which resolves it through :meth:`get`).

        ``operator.itemgetter`` resolves the whole batch in C, roughly
        twice as fast as a Python-level generator over ``dict.get`` —
        this sits on the vectorized budget-charge hot path.
        """
        n = len(addresses)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        try:
            got = itemgetter(*addresses)(self._index)
        except KeyError:
            return None
        if n == 1:
            return np.array([got], dtype=np.int64)
        return np.array(got, dtype=np.int64)

    def _derive_all(self) -> None:
        if not self._complete:
            for i in range(self._n):
                self.address_of(i)
            self._complete = True


class ColumnMap(MutableMapping):
    """``Dict[str, number]`` view over one :class:`AgentTable` column.

    Keys are addresses, resolved to rows through an
    :class:`AddressBook`.  Reads and writes on agents' addresses go
    straight to the column; other keys (rare — e.g. the fee-collecting
    validator) spill into an overflow dict.  Values are returned as
    plain Python ``int`` / ``float`` so callers (JSON metrics included)
    never see numpy scalars.  Iterating the view lists every agent's
    address, so it derives them all.
    """

    __slots__ = ("_book", "_column", "_cast", "_overflow")

    def __init__(self, book: AddressBook, column: np.ndarray, cast=None):
        self._book = book
        self._column = column
        self._cast = cast if cast is not None else (
            float if column.dtype.kind == "f" else int
        )
        self._overflow: Dict[str, object] = {}

    def __getitem__(self, key: str):
        i = self._book.get(key)
        if i >= 0:
            return self._cast(self._column[i])
        return self._overflow[key]

    def __setitem__(self, key: str, value) -> None:
        i = self._book.get(key)
        if i >= 0:
            self._column[i] = value
        else:
            self._overflow[key] = self._cast(value)

    def __delitem__(self, key: str) -> None:
        raise TypeError("ColumnMap entries cannot be deleted")

    def __contains__(self, key: object) -> bool:
        return self._book.get(key) >= 0 or key in self._overflow

    def __iter__(self) -> Iterator[str]:
        yield from self._book.addresses()
        yield from self._overflow

    def __len__(self) -> int:
        return len(self._book) + len(self._overflow)

    def items(self):
        cast = self._cast
        column = self._column
        for i, address in enumerate(self._book.addresses()):
            yield address, cast(column[i])
        yield from self._overflow.items()

    def values(self):
        for _, value in self.items():
            yield value

    def get(self, key: str, default=None):
        i = self._book.get(key)
        if i >= 0:
            return self._cast(self._column[i])
        return self._overflow.get(key, default)

    def copy(self) -> Dict[str, object]:
        return dict(self.items())


class AgentTable:
    """Struct-of-arrays hot state for a synthetic society of ``n_agents``.

    Columns only: row ``i`` is agent ``i``.  The table owns the columns;
    views handed to the ledger / privacy substrates alias them (no
    copies) and take the run's :class:`AddressBook` to resolve address
    keys.  Columns used as a copy-on-write *base* (ledger genesis
    balances) must not be mutated after handing them out — the bulk
    kernel below writes the spent column only.
    """

    __slots__ = (
        "balances",
        "nonces",
        "reputation",
        "privacy_spent",
        "privacy_cap",
        "consent",
    )

    def __init__(
        self,
        n_agents: int,
        *,
        initial_balance: int = 0,
        privacy_cap: float = 0.0,
    ):
        self.balances = np.full(n_agents, int(initial_balance), dtype=np.int64)
        self.nonces = np.zeros(n_agents, dtype=np.int32)
        self.reputation = np.zeros(n_agents, dtype=np.float64)
        self.privacy_spent = np.zeros(n_agents, dtype=np.float64)
        self.privacy_cap = np.full(n_agents, float(privacy_cap), dtype=np.float64)
        self.consent = np.zeros(n_agents, dtype=np.uint8)

    # ------------------------------------------------------------------
    # Shape / memory accounting
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.balances)

    @property
    def nbytes(self) -> int:
        """Total column bytes."""
        return (
            self.balances.nbytes
            + self.nonces.nbytes
            + self.reputation.nbytes
            + self.privacy_spent.nbytes
            + self.privacy_cap.nbytes
            + self.consent.nbytes
        )

    @property
    def bytes_per_agent(self) -> float:
        n = len(self)
        return self.nbytes / n if n else 0.0

    # ------------------------------------------------------------------
    # Dict-compatible views
    # ------------------------------------------------------------------
    def balance_map(self, book: AddressBook) -> ColumnMap:
        return ColumnMap(book, self.balances, int)

    def nonce_map(self, book: AddressBook) -> ColumnMap:
        return ColumnMap(book, self.nonces, int)

    def spent_map(self, book: AddressBook) -> ColumnMap:
        return ColumnMap(book, self.privacy_spent, float)

    def cap_map(self, book: AddressBook) -> ColumnMap:
        return ColumnMap(book, self.privacy_cap, float)

    # ------------------------------------------------------------------
    # Consent bitmap
    # ------------------------------------------------------------------
    def grant_consent(self, index: int, channel_bit: int) -> None:
        self.consent[index] |= np.uint8(1 << channel_bit)

    def has_consent(self, index: int, channel_bit: int) -> bool:
        return bool(self.consent[index] & (1 << channel_bit))

    # ------------------------------------------------------------------
    # Bulk privacy kernel (``PrivacyBudget.charge_many``'s column fast
    # path for batches of subjects given as rows)
    # ------------------------------------------------------------------
    def charge_spent(
        self,
        subjects: np.ndarray,
        epsilons: np.ndarray,
        tolerance: float = 1e-12,
    ) -> np.ndarray:
        """Charge ε per entry into the spent column, sequential-exact.

        Returns a boolean accept mask with *identical* accept/refuse
        decisions (and identical float accumulation) to charging the
        entries one at a time in order: each refusal skips that entry
        only, later entries for the same subject still get their turn,
        and every accepted charge performs one IEEE ``spent + ε``
        rounded add in the entry's sequential position.

        Vectorization reorders work only *across* subjects (which are
        independent): round ``r`` processes every subject's ``r``-th
        entry at once.  Within a round each subject appears at most
        once, so the fancy-indexed ``+=`` is race-free.
        """
        subjects = np.asarray(subjects, dtype=np.int64)
        epsilons = np.asarray(epsilons, dtype=np.float64)
        m = subjects.size
        accepted = np.zeros(m, dtype=bool)
        if m == 0:
            return accepted
        order = np.argsort(subjects, kind="stable")
        s_sorted = subjects[order]
        boundary = np.empty(m, dtype=bool)
        boundary[0] = True
        np.not_equal(s_sorted[1:], s_sorted[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        spent = self.privacy_spent
        caps = self.privacy_cap
        if starts.size == m:
            # Every subject distinct: the batch is a single round.
            rounds = [order]
        else:
            group_ids = np.cumsum(boundary) - 1
            rank = np.arange(m, dtype=np.int64) - starts[group_ids]
            # Regroup by round once so each round is a contiguous slice
            # instead of a full boolean scan per round.
            by_rank = np.argsort(rank, kind="stable")
            rank_sorted = rank[by_rank]
            round_boundary = np.empty(m, dtype=bool)
            round_boundary[0] = True
            np.not_equal(
                rank_sorted[1:], rank_sorted[:-1], out=round_boundary[1:]
            )
            round_starts = np.append(np.flatnonzero(round_boundary), m)
            entries_by_round = order[by_rank]
            rounds = [
                entries_by_round[round_starts[k]: round_starts[k + 1]]
                for k in range(round_starts.size - 1)
            ]
        for entry in rounds:
            subj = subjects[entry]
            eps = epsilons[entry]
            room = caps[subj] - spent[subj]
            np.maximum(room, 0.0, out=room)
            fits = eps <= room + tolerance
            hit = entry[fits]
            if hit.size:
                accepted[hit] = True
                spent[subj[fits]] += eps[fits]
        return accepted
