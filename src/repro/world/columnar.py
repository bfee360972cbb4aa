"""Columnar agent-state core: struct-of-arrays society for 1M+ agents.

Per-agent Python objects and ``Dict[str, int]`` state put a practical
ceiling around 100k agents: every balance is a boxed int, every address
a repeated 64-char string key, and shipping a shard means pickling a
dict per agent.  :class:`AgentTable` stores the per-agent state every
agent has as typed numpy columns instead:

======================  ==========  =======================================
column                  dtype       backs
======================  ==========  =======================================
``balances``            int64       ledger genesis balances
``nonces``              int32       the load-workload nonce tracker
======================  ==========  =======================================

That is :data:`BYTES_PER_AGENT_COLUMNS` = 12 bytes of column data per
agent.  Trust lives in :class:`repro.reputation.EigenTrust`, consent in
:class:`repro.privacy.ConsentRegistry` and privacy spends in a plain
:class:`repro.privacy.PrivacyBudget` keyed by the few agents that ever
stream frames, not here.  An agent's identity is its dense row index;
its 64-hex address is the pseudonym the ledger, the DAO electorate and
moderation read, and only the agents that reach those layers ever need
one.

Three pieces:

* :class:`AddressBook` — index ↔ address for one run, each address
  derived on first use, so a run holds the addresses it touched and no
  population-sized string table.
* :class:`AgentTable` — the columns that hold the load workload's
  society.
* :class:`ColumnMap` — a :class:`~collections.abc.MutableMapping` view
  presenting the balance column under the existing ``Dict[str, int]``
  contract (address keys, resolved through an :class:`AddressBook`), so
  ``LedgerState`` keeps working unchanged on a column genesis.  Keys
  that are not agents — e.g. the block validator collecting fees —
  spill into a small overflow dict.

Determinism: every value stored in a column round-trips exactly (int64
is the same number Python uses), so a workload run column-backed is
byte-identical — metrics and traces — to the same run on dicts.
``tests/property/test_columnar_props.py`` pins this.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from typing import Callable, Dict, Iterable, Iterator, List

import numpy as np

__all__ = [
    "AddressBook",
    "AgentTable",
    "ColumnMap",
    "BYTES_PER_AGENT_COLUMNS",
]

#: Raw column bytes per agent: 8 (balance) + 4 (nonce).
BYTES_PER_AGENT_COLUMNS = 12


class AddressBook:
    """Dense agent index ↔ address for ``n_agents`` agents, each address
    derived on first use.

    :meth:`address_of` derives an agent's address once (``derive(i)``)
    and remembers both directions, so a run pays for the addresses it
    touches, not for the population; :meth:`record` remembers one that
    was derived elsewhere (a shard worker hashing a transfer id).
    :meth:`get` resolves an address to its index.  An address the book
    has not derived is a *miss*: the first miss derives every remaining
    address, so any agent's address still resolves to its row and no
    lookup can silently read the wrong value.  ``misses`` counts those lookups; a run whose reads all name
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
            address = self.record(index, self._derive(index))
        return address

    def record(self, index: int, address: str) -> str:
        """Remember ``address``, which is ``derive(index)`` worked out
        elsewhere, as agent ``index``'s and return the book's address
        for it; :meth:`address_of` stores its derivations through here.

        An address another agent holds raises ``ValueError``, and so
        does an agent recorded under a second address."""
        known = self._addresses.get(index)
        if known is None:
            if not 0 <= index < self._n:
                raise IndexError(f"agent index {index} out of range")
            if self._index.setdefault(address, index) != index:
                raise ValueError(f"duplicate address {address!r}")
            self._addresses[index] = address
            return address
        if known != address:
            raise ValueError(
                f"agent {index} holds {known!r}, not {address!r}"
            )
        return known

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

    def _derive_all(self) -> None:
        if not self._complete:
            for i in range(self._n):
                self.address_of(i)
            self._complete = True


class ColumnMap(MutableMapping):
    """``Dict[str, int]`` view over an :class:`AgentTable` int column.

    Keys are addresses, resolved to rows through an
    :class:`AddressBook`.  Reads and writes on agents' addresses go
    straight to the column; other keys (rare — e.g. the fee-collecting
    validator) spill into an overflow dict.  Values are returned as
    plain Python ``int`` so callers (JSON metrics included) never see
    numpy scalars.  Iterating the view lists every agent's address, so
    it derives them all.
    """

    __slots__ = ("_book", "_column", "_overflow")

    def __init__(self, book: AddressBook, column: np.ndarray):
        self._book = book
        self._column = column
        self._overflow: Dict[str, int] = {}

    def __getitem__(self, key: str) -> int:
        i = self._book.get(key)
        if i >= 0:
            return int(self._column[i])
        return self._overflow[key]

    def __setitem__(self, key: str, value: int) -> None:
        i = self._book.get(key)
        if i >= 0:
            self._column[i] = value
        else:
            self._overflow[key] = int(value)

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
        column = self._column
        for i, address in enumerate(self._book.addresses()):
            yield address, int(column[i])
        yield from self._overflow.items()

    def values(self):
        for _, value in self.items():
            yield value

    def get(self, key: str, default=None):
        i = self._book.get(key)
        if i >= 0:
            return int(self._column[i])
        return self._overflow.get(key, default)

    def copy(self) -> Dict[str, int]:
        return dict(self.items())


class AgentTable:
    """Struct-of-arrays state for a synthetic society of ``n_agents``.

    Columns only: row ``i`` is agent ``i``.  The table owns the columns;
    the balance view handed to the ledger aliases its column (no copy)
    and takes the run's :class:`AddressBook` to resolve address keys.
    The balance column is the ledger's copy-on-write genesis *base* and
    must not be mutated after handing it out.
    """

    __slots__ = ("balances", "nonces")

    def __init__(self, n_agents: int, *, initial_balance: int = 0):
        self.balances = np.full(n_agents, int(initial_balance), dtype=np.int64)
        self.nonces = np.zeros(n_agents, dtype=np.int32)

    # ------------------------------------------------------------------
    # Shape / memory accounting
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.balances)

    @property
    def nbytes(self) -> int:
        """Total column bytes."""
        return self.balances.nbytes + self.nonces.nbytes

    @property
    def bytes_per_agent(self) -> float:
        n = len(self)
        return self.nbytes / n if n else 0.0

    # ------------------------------------------------------------------
    # Dict-compatible view
    # ------------------------------------------------------------------
    def balance_map(self, book: AddressBook) -> ColumnMap:
        return ColumnMap(book, self.balances)
