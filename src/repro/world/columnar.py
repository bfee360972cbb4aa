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
agent — the address strings themselves (interned once, shared
everywhere) dominate actual memory.

Three pieces:

* :class:`AddressInterner` — bidirectional address↔index table so hot
  paths pass ``int`` indices instead of hashing 64-char strings.
* :class:`AgentTable` — the columns that hold the load workload's
  society, plus :meth:`AgentTable.charge_spent`, the sequential-exact
  bulk privacy charge behind ``PrivacyBudget.charge_many``.
* :class:`ColumnMap` — a :class:`~collections.abc.MutableMapping` view
  presenting one column under the existing ``Dict[str, number]``
  contract, so ``LedgerState``, ``PrivacyBudget`` and the serving
  repository keep working unchanged on top of columns.  Unknown
  (non-interned) keys — e.g. the block validator collecting fees — spill
  into a small overflow dict.

Determinism: every value stored in a column round-trips exactly
(int64 / IEEE float64 are the same numbers Python uses), so a workload
run column-backed is byte-identical — metrics and traces — to the same
run on dicts.  ``tests/property/test_columnar_props.py`` pins this.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

__all__ = [
    "AddressInterner",
    "AgentTable",
    "ColumnMap",
    "BYTES_PER_AGENT_COLUMNS",
]

#: Raw column bytes per agent: 8 (balance) + 4 (nonce) + 8 (reputation)
#: + 8 (spent) + 8 (cap) + 1 (consent).
BYTES_PER_AGENT_COLUMNS = 37


class AddressInterner:
    """Bidirectional address ↔ dense-index table.

    Built once per society; hot paths then pass ``int`` indices and only
    rehydrate strings at the boundary (transactions, metrics labels).
    """

    __slots__ = ("_addresses", "_index")

    def __init__(self, addresses: Sequence[str]):
        self._addresses: List[str] = list(addresses)
        # dict(zip(...)) builds the index entirely in C — measurably
        # faster than a comprehension at the 1M tier.
        self._index: Dict[str, int] = dict(
            zip(self._addresses, range(len(self._addresses)))
        )
        if len(self._index) != len(self._addresses):
            raise ValueError("duplicate address in interner")

    def __len__(self) -> int:
        return len(self._addresses)

    def __contains__(self, address: object) -> bool:
        return address in self._index

    @property
    def addresses(self) -> List[str]:
        """The interned address list (do not mutate)."""
        return self._addresses

    def index_of(self, address: str) -> int:
        """Dense index of ``address``; raises ``KeyError`` if unknown."""
        return self._index[address]

    def get(self, address: str, default: int = -1) -> int:
        return self._index.get(address, default)

    def address_of(self, index: int) -> str:
        return self._addresses[index]

    def indices_of(self, addresses: Iterable[str]) -> np.ndarray:
        """Vectorize a batch lookup; raises ``KeyError`` on any miss."""
        index = self._index
        return np.fromiter(
            (index[a] for a in addresses), dtype=np.int64
        )

    def bulk_indices(self, addresses: Sequence[str]) -> Optional[np.ndarray]:
        """Batch address→index lookup; ``None`` if any address is
        unknown (callers fall back to their per-key path).

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


class ColumnMap(MutableMapping):
    """``Dict[str, number]`` view over one :class:`AgentTable` column.

    Reads and writes on interned addresses go straight to the column;
    non-interned keys (rare — e.g. the fee-collecting validator) spill
    into an overflow dict.  Values are returned as plain Python ``int``
    / ``float`` so callers (JSON metrics included) never see numpy
    scalars.
    """

    __slots__ = ("_interner", "_column", "_cast", "_overflow")

    def __init__(self, interner: AddressInterner, column: np.ndarray, cast=None):
        self._interner = interner
        self._column = column
        self._cast = cast if cast is not None else (
            float if column.dtype.kind == "f" else int
        )
        self._overflow: Dict[str, object] = {}

    def __getitem__(self, key: str):
        i = self._interner.get(key)
        if i >= 0:
            return self._cast(self._column[i])
        return self._overflow[key]

    def __setitem__(self, key: str, value) -> None:
        i = self._interner.get(key)
        if i >= 0:
            self._column[i] = value
        else:
            self._overflow[key] = self._cast(value)

    def __delitem__(self, key: str) -> None:
        raise TypeError("ColumnMap entries cannot be deleted")

    def __contains__(self, key: object) -> bool:
        return key in self._interner or key in self._overflow

    def __iter__(self) -> Iterator[str]:
        yield from self._interner.addresses
        yield from self._overflow

    def __len__(self) -> int:
        return len(self._interner) + len(self._overflow)

    def items(self):
        cast = self._cast
        column = self._column
        for i, address in enumerate(self._interner.addresses):
            yield address, cast(column[i])
        yield from self._overflow.items()

    def values(self):
        for _, value in self.items():
            yield value

    def get(self, key: str, default=None):
        i = self._interner.get(key)
        if i >= 0:
            return self._cast(self._column[i])
        return self._overflow.get(key, default)

    def copy(self) -> Dict[str, object]:
        return dict(self.items())


class AgentTable:
    """Struct-of-arrays hot state for a synthetic society.

    The table owns the columns; views handed to the ledger / privacy
    substrates alias them (no copies).  Columns used as a copy-on-write
    *base* (ledger genesis balances) must not be mutated after handing
    them out — the bulk kernel below writes the spent column only.
    """

    __slots__ = (
        "interner",
        "balances",
        "nonces",
        "reputation",
        "privacy_spent",
        "privacy_cap",
        "consent",
    )

    def __init__(
        self,
        addresses: Sequence[str],
        *,
        initial_balance: int = 0,
        privacy_cap: float = 0.0,
    ):
        n = len(addresses)
        self.interner = (
            addresses
            if isinstance(addresses, AddressInterner)
            else AddressInterner(addresses)
        )
        self.balances = np.full(n, int(initial_balance), dtype=np.int64)
        self.nonces = np.zeros(n, dtype=np.int32)
        self.reputation = np.zeros(n, dtype=np.float64)
        self.privacy_spent = np.zeros(n, dtype=np.float64)
        self.privacy_cap = np.full(n, float(privacy_cap), dtype=np.float64)
        self.consent = np.zeros(n, dtype=np.uint8)

    # ------------------------------------------------------------------
    # Shape / memory accounting
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.interner)

    @property
    def nbytes(self) -> int:
        """Total column bytes (excludes the interned address strings)."""
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
    def balance_map(self) -> ColumnMap:
        return ColumnMap(self.interner, self.balances, int)

    def nonce_map(self) -> ColumnMap:
        return ColumnMap(self.interner, self.nonces, int)

    def spent_map(self) -> ColumnMap:
        return ColumnMap(self.interner, self.privacy_spent, float)

    def cap_map(self) -> ColumnMap:
        return ColumnMap(self.interner, self.privacy_cap, float)

    # ------------------------------------------------------------------
    # Consent bitmap
    # ------------------------------------------------------------------
    def grant_consent(self, index: int, channel_bit: int) -> None:
        self.consent[index] |= np.uint8(1 << channel_bit)

    def has_consent(self, index: int, channel_bit: int) -> bool:
        return bool(self.consent[index] & (1 << channel_bit))

    # ------------------------------------------------------------------
    # Bulk privacy kernel (``PrivacyBudget.charge_many``'s column fast
    # path for batches of interned subjects)
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
