"""Differential-privacy budget accounting.

Per-subject epsilon metering with hard caps: once a subject's budget is
spent, further DP releases about them raise
:class:`~repro.errors.PrivacyBudgetExceeded` — the enforcement half of
"granular control to manage the input data flows" (§II-D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PrivacyBudgetExceeded, PrivacyError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.world.columnar import AgentTable

# Below this batch size the vectorized columnar charge path costs more
# in numpy dispatch than the plain loop saves.
_VECTOR_MIN_BATCH = 8

__all__ = ["BudgetLedgerEntry", "PrivacyBudget"]


@dataclass(frozen=True)
class BudgetLedgerEntry:
    """One metered release."""

    subject: str
    epsilon: float
    channel: str
    time: float


class PrivacyBudget:
    """Hard per-subject epsilon caps with a spend ledger.

    Examples
    --------
    >>> budget = PrivacyBudget(default_cap=1.0)
    >>> budget.charge("u1", 0.6, channel="gaze", time=0.0)
    >>> budget.remaining("u1")
    0.4
    """

    def __init__(self, default_cap: float = 10.0):
        if not default_cap > 0:  # also rejects NaN
            raise PrivacyError(f"default_cap must be positive, got {default_cap}")
        self._default_cap = float(default_cap)
        self._caps: Dict[str, float] = {}
        self._spent: Dict[str, float] = {}
        self._ledger: List[BudgetLedgerEntry] = []
        self._table: Optional["AgentTable"] = None  # columnar backing

    @classmethod
    def from_table(
        cls, table: "AgentTable", default_cap: Optional[float] = None
    ) -> "PrivacyBudget":
        """Column-backed budget over an
        :class:`~repro.world.columnar.AgentTable`.

        Spent and cap accounting read and write the table's
        ``privacy_spent`` / ``privacy_cap`` columns directly (dict views
        for compatibility, vectorized :meth:`charge_many` straight into
        the spent column for batches).  The cap column is expected to be
        pre-filled with the default cap (``AgentTable(privacy_cap=...)``
        does that); ``default_cap`` only governs subjects outside the
        table and defaults to the column's fill value.
        """
        if default_cap is None:
            default_cap = float(table.privacy_cap[0]) if len(table) else 10.0
        budget = cls(default_cap=default_cap)
        budget._caps = table.cap_map()
        budget._spent = table.spent_map()
        budget._table = table
        return budget

    def set_cap(self, subject: str, cap: float) -> None:
        """Give ``subject`` a personal cap (their privacy preference)."""
        if not cap > 0:  # also rejects NaN
            raise PrivacyError(f"cap must be positive, got {cap}")
        self._caps[subject] = float(cap)

    def cap_of(self, subject: str) -> float:
        return self._caps.get(subject, self._default_cap)

    def spent(self, subject: str) -> float:
        return self._spent.get(subject, 0.0)

    def remaining(self, subject: str) -> float:
        return max(0.0, self.cap_of(subject) - self.spent(subject))

    def can_afford(self, subject: str, epsilon: float) -> bool:
        return epsilon <= self.remaining(subject) + 1e-12

    @staticmethod
    def _check_epsilon(epsilon: float) -> None:
        """Reject invalid ε before it can touch an accumulator.

        NaN poisons a subject's spend forever (``spent + nan == nan``
        and every later ``remaining`` collapses to 0) and ±inf is never
        a meaningful DP spend — both are *validation* errors, distinct
        from the policy refusal :class:`PrivacyBudgetExceeded`.
        """
        if not math.isfinite(epsilon):
            raise PrivacyError(
                f"epsilon must be finite, got {epsilon}"
            )
        if epsilon < 0:
            raise PrivacyError(f"epsilon must be >= 0, got {epsilon}")

    def charge(self, subject: str, epsilon: float, channel: str = "", time: float = 0.0) -> None:
        """Meter a release.

        Raises
        ------
        PrivacyError
            On non-finite or negative ``epsilon`` (bad input, not budget
            exhaustion).
        PrivacyBudgetExceeded
            If the charge would push the subject over their cap.  The
            ledger is not written on refusal (no partial spends).
        """
        self._check_epsilon(epsilon)
        if not self.can_afford(subject, epsilon):
            raise PrivacyBudgetExceeded(
                f"subject {subject}: charge ε={epsilon:g} exceeds remaining "
                f"ε={self.remaining(subject):g} (cap {self.cap_of(subject):g})"
            )
        self._spent[subject] = self.spent(subject) + epsilon
        self._ledger.append(
            BudgetLedgerEntry(subject=subject, epsilon=epsilon, channel=channel, time=time)
        )

    def charge_many(
        self,
        subjects: Sequence[str],
        epsilons: Sequence[float],
        channel: str = "",
        time: float = 0.0,
        record_ledger: bool = True,
    ) -> List[bool]:
        """Meter a batch of releases; returns per-entry acceptance.

        Equivalent to charging each ``(subject, epsilon)`` pair in order
        with :meth:`charge` and skipping the entries that raise
        :class:`PrivacyBudgetExceeded` — refused entries spend nothing
        and write no ledger row, while later entries for the same
        subject may still fit (order matters).  ``record_ledger=False``
        keeps only the accumulator updates, for population-scale runs
        where a per-release ledger would dominate memory.

        Column-backed budgets (:meth:`from_table`) route batches whose
        subjects are all interned through a vectorized kernel writing
        straight into the spent column; acceptance decisions, skip-not-
        suffix refusal ordering, and float accumulation are bit-identical
        to the sequential loop (the property suite pins this).

        Raises
        ------
        PrivacyError
            On any negative or non-finite epsilon — before *any* entry
            is applied, so a bad batch never half-spends (a NaN that
            slipped past admission would permanently zero the subject's
            remaining budget).
        """
        if len(subjects) != len(epsilons):
            raise PrivacyError(
                f"subjects length {len(subjects)} != epsilons length {len(epsilons)}"
            )
        table = self._table
        if table is not None and len(subjects) >= _VECTOR_MIN_BATCH:
            indices = table.interner.bulk_indices(subjects)
            if indices is not None:  # all interned → column fast path
                eps_arr = np.asarray(epsilons, dtype=np.float64)
                if not np.isfinite(eps_arr).all() or (
                    eps_arr.size and eps_arr.min() < 0
                ):
                    # Same validation as the loop below, vectorized; on
                    # failure re-run the scalar checks for the exact
                    # per-value error message.
                    for epsilon in epsilons:
                        self._check_epsilon(epsilon)
                    raise PrivacyError(  # pragma: no cover - loop raises
                        "invalid epsilon in batch"
                    )
                mask = table.charge_spent(indices, eps_arr)
                accepted = mask.tolist()
                if record_ledger:
                    append = self._ledger.append
                    for ok, subject, epsilon in zip(accepted, subjects, epsilons):
                        if ok:
                            append(
                                BudgetLedgerEntry(
                                    subject=subject,
                                    epsilon=epsilon,
                                    channel=channel,
                                    time=time,
                                )
                            )
                return accepted
        for epsilon in epsilons:
            self._check_epsilon(epsilon)
        spent = self._spent
        caps = self._caps
        default_cap = self._default_cap
        accepted: List[bool] = []
        for subject, epsilon in zip(subjects, epsilons):
            used = spent.get(subject, 0.0)
            cap = caps.get(subject, default_cap)
            if epsilon > max(0.0, cap - used) + 1e-12:
                accepted.append(False)
                continue
            spent[subject] = used + epsilon
            if record_ledger:
                self._ledger.append(
                    BudgetLedgerEntry(
                        subject=subject, epsilon=epsilon, channel=channel, time=time
                    )
                )
            accepted.append(True)
        return accepted

    @property
    def ledger(self) -> List[BudgetLedgerEntry]:
        return list(self._ledger)

    def reset(self, subject: str) -> None:
        """New accounting period for ``subject``."""
        if isinstance(self._spent, dict):
            self._spent.pop(subject, None)
        else:  # column-backed view: absent and zero read the same
            self._spent[subject] = 0.0
