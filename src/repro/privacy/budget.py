"""Differential-privacy budget accounting.

Per-subject epsilon metering with hard caps: once a subject's budget is
spent, further DP releases about them raise
:class:`~repro.errors.PrivacyBudgetExceeded` — the enforcement half of
"granular control to manage the input data flows" (§II-D).

One :class:`PrivacyBudget` meters every privacy pipeline: the
framework's, the serving tier's and the load workload's.  A subject is
any hashable key — a user id, or in the load workload an agent index —
and the budget keeps a spend only for subjects it has charged.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Dict, Hashable, List, Sequence, Union

import numpy as np

from repro.errors import PrivacyBudgetExceeded, PrivacyError

__all__ = ["BudgetLedgerEntry", "PrivacyBudget"]


def _per_entry(value: object) -> bool:
    """A ``channel``/``time`` argument given per entry, not once."""
    return isinstance(value, (Sequence, np.ndarray)) and not isinstance(value, str)


@dataclass(frozen=True)
class BudgetLedgerEntry:
    """One metered release."""

    subject: Hashable
    epsilon: float
    channel: str
    time: float


class PrivacyBudget:
    """Hard per-subject epsilon caps with a spend ledger.

    The ledger is kept as columns (subjects, ε, channels, times; ε and
    times read back as floats) and :attr:`ledger` builds its
    :class:`BudgetLedgerEntry` rows on demand, so a long run keeps no
    object per metered release.

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
        self._caps: Dict[Hashable, float] = {}
        self._spent: Dict[Hashable, float] = {}
        self._ledger_subjects: List[Hashable] = []
        self._ledger_epsilons = array("d")
        self._ledger_channels: List[str] = []
        self._ledger_times = array("d")

    def set_cap(self, subject: Hashable, cap: float) -> None:
        """Give ``subject`` a personal cap (their privacy preference)."""
        if not cap > 0:  # also rejects NaN
            raise PrivacyError(f"cap must be positive, got {cap}")
        self._caps[subject] = float(cap)

    def cap_of(self, subject: Hashable) -> float:
        return self._caps.get(subject, self._default_cap)

    def spent(self, subject: Hashable) -> float:
        return self._spent.get(subject, 0.0)

    def remaining(self, subject: Hashable) -> float:
        return max(0.0, self.cap_of(subject) - self.spent(subject))

    def can_afford(self, subject: Hashable, epsilon: float) -> bool:
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

    def charge(self, subject: Hashable, epsilon: float, channel: str = "", time: float = 0.0) -> None:
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
        self._ledger_subjects.append(subject)
        self._ledger_epsilons.append(epsilon)
        self._ledger_channels.append(channel)
        self._ledger_times.append(time)

    def charge_many(
        self,
        subjects: Sequence[Hashable],
        epsilons: Sequence[float],
        channel: Union[str, Sequence[str]] = "",
        time: Union[float, Sequence[float]] = 0.0,
    ) -> List[bool]:
        """Meter a batch of releases; returns per-entry acceptance.

        Equivalent to charging each ``(subject, epsilon)`` pair in order
        with :meth:`charge` and skipping the entries that raise
        :class:`PrivacyBudgetExceeded` — refused entries spend nothing
        and write no ledger row, while later entries for the same
        subject may still fit (order matters).  ``channel`` and ``time``
        are either one value for every entry or a sequence with one per
        entry (the ledger row's channel and time).

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
        for name, value in (("channel", channel), ("time", time)):
            if _per_entry(value) and len(value) != len(subjects):
                raise PrivacyError(
                    f"{name} length {len(value)} != subjects length {len(subjects)}"
                )
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
            accepted.append(True)
        count = sum(accepted)
        self._ledger_subjects.extend(compress(subjects, accepted))
        self._ledger_epsilons.extend(compress(epsilons, accepted))
        self._ledger_channels.extend(
            compress(channel, accepted)
            if _per_entry(channel)
            else repeat(channel, count)
        )
        self._ledger_times.extend(
            compress(time, accepted) if _per_entry(time) else repeat(time, count)
        )
        return accepted

    @property
    def ledger(self) -> List[BudgetLedgerEntry]:
        return [
            BudgetLedgerEntry(subject=s, epsilon=e, channel=c, time=t)
            for s, e, c, t in zip(
                self._ledger_subjects,
                self._ledger_epsilons,
                self._ledger_channels,
                self._ledger_times,
            )
        ]

    def reset(self, subject: Hashable) -> None:
        """New accounting period for ``subject``."""
        self._spent.pop(subject, None)
