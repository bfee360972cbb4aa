"""Tests for privacy-budget accounting."""

import pytest

from repro.errors import PrivacyBudgetExceeded, PrivacyError
from repro.privacy import PrivacyBudget


class TestCharging:
    def test_charge_and_remaining(self):
        budget = PrivacyBudget(default_cap=1.0)
        budget.charge("u", 0.6, channel="gaze", time=0.0)
        assert budget.spent("u") == pytest.approx(0.6)
        assert budget.remaining("u") == pytest.approx(0.4)

    def test_exceeding_cap_raises(self):
        budget = PrivacyBudget(default_cap=1.0)
        budget.charge("u", 0.9)
        with pytest.raises(PrivacyBudgetExceeded):
            budget.charge("u", 0.2)

    def test_refused_charge_not_recorded(self):
        budget = PrivacyBudget(default_cap=1.0)
        budget.charge("u", 0.9)
        try:
            budget.charge("u", 0.5)
        except PrivacyBudgetExceeded:
            pass
        assert budget.spent("u") == pytest.approx(0.9)
        assert len(budget.ledger) == 1

    def test_exact_cap_allowed(self):
        budget = PrivacyBudget(default_cap=1.0)
        budget.charge("u", 1.0)
        assert budget.remaining("u") == 0.0

    def test_negative_epsilon_rejected(self):
        with pytest.raises(PrivacyError):
            PrivacyBudget().charge("u", -0.1)

    def test_zero_epsilon_free(self):
        budget = PrivacyBudget(default_cap=0.5)
        for _ in range(100):
            budget.charge("u", 0.0)
        assert budget.spent("u") == 0.0

    def test_nan_epsilon_is_validation_error_not_budget_refusal(self):
        # NaN used to fall through the `epsilon < 0` guard and surface
        # as PrivacyBudgetExceeded (can_afford is False for NaN) — the
        # wrong error type for bad input, and misleading to callers that
        # treat budget refusals as normal policy outcomes.
        budget = PrivacyBudget(default_cap=1.0)
        with pytest.raises(PrivacyError) as excinfo:
            budget.charge("u", float("nan"))
        assert not isinstance(excinfo.value, PrivacyBudgetExceeded)
        assert budget.spent("u") == 0.0
        assert budget.ledger == []

    def test_infinite_epsilon_rejected(self):
        budget = PrivacyBudget(default_cap=1.0)
        for bad in (float("inf"), float("-inf")):
            with pytest.raises(PrivacyError) as excinfo:
                budget.charge("u", bad)
            assert not isinstance(excinfo.value, PrivacyBudgetExceeded)
        assert budget.spent("u") == 0.0


class TestCaps:
    def test_per_subject_cap_overrides_default(self):
        budget = PrivacyBudget(default_cap=10.0)
        budget.set_cap("cautious", 0.5)
        assert budget.cap_of("cautious") == 0.5
        assert budget.cap_of("other") == 10.0
        with pytest.raises(PrivacyBudgetExceeded):
            budget.charge("cautious", 1.0)

    def test_invalid_caps_rejected(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(PrivacyError):
                PrivacyBudget(default_cap=bad)
            with pytest.raises(PrivacyError):
                PrivacyBudget().set_cap("u", bad)

    def test_infinite_caps_accepted(self):
        budget = PrivacyBudget(default_cap=float("inf"))
        budget.set_cap("u", float("inf"))
        assert budget.can_afford("u", 1e9)

    def test_can_afford(self):
        budget = PrivacyBudget(default_cap=1.0)
        assert budget.can_afford("u", 1.0)
        assert not budget.can_afford("u", 1.1)


class TestLedgerAndReset:
    def test_ledger_entries(self):
        budget = PrivacyBudget()
        budget.charge("u", 0.5, channel="gaze", time=2.0)
        entry = budget.ledger[0]
        assert entry.subject == "u"
        assert entry.channel == "gaze"
        assert entry.time == 2.0

    def test_reset_restores_budget(self):
        budget = PrivacyBudget(default_cap=1.0)
        budget.charge("u", 1.0)
        budget.reset("u")
        assert budget.remaining("u") == 1.0
        # Ledger history survives resets (it is an audit record).
        assert len(budget.ledger) == 1


class TestChargeMany:
    ENTRIES = [
        ("a", 0.4), ("b", 0.5), ("a", 0.4), ("a", 0.3),
        ("b", 0.6), ("a", 0.2), ("c", 0.0), ("b", 0.4),
    ]

    def sequential(self, budget):
        verdicts = []
        for subject, epsilon in self.ENTRIES:
            try:
                budget.charge(subject, epsilon, channel="ch", time=1.0)
                verdicts.append(True)
            except PrivacyBudgetExceeded:
                verdicts.append(False)
        return verdicts

    def test_matches_sequential_charge(self):
        seq = PrivacyBudget(default_cap=1.0)
        bat = PrivacyBudget(default_cap=1.0)
        expected = self.sequential(seq)
        got = bat.charge_many(
            [s for s, _ in self.ENTRIES],
            [e for _, e in self.ENTRIES],
            channel="ch",
            time=1.0,
        )
        assert got == expected
        for subject in "abc":
            assert bat.spent(subject) == pytest.approx(seq.spent(subject))
        assert bat.ledger == seq.ledger

    def test_cap_exceeded_skips_entry_not_suffix(self):
        # A refused entry must not poison later, smaller charges for the
        # same subject — order semantics match the sequential loop.
        budget = PrivacyBudget(default_cap=1.0)
        accepted = budget.charge_many(["u", "u", "u"], [0.9, 0.5, 0.1])
        assert accepted == [True, False, True]
        assert budget.spent("u") == pytest.approx(1.0)

    def test_personal_caps_respected(self):
        budget = PrivacyBudget(default_cap=10.0)
        budget.set_cap("tight", 0.5)
        accepted = budget.charge_many(
            ["tight", "loose", "tight"], [0.4, 0.4, 0.4]
        )
        assert accepted == [True, True, False]

    def test_negative_epsilon_rejected_atomically(self):
        budget = PrivacyBudget(default_cap=1.0)
        with pytest.raises(PrivacyError):
            budget.charge_many(["u", "u"], [0.5, -0.1])
        # Validation precedes application: nothing was spent.
        assert budget.spent("u") == 0.0
        assert budget.ledger == []

    def test_length_mismatch_rejected(self):
        with pytest.raises(PrivacyError):
            PrivacyBudget().charge_many(["u"], [0.1, 0.2])

    def test_nan_epsilon_rejected_before_any_entry_applies(self):
        # A NaN accepted into the accumulator is permanent: spent+nan is
        # nan, so remaining() collapses to 0 forever.  The old code's
        # `epsilon > remaining + tol` comparison is False for NaN, which
        # silently *accepted* the poison.  Validation must reject the
        # whole batch up front.
        budget = PrivacyBudget(default_cap=10.0)
        with pytest.raises(PrivacyError) as excinfo:
            budget.charge_many(["u", "u", "u"], [0.5, float("nan"), 0.5])
        assert not isinstance(excinfo.value, PrivacyBudgetExceeded)
        assert budget.spent("u") == 0.0
        assert budget.ledger == []
        # The subject is unharmed: a clean charge still works.
        budget.charge("u", 1.0)
        assert budget.remaining("u") == pytest.approx(9.0)

    def test_infinite_epsilon_rejected_atomically(self):
        budget = PrivacyBudget(default_cap=10.0)
        with pytest.raises(PrivacyError):
            budget.charge_many(["u", "u"], [0.5, float("inf")])
        assert budget.spent("u") == 0.0
