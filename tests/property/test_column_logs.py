"""Column-logged histories ≡ the per-event logs they replaced.

The disclosure LED, the privacy-budget ledger and the reputation
feedback history keep their histories as columns and build event
objects only when read.  Each test drives a seeded random program
against the real class and against a per-event reference kept here (a
list of one object or tuple per event, as the classes used to keep),
then compares every accessor.
"""

import numpy as np
import pytest

from repro.errors import ConsentError, PrivacyBudgetExceeded, PrivacyError
from repro.privacy import BudgetLedgerEntry, DisclosureIndicator, PrivacyBudget
from repro.reputation import FeedbackEvent, ReputationSystem
from repro.workloads.load import agent_addresses

SEEDS = [0, 1, 2, 3]


class ReferenceIndicator:
    """One ``(time, on)`` tuple per transition, replayed linearly."""

    def __init__(self):
        self.active = {}
        self.history = []

    def is_on(self):
        return any(count > 0 for count in self.active.values())

    def started(self, channel, time):
        was_on = self.is_on()
        self.active[channel] = self.active.get(channel, 0) + 1
        if not was_on:
            self.history.append((time, True))

    def stopped(self, channel, time):
        self.active[channel] -= 1
        if not self.is_on():
            self.history.append((time, False))

    def was_on_at(self, time):
        state = False
        for at, on in self.history:
            if at > time:
                break
            state = on
        return state


@pytest.mark.parametrize("seed", SEEDS)
def test_indicator_log(seed):
    rng = np.random.default_rng(seed)
    led, ref = DisclosureIndicator(), ReferenceIndicator()
    channels = ["gaze", "gait", "heart_rate"]
    time = 0.0
    for _ in range(300):
        # Mostly forward in time, with ties and the odd step back.
        time += float(rng.choice([0.0, 0.5, 1.0, -0.5]))
        active = [c for c in channels if ref.active.get(c, 0)]
        if active and rng.random() < 0.6:
            channel = active[int(rng.integers(len(active)))]
            led.collection_stopped(channel, time)
            ref.stopped(channel, time)
        else:
            channel = channels[int(rng.integers(len(channels)))]
            led.collection_started(channel, time)
            ref.started(channel, time)
        assert led.is_on == ref.is_on()
    assert len(ref.history) > 20
    assert led.transitions == ref.history
    for query in np.arange(-1.0, time + 2.0, 0.25):
        assert led.was_on_at(float(query)) == ref.was_on_at(float(query))
    with pytest.raises(ConsentError):
        DisclosureIndicator().collection_stopped("gaze", 0.0)


class ReferenceBudget:
    """Sequential metering with one ledger entry per accepted charge."""

    def __init__(self, cap):
        self.cap = cap
        self.spent = {}
        self.ledger = []

    def charge(self, subject, epsilon, channel, time):
        used = self.spent.get(subject, 0.0)
        if epsilon > max(0.0, self.cap - used) + 1e-12:
            return False
        self.spent[subject] = used + epsilon
        self.ledger.append(
            BudgetLedgerEntry(
                subject=subject, epsilon=epsilon, channel=channel, time=time
            )
        )
        return True


# The serving tier names a subject by address, the society by agent
# index; each form comes with an outsider drawn now and then.
SUBJECT_FORMS = {
    "address": (agent_addresses(6), "not-an-agent"),
    "index": (list(range(6)), 6),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("form", list(SUBJECT_FORMS))
def test_budget_ledger(seed, form):
    population, outsider = SUBJECT_FORMS[form]
    rng = np.random.default_rng(seed)
    cap = 2.0
    budget, ref = PrivacyBudget(default_cap=cap), ReferenceBudget(cap)
    channels = ["gaze", "gait", "heart_rate"]

    def draw():
        pool = population + ([outsider] if rng.random() < 0.1 else [])
        return (
            pool[int(rng.integers(len(pool)))],
            float(rng.choice([0.1, 0.25, 0.35, 0.6])),
            channels[int(rng.integers(len(channels)))],
            float(rng.integers(0, 50)),
        )

    for _ in range(60):
        op = rng.integers(3)
        if op == 0:
            subject, epsilon, channel, time = draw()
            expected = ref.charge(subject, epsilon, channel, time)
            try:
                budget.charge(subject, epsilon, channel=channel, time=time)
                got = True
            except PrivacyBudgetExceeded:
                got = False
            assert got == expected
            continue
        entries = [draw() for _ in range(int(rng.integers(1, 20)))]
        subjects = [e[0] for e in entries]
        epsilons = [e[1] for e in entries]
        if op == 1:  # one channel and time for the whole batch
            channel, time = entries[0][2], entries[0][3]
            expected = [
                ref.charge(s, e, channel, time) for s, e in zip(subjects, epsilons)
            ]
            got = budget.charge_many(subjects, epsilons, channel=channel, time=time)
        else:  # a channel and time per entry
            expected = [ref.charge(*entry) for entry in entries]
            got = budget.charge_many(
                subjects,
                epsilons,
                channel=[e[2] for e in entries],
                time=np.array([e[3] for e in entries]),
            )
        assert got == expected
    assert len(ref.ledger) > 10
    assert budget.ledger == ref.ledger
    for subject in population + [outsider]:
        assert budget.spent(subject) == ref.spent.get(subject, 0.0)


def test_budget_rejects_per_entry_columns_of_the_wrong_length():
    budget = PrivacyBudget(default_cap=1.0)
    with pytest.raises(PrivacyError):
        budget.charge_many(["a", "b"], [0.1, 0.1], channel=["gaze"])
    with pytest.raises(PrivacyError):
        budget.charge_many(["a", "b"], [0.1, 0.1], time=[0.0, 1.0, 2.0])
    assert budget.ledger == [] and budget.spent("a") == 0.0


@pytest.mark.parametrize("seed", SEEDS)
def test_feedback_log(seed):
    rng = np.random.default_rng(seed)
    system = ReputationSystem(pretrusted=["p"])
    reference = []
    names = ["p", "a", "b", "c", "d"]
    for _ in range(200):
        rater, target = rng.choice(len(names), size=2, replace=False)
        event = FeedbackEvent(
            time=float(rng.integers(0, 30)),
            rater=names[rater],
            target=names[target],
            positive=bool(rng.random() < 0.7),
            weight=float(rng.choice([0.5, 1.0, 2.5])),
            context=str(rng.choice(["", "trade", "report"])),
        )
        returned = system.record(
            event.rater,
            event.target,
            event.positive,
            time=event.time,
            weight=event.weight,
            context=event.context,
        )
        assert returned == event
        reference.append(event)
    assert system.events == reference
    assert system.feedback_count() == len(reference)
    for name in names + ["nobody"]:
        assert system.feedback_count(name) == sum(
            1 for event in reference if event.target == name
        )
