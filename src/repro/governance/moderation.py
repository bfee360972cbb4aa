"""Content moderation: automated filters, user reports, and review.

§III of the paper surveys how platforms actually govern: "automation
tools have been included to control misbehaviour (e.g., banning
inappropriate posts).  These platforms also rely on the report of other
members..."  §IV-A adds AI-assisted, community-in-the-loop moderation
(Crossmod-style [23]).  This module implements all the moving parts so
experiment E6 can compare configurations:

* :class:`AbuseClassifier` — a noisy detector with a true/false-positive
  rate (simulating an ML model; it sees only the interaction, and its
  errors are drawn deterministically per interaction).
* :class:`ReportDesk` — victims file reports with some probability.
* :class:`HumanModeratorPool` — finite review capacity, high accuracy.
* :class:`Jury` — community panels (from §III-C "juries, formal
  debates"): k members vote, majority decides, accuracy per juror.
* :class:`ModerationService` — composes the above into a pipeline and
  scores precision/recall/latency against ground truth.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModerationError
from repro.governance.sanctions import GraduatedSanctionPolicy
from repro.obs.instrument import NULL_OBS, Instrumentation
from repro.world.interactions import Interaction, InteractionBatch

__all__ = [
    "AbuseClassifier",
    "CaseStatus",
    "CaseSource",
    "ModerationCase",
    "ReportDesk",
    "HumanModeratorPool",
    "Jury",
    "ModerationService",
    "ModerationScore",
]


class AbuseClassifier:
    """Noisy abuse detector.

    ``true_positive_rate`` / ``false_positive_rate`` define the ROC
    point this "model" operates at.  The draw is made once per
    interaction and cached, so repeated consultation is consistent
    (a real model is deterministic given its input).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        true_positive_rate: float = 0.8,
        false_positive_rate: float = 0.05,
    ):
        for name, value in (
            ("true_positive_rate", true_positive_rate),
            ("false_positive_rate", false_positive_rate),
        ):
            if not 0 <= value <= 1:
                raise ModerationError(f"{name} must be in [0, 1], got {value}")
        self._rng = rng
        self._tpr = true_positive_rate
        self._fpr = false_positive_rate
        self._cache: Dict[tuple, bool] = {}

    @staticmethod
    def _key(interaction: Interaction) -> tuple:
        return (
            interaction.time,
            interaction.initiator,
            interaction.target,
            interaction.kind,
            interaction.content,
            interaction.abusive,
        )

    def flag(self, interaction: Interaction) -> bool:
        """Would the model flag this interaction as abusive?"""
        key = self._key(interaction)
        if key not in self._cache:
            p = self._tpr if interaction.abusive else self._fpr
            self._cache[key] = bool(self._rng.random() < p)
        return self._cache[key]

    def flag_batch(self, interactions: Sequence[Interaction]) -> np.ndarray:
        """Flag a whole epoch in one vectorized pass.

        Stream-identical to calling :meth:`flag` on each interaction in
        order: unseen interactions get their Bernoulli draws from a
        single ``rng.random(k)`` (the same PCG64 doubles ``k`` scalar
        draws would consume, in first-occurrence order), and the
        per-interaction cache keeps repeated consultation consistent.
        """
        cache = self._cache
        keys = [self._key(interaction) for interaction in interactions]
        pending: List[tuple] = []
        pending_p: List[float] = []
        for key, interaction in zip(keys, interactions):
            if key not in cache:
                cache[key] = None  # reserve first-occurrence draw order
                pending.append(key)
                pending_p.append(self._tpr if interaction.abusive else self._fpr)
        if pending:
            draws = self._rng.random(len(pending))
            verdicts = draws < np.asarray(pending_p, dtype=np.float64)
            for key, verdict in zip(pending, verdicts):
                cache[key] = bool(verdict)
        return np.fromiter((cache[k] for k in keys), dtype=bool, count=len(keys))

    def flag_array(self, abusive: np.ndarray) -> np.ndarray:
        """Classify a synthetic columnar batch in one vectorized pass.

        Operates on the ground-truth ``abusive`` array alone (the only
        input the ROC point depends on) and skips the per-interaction
        cache — synthetic batches are one-shot, never re-consulted.
        One draw per entry, stream-identical to the scalar loop.
        """
        abusive = np.asarray(abusive, dtype=bool)
        p = np.where(abusive, self._tpr, self._fpr)
        return self._rng.random(abusive.size) < p


class CaseStatus(str, enum.Enum):
    OPEN = "open"
    UPHELD = "upheld"
    DISMISSED = "dismissed"


class CaseSource(str, enum.Enum):
    AUTOMATED = "automated"
    REPORT = "report"


@dataclass
class ModerationCase:
    """One item in the moderation queue."""

    case_id: str
    interaction: Interaction
    source: CaseSource
    opened_at: float
    status: CaseStatus = CaseStatus.OPEN
    decided_at: Optional[float] = None
    decided_by: str = ""

    @property
    def latency(self) -> Optional[float]:
        if self.decided_at is None:
            return None
        return self.decided_at - self.interaction.time

    def decide(self, uphold: bool, time: float, decider: str) -> None:
        if self.status is not CaseStatus.OPEN:
            raise ModerationError(f"case {self.case_id} already decided")
        self.status = CaseStatus.UPHELD if uphold else CaseStatus.DISMISSED
        self.decided_at = time
        self.decided_by = decider


class ReportDesk:
    """Victims report abusive interactions that reached them.

    ``report_probability`` models awareness + willingness (the paper
    notes users "are either not fully aware of [the tools] or do not
    know how to use them").  Only delivered interactions can be
    reported — blocked ones never hurt anyone.
    """

    def __init__(self, rng: np.random.Generator, report_probability: float = 0.3):
        if not 0 <= report_probability <= 1:
            raise ModerationError(
                f"report_probability must be in [0, 1], got {report_probability}"
            )
        self._rng = rng
        self._p = report_probability

    def collect(self, interactions: Sequence[Interaction]) -> List[Interaction]:
        """The subset of delivered abusive interactions that get reported.

        The willingness draws for all reportable interactions come from
        one ``rng.random(k)`` call — stream-identical to the scalar
        per-interaction loop.
        """
        candidates = [
            i for i in interactions if i.delivered and i.abusive
        ]
        if not candidates:
            return []
        draws = self._rng.random(len(candidates))
        return [i for i, d in zip(candidates, draws) if d < self._p]

    def collect_batch(self, batch: InteractionBatch) -> np.ndarray:
        """Row indices of a columnar batch that get reported."""
        candidates = np.flatnonzero(batch.delivered & batch.abusive)
        if candidates.size == 0:
            return candidates
        draws = self._rng.random(candidates.size)
        return candidates[draws < self._p]


class HumanModeratorPool:
    """Professional reviewers: accurate but capacity-bounded (§III:
    "moderators ... cannot keep up with the demand")."""

    def __init__(
        self,
        rng: np.random.Generator,
        capacity_per_epoch: int = 20,
        accuracy: float = 0.95,
    ):
        if capacity_per_epoch < 0:
            raise ModerationError("capacity_per_epoch must be >= 0")
        if not 0 <= accuracy <= 1:
            raise ModerationError(f"accuracy must be in [0, 1], got {accuracy}")
        self._rng = rng
        self.capacity_per_epoch = capacity_per_epoch
        self._accuracy = accuracy

    def review(self, case: ModerationCase, time: float) -> bool:
        """Decide one case; returns the uphold verdict."""
        correct = self._rng.random() < self._accuracy
        truth = case.interaction.abusive
        verdict = truth if correct else not truth
        case.decide(verdict, time, decider="human")
        return verdict


class Jury:
    """Community panels: ``jury_size`` members vote, majority decides.

    Less accurate per head than professionals but capacity scales with
    the community.  ``juror_accuracy`` is each juror's independent
    probability of voting the ground truth.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        jury_size: int = 5,
        juror_accuracy: float = 0.75,
        capacity_per_epoch: int = 100,
    ):
        if jury_size < 1 or jury_size % 2 == 0:
            raise ModerationError(
                f"jury_size must be odd and >= 1, got {jury_size}"
            )
        if not 0 <= juror_accuracy <= 1:
            raise ModerationError(
                f"juror_accuracy must be in [0, 1], got {juror_accuracy}"
            )
        self._rng = rng
        self._size = jury_size
        self._accuracy = juror_accuracy
        self.capacity_per_epoch = capacity_per_epoch

    def review(self, case: ModerationCase, time: float) -> bool:
        truth = case.interaction.abusive
        votes_for_truth = int(
            (self._rng.random(self._size) < self._accuracy).sum()
        )
        majority_says_truth = votes_for_truth > self._size // 2
        verdict = truth if majority_says_truth else not truth
        case.decide(verdict, time, decider=f"jury-{self._size}")
        return verdict


@dataclass(frozen=True)
class ModerationScore:
    """Precision/recall/latency of a moderation configuration."""

    abusive_delivered: int
    upheld_cases: int
    upheld_correct: int
    dismissed_cases: int
    open_backlog: int
    mean_latency: float

    @property
    def precision(self) -> float:
        if self.upheld_cases == 0:
            return 0.0
        return self.upheld_correct / self.upheld_cases

    @property
    def recall(self) -> float:
        if self.abusive_delivered == 0:
            return 0.0
        return min(1.0, self.upheld_correct / self.abusive_delivered)


class ModerationService:
    """The full pipeline: detection → queue → review → sanction.

    Parameters
    ----------
    classifier:
        Optional automated detector; None disables automated flagging.
    report_desk:
        Optional report channel; None disables user reports.
    reviewer:
        Queue processor (human pool or jury).  If None *and* a
        classifier is present, automated flags act directly without
        review ("banning inappropriate posts" full automation).
    sanctions:
        Where upheld cases land.
    obs:
        Optional observability instrumentation; the report → verdict →
        sanction path emits spans and events.
    """

    def __init__(
        self,
        sanctions: GraduatedSanctionPolicy,
        classifier: Optional[AbuseClassifier] = None,
        report_desk: Optional[ReportDesk] = None,
        reviewer: Optional[object] = None,
        obs: Optional[Instrumentation] = None,
    ):
        if classifier is None and report_desk is None:
            raise ModerationError(
                "a moderation service needs at least one detection channel"
            )
        self._sanctions = sanctions
        self._classifier = classifier
        self._report_desk = report_desk
        self._reviewer = reviewer
        self._obs = obs if obs is not None else NULL_OBS
        # FIFO review queue: deque gives O(1) dequeue, so draining never
        # rescans (a list's pop(0) is O(backlog) per case — quadratic
        # under sustained burst load).
        self._queue: Deque[ModerationCase] = deque()
        self._cases: List[ModerationCase] = []
        self._case_counter = itertools.count()
        self._seen_interactions: set = set()

    # ------------------------------------------------------------------
    # Epoch processing
    # ------------------------------------------------------------------
    def process_epoch(self, interactions: Sequence[Interaction], time: float) -> None:
        """Ingest one epoch of interactions and run review capacity."""
        delivered = [i for i in interactions if i.delivered]

        with self._obs.span(
            "moderation",
            "epoch.process",
            time=time,
            delivered=len(delivered),
        ) as span:
            if self._classifier is not None:
                flags = self._classifier.flag_batch(delivered)
                for interaction, flagged in zip(delivered, flags):
                    if flagged:
                        case = self._open_case(interaction, CaseSource.AUTOMATED, time)
                        if case is not None and self._reviewer is None:
                            # Full automation: the flag is the verdict.
                            case.decide(True, time, decider="auto")
                            self._emit_verdict(case, time)
                            self._apply_sanction(
                                interaction.initiator,
                                time,
                                case_id=case.case_id,
                                reason="automated flag",
                            )

            if self._report_desk is not None:
                for interaction in self._report_desk.collect(delivered):
                    self._obs.counter("moderation.reports_filed").inc()
                    self._obs.event(
                        "moderation",
                        "report.filed",
                        time=time,
                        reporter=interaction.target,
                        accused=interaction.initiator,
                    )
                    self._open_case(interaction, CaseSource.REPORT, time)

            reviewed = self._drain_queue(time)
            span.set_attribute("reviewed", reviewed)
            span.set_attribute("backlog", len(self._queue))

    def process_batch(
        self, batch: InteractionBatch, time: float
    ) -> Dict[str, int]:
        """Ingest one columnar epoch at population scale.

        The scale-safe sibling of :meth:`process_epoch`: classification
        and report willingness are single vectorized draws over the
        whole batch (classifier first, then the report desk), and
        :meth:`process_prepared` does the stateful rest, materialising
        :class:`Interaction` objects only for the (few) rows that
        actually become cases.  Returns a summary of what happened this
        epoch.
        """
        flagged_rows = np.empty(0, dtype=np.int64)
        if self._classifier is not None:
            delivered_rows = np.flatnonzero(batch.delivered)
            if delivered_rows.size:
                flags = self._classifier.flag_array(
                    batch.abusive[delivered_rows]
                )
                flagged_rows = delivered_rows[flags]
        report_rows = np.empty(0, dtype=np.int64)
        if self._report_desk is not None:
            report_rows = self._report_desk.collect_batch(batch)
        return self.process_prepared(batch, flagged_rows, report_rows, time)

    def file_report(
        self, interaction: Interaction, time: float
    ) -> Optional[ModerationCase]:
        """Direct report intake for the online serving tier.

        One user report about one interaction, outside any epoch batch:
        emits the same trace events as the batched report path and opens
        a REPORT case (None when the interaction already has one — the
        duplicate-report path the serving tier surfaces as a refusal).
        Review capacity is *not* consumed here; the serving tier drains
        the queue on its periodic review tick via :meth:`run_review`.
        """
        self._obs.counter("moderation.reports_filed").inc()
        self._obs.event(
            "moderation",
            "report.filed",
            time=time,
            reporter=interaction.target,
            accused=interaction.initiator,
        )
        return self._open_case(interaction, CaseSource.REPORT, time)

    def run_review(self, time: float) -> int:
        """Apply one review-capacity slice to the queue (serving tier's
        periodic drain — the moderation sibling of block production)."""
        return self._drain_queue(time)

    def process_prepared(
        self,
        batch: InteractionBatch,
        flagged_rows: np.ndarray,
        report_rows: np.ndarray,
        time: float,
    ) -> Dict[str, int]:
        """Ingest a batch whose detection draws already happened elsewhere.

        The parallel load workload runs classification and report
        willingness *inside shard workers* (each shard owns its stream);
        what arrives here is the batch plus the resulting verdict rows.
        This method performs only the **stateful** part of
        :meth:`process_batch` — case opening, the FIFO queue, bounded
        review, sanctions — which must stay serial at the epoch barrier
        because case ids and sanction escalation depend on arrival
        order.  Rows must index into ``batch`` and be presented in the
        deterministic merged order.
        """
        delivered_rows = np.flatnonzero(batch.delivered)

        with self._obs.span(
            "moderation",
            "batch.process",
            time=time,
            delivered=int(delivered_rows.size),
        ) as span:
            opened = 0
            for row in flagged_rows:
                interaction = batch.interaction_at(int(row))
                case = self._open_case(interaction, CaseSource.AUTOMATED, time)
                if case is None:
                    continue
                opened += 1
                if self._reviewer is None:
                    case.decide(True, time, decider="auto")
                    self._emit_verdict(case, time)
                    self._apply_sanction(
                        interaction.initiator,
                        time,
                        case_id=case.case_id,
                        reason="automated flag",
                    )

            reported = int(len(report_rows))
            if reported:
                self._obs.counter("moderation.reports_filed").inc(reported)
            for row in report_rows:
                interaction = batch.interaction_at(int(row))
                if self._open_case(
                    interaction, CaseSource.REPORT, time
                ) is not None:
                    opened += 1

            reviewed = self._drain_queue(time)
            span.set_attribute("flagged", int(len(flagged_rows)))
            span.set_attribute("reviewed", reviewed)
            span.set_attribute("backlog", len(self._queue))

        return {
            "delivered": int(delivered_rows.size),
            "flagged": int(len(flagged_rows)),
            "reported": reported,
            "opened": opened,
            "reviewed": reviewed,
            "backlog": len(self._queue),
        }

    def _open_case(
        self, interaction: Interaction, source: CaseSource, time: float
    ) -> Optional[ModerationCase]:
        key = AbuseClassifier._key(interaction)
        if key in self._seen_interactions:
            return None  # one case per interaction
        self._seen_interactions.add(key)
        case = ModerationCase(
            case_id=f"case-{next(self._case_counter):06d}",
            interaction=interaction,
            source=source,
            opened_at=time,
        )
        self._cases.append(case)
        if self._reviewer is not None:
            self._queue.append(case)
        self._obs.counter(f"moderation.cases_opened.{source.value}").inc()
        self._obs.event(
            "moderation",
            "case.opened",
            time=time,
            case_id=case.case_id,
            case_source=source.value,
            accused=interaction.initiator,
        )
        return case

    def _drain_queue(self, time: float) -> int:
        if self._reviewer is None:
            return 0
        capacity = getattr(self._reviewer, "capacity_per_epoch", 0)
        processed = 0
        while self._queue and processed < capacity:
            case = self._queue.popleft()
            verdict = self._reviewer.review(case, time)
            self._emit_verdict(case, time)
            if verdict:
                self._apply_sanction(
                    case.interaction.initiator,
                    time,
                    case_id=case.case_id,
                    reason=f"{case.source.value} case upheld",
                )
            processed += 1
        return processed

    def _emit_verdict(self, case: ModerationCase, time: float) -> None:
        self._obs.counter(f"moderation.verdicts.{case.status.value}").inc()
        if case.latency is not None:
            self._obs.histogram("moderation.case_latency").observe(case.latency)
        self._obs.event(
            "moderation",
            "case.decided",
            time=time,
            case_id=case.case_id,
            verdict=case.status.value,
            decided_by=case.decided_by,
        )

    def _apply_sanction(
        self, subject: str, time: float, case_id: str, reason: str
    ) -> None:
        self._sanctions.apply(subject, time, case_id=case_id, reason=reason)
        self._obs.counter("moderation.sanctions_applied").inc()
        self._obs.event(
            "moderation",
            "sanction.applied",
            time=time,
            subject=subject,
            case_id=case_id,
            reason=reason,
        )

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    @property
    def cases(self) -> List[ModerationCase]:
        return list(self._cases)

    @property
    def backlog(self) -> int:
        return len(self._queue)

    def score(self, all_interactions: Sequence[Interaction]) -> ModerationScore:
        """Score against ground truth over ``all_interactions``."""
        abusive_delivered = sum(
            1 for i in all_interactions if i.delivered and i.abusive
        )
        upheld = [c for c in self._cases if c.status is CaseStatus.UPHELD]
        dismissed = [c for c in self._cases if c.status is CaseStatus.DISMISSED]
        upheld_correct = sum(1 for c in upheld if c.interaction.abusive)
        latencies = [c.latency for c in upheld + dismissed if c.latency is not None]
        return ModerationScore(
            abusive_delivered=abusive_delivered,
            upheld_cases=len(upheld),
            upheld_correct=upheld_correct,
            dismissed_cases=len(dismissed),
            open_backlog=self.backlog,
            mean_latency=float(np.mean(latencies)) if latencies else 0.0,
        )
