"""Tests for the moderation pipeline."""

import pytest

from repro.errors import ModerationError
from repro.governance import (
    AbuseClassifier,
    CaseStatus,
    GraduatedSanctionPolicy,
    HumanModeratorPool,
    Jury,
    ModerationService,
    ReportDesk,
)
from repro.world import World
from repro.world.interactions import Interaction


@pytest.fixture
def world():
    w = World("mw", size=10.0)
    for name in ("perp", "victim", "bystander"):
        w.spawn(name, (1.0, 1.0))
    return w


@pytest.fixture
def sanctions(world):
    return GraduatedSanctionPolicy(world)


def abuse(time=0.0, initiator="perp", target="victim"):
    return Interaction(
        time=time, initiator=initiator, target=target,
        kind="shout", abusive=True,
    )


def benign(time=0.0, initiator="bystander", target="victim"):
    return Interaction(
        time=time, initiator=initiator, target=target, kind="chat",
    )


class TestClassifier:
    def test_perfect_classifier(self, rngs):
        classifier = AbuseClassifier(
            rngs.stream("c"), true_positive_rate=1.0, false_positive_rate=0.0
        )
        assert classifier.flag(abuse())
        assert not classifier.flag(benign())

    def test_flag_cached_per_interaction(self, rngs):
        classifier = AbuseClassifier(
            rngs.stream("c"), true_positive_rate=0.5, false_positive_rate=0.5
        )
        event = abuse()
        assert classifier.flag(event) == classifier.flag(event)

    def test_rates_validated(self, rngs):
        with pytest.raises(ModerationError):
            AbuseClassifier(rngs.stream("c"), true_positive_rate=1.5)


class TestReportDesk:
    def test_only_delivered_abuse_reportable(self, rngs):
        desk = ReportDesk(rngs.stream("r"), report_probability=1.0)
        blocked = Interaction(
            time=0.0, initiator="perp", target="victim", kind="shout",
            abusive=True, delivered=False, blocked_by="bubble",
        )
        reports = desk.collect([abuse(), benign(), blocked])
        assert len(reports) == 1

    def test_report_probability_zero(self, rngs):
        desk = ReportDesk(rngs.stream("r"), report_probability=0.0)
        assert desk.collect([abuse()]) == []


class TestReviewers:
    def test_human_review_decides_case(self, rngs, sanctions):
        service = ModerationService(
            sanctions,
            report_desk=ReportDesk(rngs.stream("r"), report_probability=1.0),
            reviewer=HumanModeratorPool(
                rngs.stream("h"), capacity_per_epoch=10, accuracy=1.0
            ),
        )
        service.process_epoch([abuse()], time=0.0)
        assert len(service.cases) == 1
        assert service.cases[0].status is CaseStatus.UPHELD
        assert service.cases[0].decided_by == "human"

    def test_jury_majority(self, rngs, sanctions):
        service = ModerationService(
            sanctions,
            report_desk=ReportDesk(rngs.stream("r"), report_probability=1.0),
            reviewer=Jury(
                rngs.stream("j"), jury_size=5, juror_accuracy=1.0,
                capacity_per_epoch=10,
            ),
        )
        service.process_epoch([abuse()], time=0.0)
        assert service.cases[0].status is CaseStatus.UPHELD
        assert service.cases[0].decided_by == "jury-5"

    def test_even_jury_rejected(self, rngs):
        with pytest.raises(ModerationError):
            Jury(rngs.stream("j"), jury_size=4)

    def test_capacity_creates_backlog(self, rngs, sanctions):
        service = ModerationService(
            sanctions,
            report_desk=ReportDesk(rngs.stream("r"), report_probability=1.0),
            reviewer=HumanModeratorPool(rngs.stream("h"), capacity_per_epoch=2),
        )
        events = [abuse(time=float(i)) for i in range(6)]
        service.process_epoch(events, time=1.0)
        assert service.backlog == 4
        service.process_epoch([], time=2.0)
        assert service.backlog == 2


class TestServiceConfigs:
    def test_needs_a_detection_channel(self, sanctions):
        with pytest.raises(ModerationError):
            ModerationService(sanctions)

    def test_full_automation_acts_without_review(self, rngs, sanctions, world):
        service = ModerationService(
            sanctions,
            classifier=AbuseClassifier(
                rngs.stream("c"), true_positive_rate=1.0, false_positive_rate=0.0
            ),
        )
        service.process_epoch([abuse()], time=0.0)
        case = service.cases[0]
        assert case.status is CaseStatus.UPHELD
        assert case.decided_by == "auto"
        assert sanctions.offence_count("perp") == 1

    def test_one_case_per_interaction(self, rngs, sanctions):
        service = ModerationService(
            sanctions,
            classifier=AbuseClassifier(
                rngs.stream("c"), true_positive_rate=1.0, false_positive_rate=0.0
            ),
            report_desk=ReportDesk(rngs.stream("r"), report_probability=1.0),
            reviewer=HumanModeratorPool(rngs.stream("h")),
        )
        event = abuse()
        service.process_epoch([event], time=0.0)
        assert len(service.cases) == 1  # flagged AND reported → one case

    def test_dismissed_case_no_sanction(self, rngs, sanctions):
        service = ModerationService(
            sanctions,
            report_desk=ReportDesk(rngs.stream("r"), report_probability=1.0),
            reviewer=HumanModeratorPool(
                rngs.stream("h"), capacity_per_epoch=10, accuracy=0.0
            ),  # always wrong: will dismiss true abuse
        )
        service.process_epoch([abuse()], time=0.0)
        assert service.cases[0].status is CaseStatus.DISMISSED
        assert sanctions.offence_count("perp") == 0


class TestScoring:
    def test_precision_recall(self, rngs, sanctions):
        classifier = AbuseClassifier(
            rngs.stream("c"), true_positive_rate=1.0, false_positive_rate=0.0
        )
        service = ModerationService(sanctions, classifier=classifier)
        events = [abuse(time=float(i)) for i in range(4)] + [
            benign(time=float(i)) for i in range(6)
        ]
        service.process_epoch(events, time=0.0)
        score = service.score(events)
        assert score.precision == 1.0
        assert score.recall == 1.0
        assert score.abusive_delivered == 4

    def test_false_positives_hurt_precision(self, rngs, sanctions):
        classifier = AbuseClassifier(
            rngs.stream("c"), true_positive_rate=1.0, false_positive_rate=1.0
        )
        service = ModerationService(sanctions, classifier=classifier)
        events = [abuse()] + [benign(time=float(i)) for i in range(3)]
        service.process_epoch(events, time=0.0)
        score = service.score(events)
        assert score.precision == 0.25

    def test_latency_measured(self, rngs, sanctions):
        service = ModerationService(
            sanctions,
            report_desk=ReportDesk(rngs.stream("r"), report_probability=1.0),
            reviewer=HumanModeratorPool(rngs.stream("h"), capacity_per_epoch=1),
        )
        events = [abuse(time=0.0), abuse(time=0.0, initiator="bystander")]
        service.process_epoch(events, time=0.0)   # one reviewed at t=0
        service.process_epoch([], time=5.0)       # second reviewed at t=5
        score = service.score(events)
        assert score.mean_latency == pytest.approx(2.5)

    def test_empty_score_safe(self, rngs, sanctions):
        service = ModerationService(
            sanctions,
            report_desk=ReportDesk(rngs.stream("r")),
        )
        score = service.score([])
        assert score.precision == 0.0
        assert score.recall == 0.0


class TestBatchedClassification:
    def mixed_interactions(self, n=40):
        out = []
        for t in range(n):
            if t % 3 == 0:
                out.append(abuse(time=float(t), initiator=f"p{t}"))
            else:
                out.append(benign(time=float(t), initiator=f"b{t}"))
        return out

    def test_flag_batch_matches_scalar_stream(self, rngs):
        interactions = self.mixed_interactions()
        scalar = AbuseClassifier(
            rngs.fresh("batch-eq"), true_positive_rate=0.7,
            false_positive_rate=0.2,
        )
        batched = AbuseClassifier(
            rngs.fresh("batch-eq"), true_positive_rate=0.7,
            false_positive_rate=0.2,
        )
        expected = [scalar.flag(i) for i in interactions]
        assert list(batched.flag_batch(interactions)) == expected

    def test_flag_batch_respects_cache_and_duplicates(self, rngs):
        classifier = AbuseClassifier(
            rngs.fresh("batch-cache"), true_positive_rate=0.5,
            false_positive_rate=0.5,
        )
        event = abuse()
        first = classifier.flag(event)
        # Duplicates in one batch and across calls reuse the cached draw.
        flags = classifier.flag_batch([event, event, benign(), event])
        assert flags[0] == flags[1] == flags[3] == first
        assert list(classifier.flag_batch([event])) == [first]

    def test_flag_array_matches_scalar_draw_loop(self, rngs):
        import numpy as np

        abusive = np.array([True, False, True, True, False] * 8)
        vec = AbuseClassifier(
            rngs.fresh("array-eq"), true_positive_rate=0.8,
            false_positive_rate=0.05,
        ).flag_array(abusive)
        rng = rngs.fresh("array-eq")
        loop = [rng.random() < (0.8 if a else 0.05) for a in abusive]
        assert list(vec) == loop

    def test_collect_batch_matches_collect(self, rngs):
        from repro.workloads.generators import synthetic_interaction_batch

        batch = synthetic_interaction_batch(
            50, 200, time=0.0, rng=rngs.fresh("desk-batch"),
            abusive_rate=0.3, undelivered_rate=0.2,
        )
        desk_rows = ReportDesk(rngs.fresh("desk-eq"), report_probability=0.5)
        desk_objs = ReportDesk(rngs.fresh("desk-eq"), report_probability=0.5)
        rows = list(desk_rows.collect_batch(batch))
        materialised = [batch.interaction_at(i) for i in range(len(batch))]
        reported = desk_objs.collect(materialised)
        assert [batch.interaction_at(r).initiator for r in rows] == [
            i.initiator for i in reported
        ]


class TestBatchedService:
    def test_process_batch_without_world(self, rngs):
        from repro.workloads.generators import synthetic_interaction_batch

        sanctions = GraduatedSanctionPolicy(world=None)
        service = ModerationService(
            sanctions=sanctions,
            classifier=AbuseClassifier(rngs.fresh("pb-clf")),
            report_desk=ReportDesk(rngs.fresh("pb-desk")),
            reviewer=HumanModeratorPool(
                rngs.fresh("pb-rev"), capacity_per_epoch=10
            ),
        )
        batch = synthetic_interaction_batch(
            100, 500, time=0.0, rng=rngs.fresh("pb-batch"),
            abusive_rate=0.2,
        )
        summary = service.process_batch(batch, time=0.0)
        assert summary["delivered"] <= len(batch)
        assert summary["opened"] > 0
        assert summary["reviewed"] == 10
        assert summary["backlog"] == service.backlog
        # Upheld cases landed sanctions keyed by synthetic agent ids.
        if any(c.status is CaseStatus.UPHELD for c in service.cases):
            assert sanctions.records

    @pytest.mark.parametrize("reviewed", [True, False], ids=["review", "auto"])
    def test_process_batch_matches_process_prepared(self, rngs, reviewed):
        # process_batch draws the classifier, then the report desk, and
        # hands the rows to process_prepared; the same draws made by
        # hand and fed to process_prepared must give the same run.
        import numpy as np

        from repro.workloads.generators import synthetic_interaction_batch

        def service():
            sanctions = GraduatedSanctionPolicy(world=None)
            reviewer = HumanModeratorPool(
                rngs.fresh("eq-rev"), capacity_per_epoch=10
            ) if reviewed else None
            return sanctions, ModerationService(
                sanctions=sanctions,
                classifier=AbuseClassifier(rngs.fresh("eq-clf")),
                report_desk=ReportDesk(rngs.fresh("eq-desk")),
                reviewer=reviewer,
            )

        batch_sanctions, batch_service = service()
        prep_sanctions, prep_service = service()
        classifier = AbuseClassifier(rngs.fresh("eq-clf"))
        desk = ReportDesk(rngs.fresh("eq-desk"))
        stream = rngs.fresh("eq-batch")
        for epoch in range(4):
            batch = synthetic_interaction_batch(
                40, 300, time=float(epoch), rng=stream, abusive_rate=0.2,
            )
            delivered = np.flatnonzero(batch.delivered)
            flagged = delivered[classifier.flag_array(batch.abusive[delivered])]
            reported = desk.collect_batch(batch)
            assert batch_service.process_batch(
                batch, time=float(epoch)
            ) == prep_service.process_prepared(
                batch, flagged, reported, time=float(epoch)
            )
        cases = [
            [(c.case_id, c.source, c.status) for c in s.cases]
            for s in (batch_service, prep_service)
        ]
        assert cases[0] == cases[1] and cases[0]
        assert batch_sanctions.records == prep_sanctions.records
        assert batch_sanctions.records

    def test_backlog_drains_fifo_under_burst(self, rngs):
        sanctions = GraduatedSanctionPolicy(world=None)
        service = ModerationService(
            sanctions=sanctions,
            classifier=AbuseClassifier(
                rngs.fresh("burst-clf"), true_positive_rate=1.0,
                false_positive_rate=0.0,
            ),
            reviewer=HumanModeratorPool(
                rngs.fresh("burst-rev"), capacity_per_epoch=5
            ),
        )
        burst = [
            abuse(time=0.0, initiator=f"perp-{i}") for i in range(23)
        ]
        service.process_epoch(burst, time=0.0)
        assert service.backlog == 23 - 5
        # Quiet epochs drain the queue at capacity, oldest first.
        for epoch in range(1, 5):
            service.process_epoch([], time=float(epoch))
        assert service.backlog == 0
        decided = [c for c in service.cases if c.decided_at is not None]
        order = [c.decided_at for c in decided]
        assert order == sorted(order)
        # FIFO: within the burst, case ids decide in opening order.
        ids = [c.case_id for c in decided]
        assert ids == sorted(ids)
