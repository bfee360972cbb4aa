"""Tests for the Fig.-2 data-centric privacy pipeline."""

import numpy as np
import pytest

from repro.privacy import (
    ConsentRegistry,
    GaitSensor,
    GazeSensor,
    LaplaceMechanism,
    PrivacyBudget,
    PrivacyPipeline,
    SpatialMapSensor,
    Suppressor,
    UserProfile,
)
from repro.privacy.sensors import FrameBatch


@pytest.fixture
def user():
    return UserProfile("u1", preference=0, fitness=0.5, stress=0.5)


@pytest.fixture
def gaze(rngs):
    return GazeSensor(rngs.stream("g"))


def consenting_pipeline(user, channels=("gaze",), **kwargs):
    consent = ConsentRegistry()
    for channel in channels:
        consent.grant(user.user_id, channel)
    return PrivacyPipeline(consent=consent, **kwargs)


class TestConsentGate:
    def test_unconsented_frame_blocked(self, user, gaze):
        pipeline = PrivacyPipeline()
        assert pipeline.ingest(gaze.sample(user, 0.0)) is None
        assert pipeline.stats.blocked_consent == 1
        assert pipeline.stats.released == 0

    def test_consented_frame_released(self, user, gaze):
        pipeline = consenting_pipeline(user)
        out = pipeline.ingest(gaze.sample(user, 0.0))
        assert out is not None
        assert pipeline.stats.released == 1
        assert pipeline.stats.release_rate == 1.0


class TestPetStage:
    def test_configured_pet_applied(self, rngs, user, gaze):
        pipeline = consenting_pipeline(user)
        pipeline.set_pet("gaze", LaplaceMechanism(1.0, rngs.stream("n")))
        out = pipeline.ingest(gaze.sample(user, 0.0))
        assert out.pet_applied == ["laplace"]

    def test_default_is_passthrough(self, user, gaze):
        pipeline = consenting_pipeline(user)
        out = pipeline.ingest(gaze.sample(user, 0.0))
        assert out.pet_applied == ["passthrough"]

    def test_suppression_counted(self, user, gaze):
        pipeline = consenting_pipeline(user)
        pipeline.set_pet("gaze", Suppressor())
        assert pipeline.ingest(gaze.sample(user, 0.0)) is None
        assert pipeline.stats.suppressed == 1


class TestBudgetStage:
    def test_budget_blocks_after_exhaustion(self, rngs, user, gaze):
        budget = PrivacyBudget(default_cap=2.5)
        pipeline = consenting_pipeline(user, budget=budget)
        pipeline.set_pet("gaze", LaplaceMechanism(1.0, rngs.stream("n")))
        released = [
            pipeline.ingest(gaze.sample(user, float(t))) is not None
            for t in range(4)
        ]
        assert released == [True, True, False, False]
        assert pipeline.stats.blocked_budget == 2

    def test_non_dp_pets_cost_nothing(self, user, gaze):
        budget = PrivacyBudget(default_cap=0.001)
        pipeline = consenting_pipeline(user, budget=budget)
        for t in range(5):
            assert pipeline.ingest(gaze.sample(user, float(t))) is not None


class TestDisclosure:
    def test_led_transitions_per_release(self, user, gaze):
        pipeline = consenting_pipeline(user)
        pipeline.ingest(gaze.sample(user, 1.0))
        assert not pipeline.indicator.is_on  # off after the release
        assert pipeline.indicator.transitions == [(1.0, True), (1.0, False)]

    def test_led_untouched_for_blocked_frames(self, user, gaze):
        pipeline = PrivacyPipeline()  # no consent
        pipeline.ingest(gaze.sample(user, 1.0))
        assert pipeline.indicator.transitions == []


class TestBystanderScrubbing:
    def test_bystander_hits_removed(self, rngs, user):
        sensor = SpatialMapSensor(rngs.stream("s"), bystanders_nearby=5)
        pipeline = consenting_pipeline(user, channels=("spatial_map",))
        # Find a frame with captures.
        frame = None
        for t in range(50):
            candidate = sensor.sample(user, float(t))
            if candidate.metadata["bystanders_captured"] > 0:
                frame = candidate
                break
        assert frame is not None
        out = pipeline.ingest(frame)
        assert out.metadata["bystanders_captured"] == 0
        assert out.metadata["bystanders_scrubbed"] is True
        assert pipeline.stats.bystander_scrubbed == 1


class TestConsumersAndAudit:
    def test_consumers_receive_sanitised_frames(self, rngs, user, gaze):
        pipeline = consenting_pipeline(user)
        pipeline.set_pet("gaze", LaplaceMechanism(1.0, rngs.stream("n")))
        received = []
        pipeline.subscribe("gaze", received.append)
        pipeline.ingest(gaze.sample(user, 0.0))
        assert len(received) == 1
        assert received[0].pet_applied == ["laplace"]

    def test_audit_hook_called_per_release(self, user, gaze):
        audited = []
        pipeline = consenting_pipeline(user)
        pipeline._audit_hook = lambda frame, pet: audited.append(pet)
        pipeline.ingest(gaze.sample(user, 0.0))
        assert audited == ["passthrough"]

    def test_blocked_frames_not_audited(self, user, gaze):
        audited = []
        pipeline = PrivacyPipeline(audit_hook=lambda f, p: audited.append(p))
        pipeline.ingest(gaze.sample(user, 0.0))  # no consent
        assert audited == []

    def test_ingest_all_returns_released_only(self, user, gaze):
        pipeline = consenting_pipeline(user)
        other = UserProfile("u2", preference=0, fitness=0.5, stress=0.5)
        frames = [gaze.sample(user, 0.0), gaze.sample(other, 0.0)]
        released = pipeline.ingest_all(frames)
        assert len(released) == 1
        assert pipeline.stats.offered == 2


class TestConsentDenialCount:
    """Every refused frame counts one denial, whichever path ingests it."""

    @staticmethod
    def _frames(user, gaze):
        # Five gaze frames of a subject who never consented, around two
        # of a consenting one.
        other = UserProfile("u2", preference=0, fitness=0.5, stress=0.5)
        return (
            [gaze.sample(other, float(t)) for t in range(3)]
            + [gaze.sample(user, 3.0)]
            + [gaze.sample(other, float(t)) for t in range(4, 6)]
            + [gaze.sample(user, 6.0)]
        )

    def _by_path(self, user, gaze):
        frames = self._frames(user, gaze)
        one_by_one = consenting_pipeline(user)
        for frame in frames:
            one_by_one.ingest(frame)
        listed = consenting_pipeline(user)
        listed.ingest_all(frames)
        batched = consenting_pipeline(user)
        batched.ingest_all(
            FrameBatch(
                subjects=[f.subject for f in frames],
                channels=[f.channel for f in frames],
                times=np.array([f.time for f in frames]),
                values=np.stack([f.values for f in frames]),
            )
        )
        return one_by_one, listed, batched

    def test_denied_count_per_frame_on_every_path(self, user, gaze):
        for pipeline in self._by_path(user, gaze):
            assert pipeline.consent.denied_count == 5
            assert pipeline.stats.blocked_consent == 5
            assert pipeline.stats.released == 2

    def test_counts_add_up_over_batches(self, user, gaze):
        _, listed, _ = self._by_path(user, gaze)
        frames = self._frames(user, gaze)
        listed.ingest_all(frames)  # cached verdicts are per batch
        listed.ingest(frames[0])
        assert listed.consent.denied_count == 11


class TestBatchedIngest:
    def test_single_channel_batch_matches_sequential(self, user, rngs):
        # Same PET stream + same per-channel order → identical releases.
        def build(tag):
            pipeline = consenting_pipeline(
                user, budget=PrivacyBudget(default_cap=1.2)
            )
            pipeline.set_pet(
                "gaze", LaplaceMechanism(0.5, rngs.fresh(f"pet-{tag}"))
            )
            return pipeline

        sensor = GazeSensor(rngs.fresh("batch-gaze"))
        frames = [sensor.sample(user, float(t)) for t in range(4)]

        seq = build("eq")
        seq_released = [f for f in map(seq.ingest, frames) if f is not None]
        bat = build("eq")
        bat_released = bat.ingest_all(frames)

        assert len(bat_released) == len(seq_released)
        for a, b in zip(seq_released, bat_released):
            assert a.subject == b.subject and a.time == b.time
            assert list(a.values) == list(b.values)
        assert vars(bat.stats) == vars(seq.stats)
        # Budget refused the tail of the burst in both paths.
        assert bat.stats.blocked_budget == seq.stats.blocked_budget > 0

    def test_multi_channel_batch_counts(self, user, rngs):
        pipeline = consenting_pipeline(
            user, channels=("gaze", "spatial_map"),
            budget=PrivacyBudget(default_cap=2.0),
        )
        pipeline.set_pet(
            "gaze", LaplaceMechanism(0.6, rngs.fresh("mc-pet-gaze"))
        )
        gaze_sensor = GazeSensor(rngs.fresh("mc-gaze"))
        spatial = SpatialMapSensor(rngs.fresh("mc-spatial"))
        other = UserProfile("u-other", preference=0, fitness=0.5, stress=0.5)
        frames = []
        for t in range(5):
            frames.append(gaze_sensor.sample(user, float(t)))
            frames.append(spatial.sample(user, float(t)))
            frames.append(gaze_sensor.sample(other, float(t)))  # no consent
        released = pipeline.ingest_all(frames)

        assert pipeline.stats.offered == len(frames)
        assert pipeline.stats.blocked_consent == 5
        # gaze: 2.0 cap / 0.6 per frame → 3 releases then refusals.
        assert pipeline.stats.blocked_budget == 2
        assert pipeline.stats.released == len(released) == 3 + 5

    def test_released_frames_keep_offered_order(self, user, rngs):
        pipeline = consenting_pipeline(user, channels=("gaze", "spatial_map"))
        gaze_sensor = GazeSensor(rngs.fresh("order-gaze"))
        spatial = SpatialMapSensor(rngs.fresh("order-spatial"))
        frames = []
        for t in range(3):
            frames.append(gaze_sensor.sample(user, float(t)))
            frames.append(spatial.sample(user, float(t)))
        released = pipeline.ingest_all(frames)
        # Passthrough PETs release everything — interleaving preserved.
        assert [(f.channel, f.time) for f in released] == [
            (f.channel, f.time) for f in frames
        ]

    def test_empty_batch_is_noop(self, user):
        pipeline = consenting_pipeline(user)
        assert pipeline.ingest_all([]) == []
        assert pipeline.stats.offered == 0


class TestBatchMetering:
    """ingest_all meters DP survivors as the per-frame ingest does."""

    def test_ledger_rows_keep_each_frames_time(self, user, rngs):
        def build():
            pipeline = consenting_pipeline(user)
            pipeline.set_pet("gaze", LaplaceMechanism(0.5, rngs.fresh("meter-t")))
            return pipeline

        sensor = GazeSensor(rngs.fresh("meter-t-gaze"))
        frames = [sensor.sample(user, float(t)) for t in (1, 2, 3)]
        seq, bat = build(), build()
        for frame in frames:
            seq.ingest(frame)
        bat.ingest_all(frames)
        assert [e.time for e in seq.budget.ledger] == [1.0, 2.0, 3.0]
        assert bat.budget.ledger == seq.budget.ledger

    def test_two_dp_channels_meter_in_offered_order(self, user, rngs):
        def build():
            pipeline = consenting_pipeline(
                user,
                channels=("gait", "gaze"),
                budget=PrivacyBudget(default_cap=1.1),
            )
            pipeline.set_pet("gait", LaplaceMechanism(0.5, rngs.fresh("oo-gait")))
            pipeline.set_pet("gaze", LaplaceMechanism(0.6, rngs.fresh("oo-gaze")))
            return pipeline

        gait = GaitSensor(rngs.fresh("oo-gait-sensor"))
        gaze = GazeSensor(rngs.fresh("oo-gaze-sensor"))
        frames = [
            gait.sample(user, 0.0),
            gaze.sample(user, 1.0),
            gait.sample(user, 2.0),
        ]
        seq, bat = build(), build()
        seq_released = [f for f in map(seq.ingest, frames) if f is not None]
        bat_released = bat.ingest_all(frames)
        assert [f.channel for f in seq_released] == ["gait", "gaze"]
        assert [(f.channel, f.time) for f in bat_released] == [
            (f.channel, f.time) for f in seq_released
        ]
        assert bat.budget.ledger == seq.budget.ledger
        assert vars(bat.stats) == vars(seq.stats)
