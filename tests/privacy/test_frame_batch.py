"""The columnar batch path against its per-frame reference.

``PrivacyPipeline.ingest_all`` on a :class:`FrameBatch` (or a frame
list) must give every frame the fate ``ingest`` gives it, frame by
frame: the same released frames bit for bit, stats, budget ledger rows
and LED transitions, for every PET in ``repro.privacy.pets``.
"""

import numpy as np
import pytest

from repro.errors import PrivacyError
from repro.privacy import (
    Aggregator,
    ConsentRegistry,
    FrameBatch,
    GaussianMechanism,
    LaplaceMechanism,
    Passthrough,
    PETChain,
    PrivacyBudget,
    PrivacyPipeline,
    SensorFrame,
    SpatialGeneralizer,
    SpatialMapSensor,
    Suppressor,
    TemporalDownsampler,
    UserProfile,
)

# Each factory gets one generator; chains with two DP members share it,
# so the batch path must keep the per-frame draw order.
PETS = {
    "passthrough": lambda rng: Passthrough(),
    "laplace": lambda rng: LaplaceMechanism(0.4, rng),
    "gaussian": lambda rng: GaussianMechanism(0.4, rng),
    "downsample": lambda rng: TemporalDownsampler(3),
    "spatial-generalize": lambda rng: SpatialGeneralizer(0.5),
    "aggregate": lambda rng: Aggregator(),
    "suppress": lambda rng: Suppressor(),
    "chain": lambda rng: PETChain(
        [
            TemporalDownsampler(2),
            LaplaceMechanism(0.3, rng),
            GaussianMechanism(0.5, rng),
        ]
    ),
    "chain-one-dp": lambda rng: PETChain(
        [SpatialGeneralizer(0.25), LaplaceMechanism(0.3, rng)]
    ),
    "chain-suppress": lambda rng: PETChain(
        [LaplaceMechanism(0.3, rng), Suppressor()]
    ),
}

USERS = [
    UserProfile(f"u{i}", preference=i % 3, fitness=0.5, stress=0.5)
    for i in range(3)
]
CHANNEL = "spatial_map"


def spatial_frames(rngs, count=12):
    """Spatial scans of three users (u2 never consents); most carry
    bystander hits."""
    sensor = SpatialMapSensor(rngs.fresh("batch-spatial"), bystanders_nearby=4)
    frames = [
        sensor.sample(USERS[t % len(USERS)], float(t)) for t in range(count)
    ]
    assert any(f.metadata["bystanders_captured"] for f in frames)
    return frames


def batch_of(frames):
    return FrameBatch(
        subjects=[f.subject for f in frames],
        channels=[f.channel for f in frames],
        times=np.array([f.time for f in frames]),
        values=np.stack([f.values for f in frames]),
        metadata=[f.metadata for f in frames],
    )


def build(rngs, pet_name, tag):
    consent = ConsentRegistry()
    for user in USERS[:2]:
        consent.grant(user.user_id, CHANNEL)
    audited, received = [], []
    pipeline = PrivacyPipeline(
        consent=consent,
        budget=PrivacyBudget(default_cap=1.0),
        audit_hook=lambda frame, pet: audited.append((key(frame), pet)),
    )
    pipeline.set_pet(CHANNEL, PETS[pet_name](rngs.fresh(f"pet-{tag}")))
    pipeline.subscribe(CHANNEL, received.append)
    return pipeline, audited, received


def key(frame):
    """Everything a released frame carries, values bit for bit."""
    values = np.asarray(frame.values)
    return (
        frame.channel,
        frame.subject,
        frame.time,
        values.dtype.str,
        values.shape,
        values.tobytes(),
        dict(frame.metadata),
        list(frame.pet_applied),
    )


def assert_same_pipeline(a, b):
    assert vars(a.stats) == vars(b.stats)
    assert a.budget.ledger == b.budget.ledger
    assert a.indicator.transitions == b.indicator.transitions
    assert not a.indicator.is_on and not b.indicator.is_on


@pytest.mark.parametrize("pet_name", sorted(PETS))
class TestMatchesPerFrameIngest:
    def test_frame_batch(self, rngs, pet_name):
        frames = spatial_frames(rngs)
        ref, ref_audited, ref_received = build(rngs, pet_name, pet_name)
        per_frame = [ref.ingest(frame) for frame in frames]
        bat, audited, received = build(rngs, pet_name, pet_name)
        rows = bat.ingest_all(batch_of(frames))

        assert rows.tolist() == [
            i for i, out in enumerate(per_frame) if out is not None
        ]
        assert [key(f) for f in received] == [key(f) for f in ref_received]
        assert audited == ref_audited
        assert_same_pipeline(bat, ref)
        assert ref.stats.blocked_consent > 0
        assert ref.stats.bystander_scrubbed > 0
        if "suppress" not in pet_name and ref.pet_for(CHANNEL).epsilon > 0:
            assert ref.stats.blocked_budget > 0 < ref.stats.released

    def test_frame_list(self, rngs, pet_name):
        frames = spatial_frames(rngs)
        ref, ref_audited, _ = build(rngs, pet_name, pet_name)
        per_frame = [ref.ingest(frame) for frame in frames]
        bat, audited, _ = build(rngs, pet_name, pet_name)
        released = bat.ingest_all(frames)

        assert [key(f) for f in released] == [
            key(f) for f in per_frame if f is not None
        ]
        assert audited == ref_audited
        assert_same_pipeline(bat, ref)


class TestMixedWidths:
    def test_width_changes_within_a_channel_keep_the_draw_order(self, rngs):
        user = USERS[0]

        def build_one(tag):
            consent = ConsentRegistry()
            consent.grant(user.user_id, "custom")
            pipeline = PrivacyPipeline(consent=consent)
            pipeline.set_pet("custom", LaplaceMechanism(1.0, rngs.fresh(tag)))
            return pipeline

        frames = [
            SensorFrame(
                "custom", user.user_id, float(t), np.arange(width, dtype=float)
            )
            for t, width in enumerate((2, 2, 5, 2))
        ]
        ref, bat = build_one("mixed"), build_one("mixed")
        per_frame = [ref.ingest(frame) for frame in frames]
        assert [key(f) for f in bat.ingest_all(frames)] == [
            key(f) for f in per_frame
        ]


class TestNoiseBlocks:
    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: LaplaceMechanism(0.7, rng, sensitivity=2.0),
            lambda rng: GaussianMechanism(0.7, rng, delta=1e-4),
        ],
        ids=["laplace", "gaussian"],
    )
    def test_one_block_equals_k_frame_draws(self, rngs, make):
        frames = spatial_frames(rngs, count=6)
        block_rng, frame_rng = rngs.fresh("noise"), rngs.fresh("noise")
        block = make(block_rng).apply_block(np.stack([f.values for f in frames]))
        pet = make(frame_rng)
        one_by_one = np.stack([pet.apply(f).values for f in frames])
        assert block.tobytes() == one_by_one.tobytes()
        # The generator stands at the same place afterwards.
        assert block_rng.random() == frame_rng.random()


class TestFrameBatch:
    def test_len(self, rngs):
        assert len(batch_of(spatial_frames(rngs, count=4))) == 4
        assert len(FrameBatch()) == 0

    def test_ragged_columns_rejected(self):
        with pytest.raises(PrivacyError):
            FrameBatch(
                subjects=["a", "b"],
                channels=["gaze"],
                times=np.zeros(2),
                values=np.zeros((2, 3)),
            )
        with pytest.raises(PrivacyError):
            FrameBatch(
                subjects=["a"],
                channels=["gaze"],
                times=np.zeros(1),
                values=np.zeros((1, 3)),
                metadata=[],
            )

    def test_concat_keeps_row_order(self, rngs):
        frames = spatial_frames(rngs, count=5)
        plain = FrameBatch(
            subjects=["x"],
            channels=["gaze"],
            times=np.array([9.0]),
            values=np.ones((1, frames[0].values.size)),
        )
        merged = FrameBatch.concat(
            [batch_of(frames[:2]), FrameBatch(), plain, batch_of(frames[2:])]
        )
        assert merged.subjects == [f.subject for f in frames[:2]] + ["x"] + [
            f.subject for f in frames[2:]
        ]
        assert merged.times.tolist() == [0.0, 1.0, 9.0, 2.0, 3.0, 4.0]
        assert merged.metadata[2] == {}
        assert merged.metadata[3] == frames[2].metadata
        assert np.array_equal(merged.values[3], frames[2].values)
        assert len(FrameBatch.concat([FrameBatch(), FrameBatch()])) == 0

    def test_empty_batch_is_noop(self):
        pipeline = PrivacyPipeline()
        assert pipeline.ingest_all(FrameBatch()).tolist() == []
        assert pipeline.stats.offered == 0
