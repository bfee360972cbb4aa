"""Tests for workload generators."""

import numpy as np
import pytest

from repro.workloads import (
    dao_proposal_load,
    evaluate_linkage,
    linkage_workload,
    sensor_corpus,
)
from repro.workloads.generators import synthetic_frame_burst


class TestSensorCorpus:
    def test_split_is_disjoint_by_user(self, rngs):
        corpus = sensor_corpus("gaze", 40, rngs.stream("c"))
        train_users = {f.subject for f in corpus.train_frames}
        eval_users = {f.subject for f in corpus.eval_frames}
        assert train_users.isdisjoint(eval_users)

    def test_frame_counts(self, rngs):
        corpus = sensor_corpus(
            "gait", 40, rngs.stream("c"),
            train_frames_per_user=2, eval_frames_per_user=3,
        )
        assert len(corpus.train_frames) == 20 * 2
        assert len(corpus.eval_frames) == 20 * 3

    def test_profiles_cover_everyone(self, rngs):
        corpus = sensor_corpus("heart_rate", 20, rngs.stream("c"))
        frames = corpus.train_frames + corpus.eval_frames
        assert all(f.subject in corpus.profiles for f in frames)

    def test_unknown_channel_rejected(self, rngs):
        with pytest.raises(ValueError):
            sensor_corpus("sonar", 10, rngs.stream("c"))


class TestLinkageWorkload:
    def test_structure(self, rngs):
        workload = linkage_workload(10, 3, 0.5, rngs.stream("l"))
        assert len(workload.reference_sessions) == 10
        assert len(workload.anonymous_sessions) == 30
        # Truth covers every observed avatar.
        for observation in workload.anonymous_sessions:
            assert observation.avatar_id in workload.truth

    def test_clone_rate_zero_uses_primaries_only(self, rngs):
        workload = linkage_workload(10, 3, 0.0, rngs.stream("l"))
        primaries = {
            workload.identity.primary_of(f"user-{i:05d}") for i in range(10)
        }
        assert all(
            o.avatar_id in primaries for o in workload.anonymous_sessions
        )

    def test_clone_rate_one_never_uses_primaries(self, rngs):
        workload = linkage_workload(10, 3, 1.0, rngs.stream("l"))
        primaries = {
            workload.identity.primary_of(f"user-{i:05d}") for i in range(10)
        }
        assert all(
            o.avatar_id not in primaries for o in workload.anonymous_sessions
        )

    def test_evaluate_bounds(self, rngs):
        workload = linkage_workload(10, 3, 0.5, rngs.stream("l"))
        accuracy = evaluate_linkage(workload)
        assert 0.0 <= accuracy <= 1.0


class TestProposalLoad:
    def test_count_and_topics(self, rngs):
        topics = ["a", "b"]
        load = dao_proposal_load(30, topics, rngs.stream("p"))
        assert len(load) == 30
        assert {d["topic"] for d in load} <= set(topics)

    def test_invalid_params(self, rngs):
        with pytest.raises(ValueError):
            dao_proposal_load(-1, ["a"], rngs.stream("p"))
        with pytest.raises(ValueError):
            dao_proposal_load(1, [], rngs.stream("p"))


class TestFrameBurst:
    HOT = [0, 100, 200, 300]

    @staticmethod
    def channel_of(subject):
        return ("gaze", "gait")[subject // 100 % 2]

    def test_frames_name_the_picked_indices(self, rngs):
        burst = synthetic_frame_burst(
            self.HOT, 50, time=3.0, rng=rngs.fresh("burst"),
            channel_of=self.channel_of, value_dims=3,
        )
        # Per frame, a subject pick and then that frame's values.
        rng, subjects, values = rngs.fresh("burst"), [], []
        for _ in range(50):
            subjects.append(self.HOT[int(rng.integers(len(self.HOT)))])
            values.append(rng.normal(0.0, 1.0, size=3))
        assert burst.subjects == subjects
        assert all(type(subject) is int for subject in burst.subjects)
        assert burst.channels == [self.channel_of(s) for s in subjects]
        assert burst.times.tolist() == [3.0] * 50
        assert np.array_equal(burst.values, np.array(values))
        assert burst.metadata is None

    def test_invalid_bursts_rejected(self, rngs):
        rng = rngs.stream("burst")
        with pytest.raises(ValueError):
            synthetic_frame_burst(self.HOT, -1, 0.0, rng, self.channel_of)
        with pytest.raises(ValueError):
            synthetic_frame_burst([], 1, 0.0, rng, self.channel_of)
        assert len(synthetic_frame_burst([], 0, 0.0, rng, self.channel_of)) == 0
