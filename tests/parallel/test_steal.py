"""Deterministic work stealing: chunk identity, folding, exactly-once."""

import numpy as np
import pytest

from repro.parallel import ShardPlan
from repro.parallel.steal import (
    ChunkTask,
    fold_chunk_results,
    make_chunk_tasks,
    run_shard_chunk,
)
from repro.parallel.worker import (
    CHUNK_PHASES,
    PHASE_NAMES,
    ShardTask,
    run_shard_epoch,
)
from repro.workloads.load import CONSENT_DENIED_MOD, DEFAULT_CHANNELS


def make_tasks(n_agents=600, n_shards=3, epoch=1, trace=False):
    plan = ShardPlan(
        seed=2022,
        n_agents=n_agents,
        n_shards=n_shards,
        n_members=200,
        hot_stride=100,
    )
    return [
        ShardTask(
            plan=plan,
            shard=shard,
            epoch=epoch,
            tx_count=40,
            rating_count=20,
            report_count=10,
            vote_count=15,
            interaction_count=50,
            frame_count=30,
            hot_spent=tuple(0.0 for _ in plan.hot_subjects_of(shard)),
            channels=DEFAULT_CHANNELS,
            consent_denied_mod=CONSENT_DENIED_MOD,
            cascade_members=60,
            cascade_boundary=4,
            trace=trace,
        )
        for shard in range(n_shards)
    ]


def results_equal(a, b) -> bool:
    """Field-by-field equality, numpy-aware (dataclass == would be
    ambiguous on the array fields)."""
    for name in (
        "shard", "tx_senders", "tx_recipients", "tx_amounts", "tx_fees",
        "tx_nonces", "tx_ids", "tx_precheck_failures", "rating_raters",
        "rating_ratees", "rating_weights", "report_reporters",
        "report_accused", "report_severities", "vote_voters", "vote_yes",
        "predicted_outcomes", "cascade_reach", "cascade_rounds",
        "cascade_timeline", "boundary_reached", "span_payloads",
    ):
        if getattr(a, name) != getattr(b, name):
            return False
    fa, fb = a.frames, b.frames
    if (fa.subjects, fa.channels, fa.metadata) != (fb.subjects, fb.channels, fb.metadata):
        return False
    if not (
        np.array_equal(fa.times, fb.times) and np.array_equal(fa.values, fb.values)
    ):
        return False
    for name in ("flagged_rows", "report_rows"):
        xa, xb = getattr(a, name), getattr(b, name)
        if (xa is None) != (xb is None):
            return False
        if xa is not None and not np.array_equal(xa, xb):
            return False
    ia, ib = a.interactions, b.interactions
    if (ia is None) != (ib is None):
        return False
    if ia is not None:
        if not (
            np.array_equal(ia.initiators, ib.initiators)
            and np.array_equal(ia.targets, ib.targets)
            and np.array_equal(ia.abusive, ib.abusive)
            and np.array_equal(ia.delivered, ib.delivered)
        ):
            return False
    return True


class TestChunkIdentity:
    def test_chunk_ids_are_stable_and_ordered(self):
        tasks = make_tasks()
        chunks = make_chunk_tasks(tasks)
        ids = [(c.task.shard, c.chunk) for c in chunks]
        assert ids == sorted(ids)  # steal order: lowest shard id first
        assert ids == [
            (s, c)
            for s in range(len(tasks))
            for c in range(len(CHUNK_PHASES))
        ]

    def test_slimmed_tasks_only_keep_needed_snapshots(self):
        tasks = make_tasks()
        for chunk in make_chunk_tasks(tasks):
            phase = CHUNK_PHASES[chunk.chunk]
            if PHASE_NAMES[phase] != "frames":
                assert chunk.task.hot_spent == ()
            if PHASE_NAMES[phase] != "transactions":
                assert chunk.task.base_nonces == {}
                assert chunk.task.base_nonce_slice is None


class TestFoldEquivalence:
    @pytest.mark.parametrize("trace", [False, True])
    def test_fold_matches_monolithic_shard_epoch(self, trace):
        tasks = make_tasks(trace=trace)
        chunks = make_chunk_tasks(tasks)
        folded = fold_chunk_results(tasks, [run_shard_chunk(c) for c in chunks])
        mono = [run_shard_epoch(t) for t in tasks]
        assert len(folded) == len(mono)
        assert sum(len(m.frames) for m in mono) > 0
        for f, m in zip(folded, mono):
            assert results_equal(f, m)

    def test_fold_ignores_completion_order(self):
        tasks = make_tasks()
        chunk_results = [run_shard_chunk(c) for c in make_chunk_tasks(tasks)]
        shuffled = list(reversed(chunk_results))
        a = fold_chunk_results(tasks, chunk_results)
        b = fold_chunk_results(tasks, shuffled)
        assert sum(len(x.frames) for x in a) > 0
        for x, y in zip(a, b):
            assert results_equal(x, y)

    def test_fold_records_per_phase_seconds(self):
        tasks = make_tasks()
        folded = fold_chunk_results(
            tasks, [run_shard_chunk(c) for c in make_chunk_tasks(tasks)]
        )
        for result in folded:
            assert set(result.phase_seconds) == set(PHASE_NAMES.values())


class TestExactlyOnce:
    def test_missing_chunk_raises(self):
        tasks = make_tasks()
        chunk_results = [run_shard_chunk(c) for c in make_chunk_tasks(tasks)]
        with pytest.raises(ValueError, match="never executed"):
            fold_chunk_results(tasks, chunk_results[:-1])

    def test_duplicate_chunk_raises(self):
        tasks = make_tasks()
        chunk_results = [run_shard_chunk(c) for c in make_chunk_tasks(tasks)]
        with pytest.raises(ValueError, match="more than once"):
            fold_chunk_results(tasks, chunk_results + [chunk_results[0]])

    def test_stray_chunk_raises(self):
        tasks = make_tasks()
        chunk_results = [run_shard_chunk(c) for c in make_chunk_tasks(tasks)]
        stray = run_shard_chunk(
            ChunkTask(task=make_tasks(n_shards=4)[3], chunk=0)
        )
        with pytest.raises(ValueError, match="unexpected"):
            fold_chunk_results(tasks, chunk_results + [stray])
