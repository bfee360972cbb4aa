"""Shard-plan geometry and stream derivation: the determinism contract."""

import numpy as np
import pytest

from repro.parallel import Phase, ShardPlan, shard_phase_rng
from repro.parallel.plan import (
    activity_weights,
    blend_profile,
    split_weighted,
    weighted_boundaries,
)


def make_plan(n_agents=1_000, n_shards=7, n_members=300, hot_stride=100, seed=2022):
    return ShardPlan(
        seed=seed,
        n_agents=n_agents,
        n_shards=n_shards,
        n_members=n_members,
        hot_stride=hot_stride,
    )


class TestPartitionGeometry:
    @pytest.mark.parametrize("n_agents,n_shards", [
        (1, 1), (10, 1), (10, 3), (10, 10), (1_000, 7), (1_001, 8), (97, 13),
    ])
    def test_ranges_partition_population(self, n_agents, n_shards):
        plan = make_plan(n_agents=n_agents, n_shards=n_shards,
                         n_members=min(n_agents, 300))
        covered = []
        prev_hi = 0
        for shard in range(n_shards):
            lo, hi = plan.range_of(shard)
            assert lo == prev_hi  # contiguous, no gaps or overlaps
            assert hi - lo == plan.size_of(shard)
            covered.extend(range(lo, hi))
            prev_hi = hi
        assert covered == list(range(n_agents))

    def test_remainder_goes_to_lowest_shards(self):
        plan = make_plan(n_agents=10, n_shards=3, n_members=10)
        assert [plan.size_of(s) for s in range(3)] == [4, 3, 3]

    @pytest.mark.parametrize("n_agents,n_shards", [(10, 3), (1_000, 7), (97, 13)])
    def test_shard_of_inverts_range_of(self, n_agents, n_shards):
        plan = make_plan(n_agents=n_agents, n_shards=n_shards,
                         n_members=min(n_agents, 300))
        for agent in range(n_agents):
            shard = plan.shard_of(agent)
            lo, hi = plan.range_of(shard)
            assert lo <= agent < hi

    def test_member_ranges_cover_electorate_prefix(self):
        plan = make_plan(n_agents=1_000, n_shards=7, n_members=333)
        members = []
        for shard in range(plan.n_shards):
            lo, hi = plan.member_range_of(shard)
            members.extend(range(lo, hi))
        assert members == list(range(333))

    def test_hot_subjects_are_strided_and_partitioned(self):
        plan = make_plan(n_agents=1_050, n_shards=4, hot_stride=100)
        hot = []
        for shard in range(plan.n_shards):
            shard_hot = plan.hot_subjects_of(shard)
            lo, hi = plan.range_of(shard)
            assert all(lo <= h < hi for h in shard_hot)
            hot.extend(shard_hot)
        assert hot == list(range(0, 1_050, 100))

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError):
            make_plan(n_agents=0)
        with pytest.raises(ValueError):
            make_plan(n_agents=5, n_shards=6, n_members=5)
        with pytest.raises(ValueError):
            make_plan(hot_stride=0)
        plan = make_plan()
        with pytest.raises(ValueError):
            plan.range_of(plan.n_shards)
        with pytest.raises(ValueError):
            plan.shard_of(plan.n_agents)


class TestSplitWeighted:
    def test_sums_to_total_and_tracks_weights(self):
        parts = split_weighted(100, [1, 2, 3, 4])
        assert sum(parts) == 100
        assert parts == [10, 20, 30, 40]

    def test_largest_remainder_ties_to_lowest_index(self):
        # 10 over equal weights of 3: floors are 3 each, one leftover
        # unit goes to the lowest index among the tied remainders.
        assert split_weighted(10, [1, 1, 1]) == [4, 3, 3]

    def test_zero_weights_get_nothing(self):
        assert split_weighted(7, [0, 1, 0]) == [0, 7, 0]

    def test_all_zero_weights_fall_back_to_even_split(self):
        # Zero total weight means "no information", not "drop the
        # units": the split degrades to even so sum(parts) == total
        # holds on every input (the old behaviour returned all zeros).
        assert split_weighted(7, [0, 0]) == [4, 3]
        assert split_weighted(6, [0, 0, 0]) == [2, 2, 2]
        assert split_weighted(0, [0, 0]) == [0, 0]
        assert split_weighted(5, []) == []

    def test_deterministic(self):
        weights = [13, 7, 29, 1, 50]
        assert split_weighted(999, weights) == split_weighted(999, weights)
        assert sum(split_weighted(999, weights)) == 999

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            split_weighted(-1, [1])

    def test_negative_weight_rejected(self):
        # Used to silently produce negative quotas —
        # split_weighted(10, [-1, 3]) == [-5, 15] — which downstream
        # load generators fed straight into range()/array sizing.
        with pytest.raises(ValueError):
            split_weighted(10, [-1, 3])
        with pytest.raises(ValueError):
            split_weighted(0, [1, -1])


class TestWeightedBoundaries:
    def test_explicit_boundaries_drive_geometry(self):
        plan = ShardPlan(
            seed=1, n_agents=10, n_shards=3, n_members=10, hot_stride=100,
            boundaries=(2, 5, 10),
        )
        assert [plan.range_of(s) for s in range(3)] == [(0, 2), (2, 5), (5, 10)]
        assert [plan.size_of(s) for s in range(3)] == [2, 3, 5]
        for agent in range(10):
            lo, hi = plan.range_of(plan.shard_of(agent))
            assert lo <= agent < hi

    def test_boundaries_partition_population(self):
        weights = [100] * 10 + [1] * 90
        bounds = weighted_boundaries(weights, 4)
        plan = ShardPlan(
            seed=1, n_agents=100, n_shards=4, n_members=100, hot_stride=100,
            boundaries=bounds,
        )
        covered = []
        for shard in range(4):
            lo, hi = plan.range_of(shard)
            covered.extend(range(lo, hi))
        assert covered == list(range(100))

    def test_weighted_cuts_balance_mass(self):
        # Front-loaded weights: 10 agents at 100x the rest.  Equal cuts
        # would put all the mass in shard 0; weighted cuts shrink it.
        weights = np.array([100] * 10 + [1] * 90, dtype=np.int64)
        bounds = weighted_boundaries(weights, 4)
        masses = []
        prev = 0
        for hi in bounds:
            masses.append(int(weights[prev:hi].sum()))
            prev = hi
        total = int(weights.sum())
        # Every shard within 2x of the ideal quarter (the hot agents
        # are indivisible, so perfect balance is impossible).
        assert all(m <= total / 4 * 2 for m in masses)
        assert bounds[0] < 25  # the hot prefix was cut short

    def test_invalid_boundaries_rejected(self):
        kwargs = dict(seed=1, n_agents=10, n_shards=3, n_members=10,
                      hot_stride=100)
        for bad in [(2, 5), (2, 5, 9), (5, 2, 10), (0, 5, 10), (2, 2, 10)]:
            with pytest.raises(ValueError):
                ShardPlan(boundaries=bad, **kwargs)

    def test_weighted_boundaries_every_shard_nonempty(self):
        # Degenerate mass distributions must still leave every shard at
        # least one agent (all mass on one agent, zeros elsewhere).
        for weights in ([1000, 0, 0, 0], [0, 0, 0, 1000], [0, 0, 0, 0]):
            bounds = weighted_boundaries(weights, 4)
            prev = 0
            for hi in bounds:
                assert hi > prev
                prev = hi
            assert bounds[-1] == 4

    def test_streams_ignore_boundaries(self):
        # Replanning boundaries must not move any random stream: rng is
        # pure in (seed, n_shards, shard, epoch, phase).
        base = ShardPlan(seed=7, n_agents=100, n_shards=4, n_members=50,
                         hot_stride=10)
        cut = base.with_boundaries((10, 30, 70, 100))
        a = base.rng(2, 3, Phase.TRANSACTIONS).integers(0, 1 << 30, 32)
        b = cut.rng(2, 3, Phase.TRANSACTIONS).integers(0, 1 << 30, 32)
        assert np.array_equal(a, b)


class TestActivityWeights:
    def test_deterministic_and_heavy_tailed(self):
        a = activity_weights(2022, 10_000)
        b = activity_weights(2022, 10_000)
        assert np.array_equal(a, b)
        assert a.shape == (10_000,)
        assert a.min() >= 1
        # Heavy tail: the hottest block dwarfs the median block.
        assert a.max() >= 20 * np.median(a)
        assert a.max() >= 50 * a.min()
        # Different seed, different placement of the hot blocks.
        c = activity_weights(2023, 10_000)
        assert not np.array_equal(a, c)

    def test_blockwise_constant(self):
        # Contiguity is the point: weights change at most n_blocks times.
        a = activity_weights(2022, 1_000, n_blocks=16)
        changes = int(np.count_nonzero(np.diff(a)))
        assert changes < 16

    def test_blend_profile_cross_normalizes(self):
        prior = np.array([1, 2, 3], dtype=np.int64)  # mass 6
        observed = np.array([10, 0, 5], dtype=np.int64)  # mass 15
        blended = blend_profile(
            prior, observed, prior_weight=1, observed_weight=2
        )
        # prior * (1 * 15) + observed * (2 * 6)
        assert blended.tolist() == [135, 30, 105]
        # Scale-free: scaling either input scales the blend, never the mix.
        scaled = blend_profile(
            prior, observed * 100, prior_weight=1, observed_weight=2
        )
        assert (scaled == blended * 100).all()

    def test_blend_profile_degenerate_masses(self):
        prior = np.array([1, 2, 3], dtype=np.int64)
        zeros = np.zeros(3, dtype=np.int64)
        assert blend_profile(prior, None).tolist() == [1, 2, 3]
        assert blend_profile(prior, zeros).tolist() == [1, 2, 3]
        observed = np.array([10, 0, 5], dtype=np.int64)
        assert blend_profile(zeros, observed).tolist() == [10, 0, 5]


class TestStreamDerivation:
    def test_same_cell_same_stream(self):
        a = shard_phase_rng(2022, 8, 3, 1, Phase.TRANSACTIONS)
        b = shard_phase_rng(2022, 8, 3, 1, Phase.TRANSACTIONS)
        assert np.array_equal(a.integers(0, 1 << 30, 64), b.integers(0, 1 << 30, 64))

    def test_cells_are_independent(self):
        base = shard_phase_rng(2022, 8, 3, 1, Phase.TRANSACTIONS)
        draws = base.integers(0, 1 << 30, 64)
        for other in (
            shard_phase_rng(2022, 8, 4, 1, Phase.TRANSACTIONS),  # other shard
            shard_phase_rng(2022, 8, 3, 2, Phase.TRANSACTIONS),  # other epoch
            shard_phase_rng(2022, 8, 3, 1, Phase.RATINGS),       # other phase
            shard_phase_rng(2023, 8, 3, 1, Phase.TRANSACTIONS),  # other seed
        ):
            assert not np.array_equal(draws, other.integers(0, 1 << 30, 64))

    def test_cell_is_the_shard_childs_grandchild(self):
        # The direct derivation equals extending the spawned shard
        # child's key, the derivation it replaced.
        for seed, n_shards, shard, epoch, phase in (
            (2022, 8, 3, 1, Phase.TRANSACTIONS),
            (0, 1, 0, 0, Phase.GRAPH),
            (2 ** 40, 16, 15, 99, Phase.CASCADE),
        ):
            child = np.random.SeedSequence(seed).spawn(n_shards)[shard]
            spawned = np.random.default_rng(
                np.random.SeedSequence(
                    entropy=child.entropy,
                    spawn_key=tuple(child.spawn_key) + (epoch, phase),
                )
            )
            direct = shard_phase_rng(seed, n_shards, shard, epoch, phase)
            assert np.array_equal(
                spawned.integers(0, 1 << 62, 64), direct.integers(0, 1 << 62, 64)
            )
        with pytest.raises(IndexError):
            shard_phase_rng(2022, 8, 8, 0, Phase.TRANSACTIONS)

    def test_plan_rng_matches_free_function(self):
        plan = make_plan(seed=99, n_shards=5)
        a = plan.rng(2, 4, Phase.CASCADE)
        b = shard_phase_rng(99, 5, 2, 4, Phase.CASCADE)
        assert np.array_equal(a.integers(0, 1 << 30, 32), b.integers(0, 1 << 30, 32))

    def test_phase_indices_are_pinned(self):
        # Renumbering phases silently changes every derived stream;
        # these values are part of the on-disk determinism contract.
        assert (
            Phase.TRANSACTIONS, Phase.RATINGS, Phase.REPORTS, Phase.VOTES,
            Phase.INTERACTIONS, Phase.FRAMES, Phase.CASCADE, Phase.GRAPH,
        ) == (0, 1, 2, 3, 4, 5, 6, 7)
