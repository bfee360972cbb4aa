"""Tests for the open-loop traffic generator."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.serving.schemas import Endpoint
from repro.workloads.traffic import (
    SpikeWindow,
    TrafficConfig,
    _rate_segments,
    generate_traffic,
    user_stream,
)

BASE = dict(n_users=60, horizon=8.0, rate_per_user=1.5, seed=11)


class TestDeterminism:
    def test_same_seed_same_arrivals(self):
        # Compare by repr: deliberately-malformed payloads may carry
        # NaN severities, and NaN != NaN would fail dataclass equality
        # on byte-identical traffic.
        first = generate_traffic(TrafficConfig(**BASE))
        second = generate_traffic(TrafficConfig(**BASE))
        assert [repr(a) for a in first] == [repr(a) for a in second]

    def test_different_seed_different_arrivals(self):
        first = generate_traffic(TrafficConfig(**BASE))
        other = generate_traffic(TrafficConfig(**{**BASE, "seed": 12}))
        assert first != other

    def test_user_arrival_times_stable_under_population_growth(self):
        # User u's stream depends only on (seed, u): adding more users
        # must not move anyone's arrival times (payloads may differ —
        # recipient draws range over n_users — but the times cannot).
        small = generate_traffic(TrafficConfig(**BASE))
        big = generate_traffic(TrafficConfig(**{**BASE, "n_users": 200}))
        for user in (0, 7, 31):
            assert [a.time for a in small if a.user == user] == [
                a.time for a in big if a.user == user
            ]

    def test_sorted_by_time_then_user(self):
        arrivals = generate_traffic(TrafficConfig(**BASE))
        keys = [(a.time, a.user, a.seq) for a in arrivals]
        assert keys == sorted(keys)


class TestPoissonShape:
    def test_volume_tracks_offered_rate(self):
        config = TrafficConfig(n_users=200, horizon=20.0, rate_per_user=1.0, seed=3)
        arrivals = generate_traffic(config)
        expected = config.n_users * config.horizon * config.rate_per_user
        # Heavy-tailed weights widen the variance; 25% is a loose bound
        # that still catches off-by-a-factor bugs.
        assert expected * 0.75 <= len(arrivals) <= expected * 1.25

    def test_all_times_within_horizon(self):
        arrivals = generate_traffic(TrafficConfig(**BASE))
        assert all(0.0 <= a.time < BASE["horizon"] for a in arrivals)

    def test_spike_multiplies_arrivals_in_window(self):
        quiet = generate_traffic(TrafficConfig(**BASE))
        spiky = generate_traffic(
            TrafficConfig(spikes=(SpikeWindow(2.0, 4.0, 8.0),), **BASE)
        )

        def count_in(arrivals, lo, hi):
            return sum(1 for a in arrivals if lo <= a.time < hi)

        in_window_ratio = count_in(spiky, 2.0, 4.0) / max(1, count_in(quiet, 2.0, 4.0))
        assert in_window_ratio > 4.0
        # Outside the window the processes agree exactly: time-rescaling
        # inverts the same targets through an identical rate there...
        # until a user's targets cross into the window, after which their
        # later arrivals shift.  Before the window, identical:
        assert [a.time for a in spiky if a.time < 2.0] == [
            a.time for a in quiet if a.time < 2.0
        ]

    def test_heavy_tail_concentrates_traffic(self):
        config = TrafficConfig(
            n_users=300, horizon=10.0, rate_per_user=1.0, seed=5,
            pareto_shape=1.3,
        )
        arrivals = generate_traffic(config)
        per_user = {}
        for a in arrivals:
            per_user[a.user] = per_user.get(a.user, 0) + 1
        counts = sorted(per_user.values(), reverse=True)
        top_decile = sum(counts[: len(counts) // 10])
        # With shape 1.3 the top 10% of users carry well over a
        # proportional share.
        assert top_decile / len(arrivals) > 0.2


class TestRequests:
    def test_mix_covers_all_endpoints(self):
        arrivals = generate_traffic(
            TrafficConfig(n_users=300, horizon=10.0, rate_per_user=1.0, seed=6)
        )
        seen = {a.request.endpoint for a in arrivals}
        assert seen == set(Endpoint)

    def test_invalid_fraction_generates_malformed_writes(self):
        arrivals = generate_traffic(
            TrafficConfig(
                n_users=300, horizon=10.0, rate_per_user=1.0, seed=6,
                invalid_frac=0.2,
            )
        )
        invalid = [a for a in arrivals if a.request.validate() is not None]
        assert invalid  # some malformed traffic exists
        # Reads are never corrupted.
        assert all(not a.request.is_read for a in invalid)

    def test_zero_invalid_frac_generates_only_valid(self):
        arrivals = generate_traffic(
            TrafficConfig(**{**BASE, "invalid_frac": 0.0})
        )
        assert all(a.request.validate() is None for a in arrivals)


class TestRateSegments:
    def test_no_spikes_single_segment(self):
        assert _rate_segments(10.0, ()) == [(0.0, 10.0, 1.0)]

    def test_overlapping_spikes_compound(self):
        segments = _rate_segments(
            10.0, (SpikeWindow(2.0, 6.0, 2.0), SpikeWindow(4.0, 8.0, 3.0))
        )
        multipliers = {(t0, t1): m for t0, t1, m in segments}
        assert multipliers[(4.0, 6.0)] == 6.0
        assert multipliers[(2.0, 4.0)] == 2.0
        assert multipliers[(6.0, 8.0)] == 3.0

    def test_segments_tile_the_horizon(self):
        segments = _rate_segments(10.0, (SpikeWindow(2.0, 6.0, 2.0),))
        assert segments[0][0] == 0.0 and segments[-1][1] == 10.0
        for (_, end, _), (start, _, _) in zip(segments, segments[1:]):
            assert end == start


class TestValidation:
    def test_config_guards(self):
        with pytest.raises(ValueError):
            TrafficConfig(n_users=1, horizon=1.0, rate_per_user=1.0, seed=0)
        with pytest.raises(ValueError):
            TrafficConfig(n_users=2, horizon=0.0, rate_per_user=1.0, seed=0)
        with pytest.raises(ValueError):
            TrafficConfig(n_users=2, horizon=1.0, rate_per_user=0.0, seed=0)
        with pytest.raises(ValueError):
            TrafficConfig(
                n_users=2, horizon=1.0, rate_per_user=1.0, seed=0,
                pareto_shape=1.0,
            )
        with pytest.raises(ValueError):
            TrafficConfig(
                n_users=2, horizon=1.0, rate_per_user=1.0, seed=0,
                spikes=(SpikeWindow(5.0, 6.0, 2.0),),
            )
        with pytest.raises(ValueError):
            SpikeWindow(3.0, 2.0, 2.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["rate_per_user", "horizon", "pareto_shape"])
    def test_non_finite_scalar_rejected(self, name, value):
        # NaN passed the old `<=` checks and generated no arrivals; an
        # infinite rate or horizon never finishes generating.
        with pytest.raises(ValueError, match=name):
            TrafficConfig(**{**BASE, name: value})

    def test_infinite_spike_multiplier_rejected(self):
        # Accepted, it made generate_traffic loop forever.
        with pytest.raises(ValueError, match="multiplier"):
            SpikeWindow(2.0, 4.0, math.inf)

    def test_nan_spike_multiplier_rejected(self):
        # Accepted, it silently dropped arrivals.
        with pytest.raises(ValueError, match="multiplier"):
            SpikeWindow(2.0, 4.0, math.nan)

    @pytest.mark.parametrize("start, end", [(math.nan, 4.0), (2.0, math.nan)])
    def test_nan_spike_bound_rejected(self, start, end):
        with pytest.raises(ValueError, match="end > start"):
            SpikeWindow(start, end, 2.0)

    def test_infinite_spike_end_is_clipped_by_the_horizon(self):
        def arrivals(end):
            spike = SpikeWindow(2.0, end, 3.0)
            return [repr(a) for a in generate_traffic(
                TrafficConfig(spikes=(spike,), **BASE)
            )]

        assert arrivals(math.inf) == arrivals(BASE["horizon"])

    @pytest.mark.parametrize("weight", [-0.1, math.nan, math.inf])
    def test_bad_endpoint_weight_rejected(self, weight):
        # Caught only at the first draw before, and not at all by the
        # bisect draw: negative weights skewed the mix silently.
        mix = ((Endpoint.GET_BALANCE, 1.0), (Endpoint.SUBMIT_TX, weight))
        with pytest.raises(ValueError, match="endpoint_mix"):
            TrafficConfig(endpoint_mix=mix, **BASE)

    def test_zero_endpoint_weights_rejected_at_construction(self):
        mix = ((Endpoint.GET_BALANCE, 0.0), (Endpoint.SUBMIT_TX, 0.0))
        with pytest.raises(ValueError, match="endpoint_mix"):
            TrafficConfig(endpoint_mix=mix, **BASE)

    def test_user_stream_is_pure_function_of_seed_and_user(self):
        a = user_stream(42, 7).random(4).tolist()
        b = user_stream(42, 7).random(4).tolist()
        c = user_stream(42, 8).random(4).tolist()
        assert a == b != c


class TestImport:
    # repro.serving.run imports this module, and this module imports
    # repro.serving's schemas: either side must import first on its own.
    @pytest.mark.parametrize(
        "statement",
        [
            "import repro.workloads.traffic",
            "from repro.serving import run_serving, ServingRunResult",
        ],
    )
    def test_imports_in_a_fresh_interpreter(self, statement):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", statement],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
