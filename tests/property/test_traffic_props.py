"""Property-based tests: the traffic generator's per-arrival shortcuts
equal the calls they replace.

Endpoint and ballot draws bisect a cdf built once
(``_choice_cdf``) instead of calling ``Generator.choice(k, p=...)``,
and each user's trace ids come from ``derive_trace_ids`` instead of one
``derive_trace_id`` call per arrival.  Both must give the same values,
and a draw must leave the stream where ``choice`` leaves it.
"""

from bisect import bisect_right

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.context import derive_trace_id, derive_trace_ids
from repro.workloads.traffic import _BALLOT_CDF, _choice_cdf

weight = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)
weights = st.lists(weight, min_size=1, max_size=8).filter(any)
seeds = st.integers(min_value=0, max_value=2**63 - 1)
draws = st.integers(min_value=1, max_value=25)


@settings(max_examples=300, deadline=None)
@given(weights=weights, seed=seeds, n=draws)
def test_bisect_draw_equals_choice(weights, seed, n):
    w = np.asarray(weights)
    p = w / w.sum()
    cdf = _choice_cdf(p)
    ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(n):
        assert bisect_right(cdf, ours.random()) == reference.choice(len(p), p=p)
    # Each draw consumed exactly what choice consumes.
    assert ours.random() == reference.random()


@settings(max_examples=100, deadline=None)
@given(seed=seeds, n=draws)
def test_ballot_draw_equals_choice(seed, n):
    ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(n):
        assert bisect_right(_BALLOT_CDF, ours.random()) == reference.choice(
            3, p=[0.5, 0.35, 0.15]
        )
    assert ours.random() == reference.random()


@settings(max_examples=200, deadline=None)
@given(
    seed=st.one_of(st.integers(), st.text(max_size=6)),
    user=st.integers(min_value=-5, max_value=10**9),
    count=st.integers(min_value=0, max_value=40),
)
def test_derive_trace_ids_equals_derive_trace_id(seed, user, count):
    assert derive_trace_ids(seed, user, count) == [
        derive_trace_id(seed, user, seq) for seq in range(count)
    ]
