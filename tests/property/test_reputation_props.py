"""Property-based tests: reputation bounds and EigenTrust stochasticity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reputation import BetaReputation, EigenTrust
from repro.reputation.system import ReputationSystem

feedback_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10),   # entity index
        st.booleans(),                            # positive?
        st.floats(min_value=0.0, max_value=5.0),  # weight
    ),
    max_size=60,
)


class TestBetaProperties:
    @given(feedback=feedback_strategy)
    @settings(max_examples=100, deadline=None)
    def test_scores_strictly_inside_unit_interval(self, feedback):
        rep = BetaReputation()
        for entity_i, positive, weight in feedback:
            rep.record(f"e{entity_i}", positive, weight)
        for entity in rep.entities():
            assert 0.0 < rep.score(entity) < 1.0

    @given(feedback=feedback_strategy)
    @settings(max_examples=60, deadline=None)
    def test_decay_contracts_toward_prior(self, feedback):
        rep = BetaReputation()
        for entity_i, positive, weight in feedback:
            rep.record(f"e{entity_i}", positive, weight)
        before = rep.entities()
        rep.decay_all(0.5)
        for entity, score_before in before.items():
            score_after = rep.score(entity)
            # After decay, the score must be weakly closer to 0.5.
            assert abs(score_after - 0.5) <= abs(score_before - 0.5) + 1e-12


trust_edges = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8),
        st.floats(min_value=0.0, max_value=10.0),
    ),
    max_size=40,
)


class TestEigenTrustProperties:
    @given(edges=trust_edges)
    @settings(max_examples=60, deadline=None)
    def test_vector_is_distribution(self, edges):
        trust = EigenTrust(pretrusted=["e0"])
        trust.add_identity("e0")
        for a, b, value in edges:
            if a == b:
                continue
            trust.record_interaction(f"e{a}", f"e{b}", value)
        vector = trust.compute()
        assert all(v >= 0 for v in vector.values())
        assert sum(vector.values()) == pytest.approx(1.0)

    @given(edges=trust_edges)
    @settings(max_examples=40, deadline=None)
    def test_deterministic(self, edges):
        def build():
            trust = EigenTrust(pretrusted=["e0"])
            trust.add_identity("e0")
            for a, b, value in edges:
                if a == b:
                    continue
                trust.record_interaction(f"e{a}", f"e{b}", value)
            return trust.compute()

        assert build() == build()


# Feedback rounds between registered identities (picked by index), with
# a trust read after each round.
feedback_rounds = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=11),  # rater index
            st.integers(min_value=0, max_value=11),  # target index
            st.booleans(),                            # positive?
            st.floats(min_value=0.0, max_value=5.0),  # weight
        ),
        max_size=20,
    ),
    min_size=1,
    max_size=3,
)


class TestBulkRegistrationAndTrustTop:
    """The load workload registers its society in one call and reads
    each epoch's trust top off the solved vector; both must agree with
    the one-identity-at-a-time and trust-dict paths."""

    @given(
        ids=st.lists(
            st.text(alphabet="0123456789abcdef", min_size=1, max_size=4),
            unique=True,
            max_size=12,
        ),
        rounds=feedback_rounds,
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_the_dict_path(self, ids, rounds):
        bulk = ReputationSystem(pretrusted=ids[:1])
        bulk.register_identities(ids)
        single = ReputationSystem(pretrusted=ids[:1])
        for identity in ids:
            single.register_identity(identity)
        for feedback in rounds:
            for a, b, positive, weight in feedback:
                if len(ids) < 2 or a % len(ids) == b % len(ids):
                    continue
                rater, target = ids[a % len(ids)], ids[b % len(ids)]
                for system in (bulk, single):
                    system.record(rater, target, positive, weight=weight)
            trust = single.global_trust()
            top = bulk.global_trust_top()
            assert top == (max(trust.values()) if trust else 0.0)
            assert bulk.trust_compute_count == single.trust_compute_count
            assert bulk.trust_sweep_count == single.trust_sweep_count
        # The trust dict lists identities in EigenTrust's row order.
        assert list(bulk.global_trust()) == list(trust)


class TestRangeIdentities:
    """A society of agent indices registers ``range(n)``, which
    EigenTrust keeps as a range (row ``i`` is identity ``i``); every
    read must equal the same society registered as a list, whose sorted
    rows are the same order."""

    @given(
        n=st.one_of(st.integers(min_value=2, max_value=12), st.just(600)),
        rounds=feedback_rounds,
        leave=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_the_listed_society(self, n, rounds, leave):
        ranged = ReputationSystem(pretrusted=range(1))
        ranged.register_identities(range(n))
        listed = ReputationSystem(pretrusted=[0])
        listed.register_identities(list(range(n)))
        systems = (ranged, listed)
        for feedback in rounds:
            for a, b, positive, weight in feedback:
                if a % n != b % n:
                    for system in systems:
                        system.record(a % n, b % n, positive, weight=weight)
            assert ranged.global_trust_top() == listed.global_trust_top()
            assert ranged.trust_compute_count == listed.trust_compute_count
            assert ranged.trust_sweep_count == listed.trust_sweep_count
        if leave:
            # An identity past the range: both hold it in a set now.
            for system in systems:
                system.record(0, n + 3, True, weight=1.0)
        assert ranged.global_trust() == listed.global_trust()
        assert list(ranged.global_trust()) == list(listed.global_trust())
