"""Tests for the DAO engine."""

import numpy as np
import pytest

from repro.dao import (
    DAO,
    Member,
    ProposalStatus,
    Tally,
    TokenWeighted,
    TurnoutQuorum,
)
from repro.errors import ProposalError, VotingError


@pytest.fixture
def dao():
    d = DAO("test", rule=TurnoutQuorum(0.5))
    for i in range(4):
        d.add_member(Member(address=f"m{i}", tokens=10 * (i + 1)))
    return d


def open_proposal(dao, **kwargs):
    defaults = dict(
        title="t", proposer="m0", topic="privacy",
        created_at=0.0, voting_period=10.0,
    )
    defaults.update(kwargs)
    return dao.submit_proposal(**defaults)


class TestProposals:
    def test_non_member_cannot_propose(self, dao):
        with pytest.raises(ProposalError):
            open_proposal(dao, proposer="stranger")

    def test_open_proposals_filtered_by_topic(self, dao):
        open_proposal(dao, topic="privacy")
        open_proposal(dao, topic="economy")
        assert len(dao.open_proposals()) == 2
        assert len(dao.open_proposals(topic="privacy")) == 1

    def test_unknown_proposal_rejected(self, dao):
        with pytest.raises(ProposalError):
            dao.proposal("nope")


class TestVoting:
    def test_ballot_lifecycle(self, dao):
        proposal = open_proposal(dao)
        dao.cast_ballot(proposal.proposal_id, "m0", "yes", time=1.0)
        assert len(dao.ballots_of(proposal.proposal_id)) == 1

    def test_non_member_cannot_vote(self, dao):
        proposal = open_proposal(dao)
        with pytest.raises(VotingError):
            dao.cast_ballot(proposal.proposal_id, "stranger", "yes", 1.0)

    def test_double_vote_rejected(self, dao):
        proposal = open_proposal(dao)
        dao.cast_ballot(proposal.proposal_id, "m0", "yes", 1.0)
        with pytest.raises(VotingError):
            dao.cast_ballot(proposal.proposal_id, "m0", "no", 2.0)

    def test_late_vote_rejected(self, dao):
        proposal = open_proposal(dao, voting_period=5.0)
        with pytest.raises(VotingError):
            dao.cast_ballot(proposal.proposal_id, "m0", "yes", time=6.0)

    def test_unknown_option_rejected(self, dao):
        proposal = open_proposal(dao)
        with pytest.raises(VotingError):
            dao.cast_ballot(proposal.proposal_id, "m0", "maybe", 1.0)

    def test_vote_on_closed_rejected(self, dao):
        proposal = open_proposal(dao)
        dao.close(proposal.proposal_id, time=1.0)
        with pytest.raises(VotingError):
            dao.cast_ballot(proposal.proposal_id, "m0", "yes", 2.0)


class TestTallyAndClose:
    def test_quorum_failure_expires(self, dao):
        proposal = open_proposal(dao)
        dao.cast_ballot(proposal.proposal_id, "m0", "yes", 1.0)  # 25% < 50%
        decision = dao.close(proposal.proposal_id, time=10.0)
        assert not decision.quorum_met
        assert dao.proposal(proposal.proposal_id).status is ProposalStatus.EXPIRED

    def test_pass_and_reject(self, dao):
        passing = open_proposal(dao)
        for m in ("m0", "m1", "m2"):
            dao.cast_ballot(passing.proposal_id, m, "yes", 1.0)
        assert dao.close(passing.proposal_id, 10.0).accepted

        failing = open_proposal(dao)
        for m in ("m0", "m1", "m2"):
            dao.cast_ballot(failing.proposal_id, m, "no", 1.0)
        decision = dao.close(failing.proposal_id, 10.0)
        assert decision.quorum_met and not decision.passed

    def test_double_close_rejected(self, dao):
        proposal = open_proposal(dao)
        dao.close(proposal.proposal_id, 1.0)
        with pytest.raises(ProposalError):
            dao.close(proposal.proposal_id, 2.0)

    def test_close_due_only_closes_expired_deadlines(self, dao):
        soon = open_proposal(dao, voting_period=2.0)
        later = open_proposal(dao, voting_period=20.0)
        decisions = dao.close_due(time=5.0)
        assert len(decisions) == 1
        assert dao.proposal(soon.proposal_id).status is not ProposalStatus.OPEN
        assert dao.proposal(later.proposal_id).is_open

    def test_token_weighted_tally(self):
        dao = DAO("tw", scheme=None, rule=TurnoutQuorum(0.1))
        dao.scheme = TokenWeighted(dao.members.tokens_of)
        dao.add_member(Member(address="whale", tokens=100))
        dao.add_member(Member(address="m1", tokens=1))
        dao.add_member(Member(address="m2", tokens=1))
        proposal = dao.submit_proposal(
            "t", "whale", "x", created_at=0.0, voting_period=10.0
        )
        dao.cast_ballot(proposal.proposal_id, "whale", "yes", 1.0)
        dao.cast_ballot(proposal.proposal_id, "m1", "no", 1.0)
        dao.cast_ballot(proposal.proposal_id, "m2", "no", 1.0)
        tally = dao.tally(proposal.proposal_id)
        assert tally.weights["yes"] == 100.0
        assert tally.winner() == "yes"


class TestDelegatedTally:
    def test_delegate_carries_weight(self, dao):
        proposal = open_proposal(dao)
        dao.delegations.delegate("m1", "m0")
        dao.cast_ballot(proposal.proposal_id, "m0", "yes", 1.0)
        tally = dao.tally(proposal.proposal_id)
        assert tally.weights["yes"] == 2.0  # m0 + carried m1
        assert tally.voters == 2

    def test_direct_vote_overrides_delegation(self, dao):
        proposal = open_proposal(dao)
        dao.delegations.delegate("m1", "m0")
        dao.cast_ballot(proposal.proposal_id, "m0", "yes", 1.0)
        dao.cast_ballot(proposal.proposal_id, "m1", "no", 1.0)
        tally = dao.tally(proposal.proposal_id)
        assert tally.weights == {"yes": 1.0, "no": 1.0, "abstain": 0.0}

    def test_transitive_delegation_carries(self, dao):
        proposal = open_proposal(dao)
        dao.delegations.delegate("m1", "m2")
        dao.delegations.delegate("m2", "m0")
        dao.cast_ballot(proposal.proposal_id, "m0", "yes", 1.0)
        tally = dao.tally(proposal.proposal_id)
        assert tally.weights["yes"] == 3.0

    def test_delegation_to_non_voter_carries_nothing(self, dao):
        proposal = open_proposal(dao)
        dao.delegations.delegate("m1", "m3")  # m3 never votes
        dao.cast_ballot(proposal.proposal_id, "m0", "yes", 1.0)
        tally = dao.tally(proposal.proposal_id)
        assert tally.weights["yes"] == 1.0


class TestExecutionAndAnchor:
    def test_execute_passed_proposal(self, dao):
        executed = []
        proposal = open_proposal(dao, action=lambda p: executed.append(1))
        for m in ("m0", "m1", "m2"):
            dao.cast_ballot(proposal.proposal_id, m, "yes", 1.0)
        dao.close(proposal.proposal_id, 10.0)
        dao.execute(proposal.proposal_id)
        assert executed == [1]
        assert dao.executed_count == 1

    def test_anchor_called_on_close(self):
        anchored = []
        dao = DAO(
            "anchored",
            anchor=lambda name, p, d, t: anchored.append((name, p.proposal_id)),
        )
        dao.add_member(Member(address="m0"))
        proposal = dao.submit_proposal(
            "t", "m0", "x", created_at=0.0, voting_period=5.0
        )
        dao.close(proposal.proposal_id, 5.0)
        assert anchored == [("anchored", proposal.proposal_id)]

    def test_participation_stats(self, dao):
        proposal = open_proposal(dao)
        dao.cast_ballot(proposal.proposal_id, "m0", "yes", 1.0)
        dao.cast_ballot(proposal.proposal_id, "m1", "yes", 1.0)
        dao.close(proposal.proposal_id, 4.0)
        stats = dao.participation_stats()
        assert stats["closed"] == 1.0
        assert stats["mean_turnout"] == 0.5
        assert stats["mean_latency"] == 4.0

    def test_remove_member_clears_delegation(self, dao):
        dao.delegations.delegate("m1", "m2")
        dao.remove_member("m1")
        assert dao.delegations.delegate_of("m1") is None


def _member_walk_tally(dao, proposal_id):
    """The tally as a walk over every member: each non-voter's terminal
    delegate carries their weight if that delegate voted, then every
    direct ballot adds its caster's weight, in casting order."""
    ballots = {b.voter: b for b in dao.ballots_of(proposal_id)}
    weights = {option: 0.0 for option in dao.proposal(proposal_id).options}
    carried = 0
    for address in dao.members.addresses():
        if address in ballots:
            continue
        terminal = dao.delegations.resolve(address)
        if terminal != address and terminal in ballots:
            weights[ballots[terminal].option] += dao.scheme.weight_of(address)
            carried += 1
    for ballot in ballots.values():
        weights[ballot.option] += dao.scheme.weight_of(ballot.voter)
    return Tally(
        weights=weights, voters=len(ballots) + carried, eligible=len(dao.members)
    )


def _seeded_program(seed, token_weights, delegations):
    """A DAO of 40 members with seeded holdings, delegation edges and
    ballots on one proposal."""
    rng = np.random.default_rng(seed)
    dao = DAO(f"program-{seed}")
    if token_weights:
        dao.scheme = TokenWeighted(dao.members.tokens_of)
    addresses = [f"m{i:02d}" for i in range(40)]
    for address in addresses:
        dao.add_member(
            Member(address=address, tokens=float(rng.uniform(0.1, 50.0)))
        )
    for _ in range(delegations):
        member, delegate = rng.choice(addresses, size=2, replace=False)
        try:
            dao.delegations.delegate(str(member), str(delegate))
        except VotingError:
            pass  # would close a cycle
    proposal = dao.submit_proposal(
        "p", addresses[0], "x", created_at=0.0, voting_period=10.0
    )
    for address in rng.permutation(addresses)[: int(rng.integers(1, 30))]:
        dao.cast_ballot(
            proposal.proposal_id, str(address),
            str(rng.choice(["yes", "no", "abstain"])), time=1.0,
        )
    return dao, proposal.proposal_id


class TestTallyAgainstMemberWalk:
    @pytest.mark.parametrize("token_weights", [False, True])
    @pytest.mark.parametrize("delegations", [0, 25])
    @pytest.mark.parametrize("seed", range(6))
    def test_equal_on_seeded_programs(self, seed, token_weights, delegations):
        dao, proposal_id = _seeded_program(seed, token_weights, delegations)
        assert (len(dao.delegations) > 0) == (delegations > 0)
        tally = dao.tally(proposal_id)
        assert tally == _member_walk_tally(dao, proposal_id)

    def test_programs_with_edges_carry_votes(self):
        carried = 0
        for seed in range(6):
            dao, proposal_id = _seeded_program(seed, False, 25)
            tally = dao.tally(proposal_id)
            carried += tally.voters - len(dao.ballots_of(proposal_id))
        assert carried > 0  # the delegation walk mattered somewhere
