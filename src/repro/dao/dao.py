"""The DAO engine: proposals, ballots, delegation-aware tallies.

One :class:`DAO` is one decision-making body.  It owns a member
registry, a voting scheme, a decision rule, and (optionally) a ledger
anchor that writes every outcome to the blockchain's voting contract for
public auditability ("these decision algorithms should be transparent to
every member of the metaverse", §IV-C).

Liquid democracy: members may delegate their voice per-DAO; a direct
ballot always overrides the member's delegation, and a delegate's ballot
carries the weight of everyone who terminally resolves to them and did
not vote directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.dao.delegation import DelegationGraph
from repro.dao.members import Member, MemberRegistry
from repro.dao.proposals import Proposal, ProposalFactory, ProposalStatus
from repro.dao.quorum import Decision, DecisionRule, TurnoutQuorum
from repro.dao.voting import Ballot, OneMemberOneVote, Tally, VotingScheme
from repro.errors import ProposalError, VotingError
from repro.obs.instrument import NULL_OBS, Instrumentation

__all__ = ["DAO", "LedgerAnchor"]


# Callback invoked with (dao_name, proposal, decision, tally) after close.
LedgerAnchor = Callable[[str, Proposal, Decision, Tally], None]


@dataclass
class _ProposalRecord:
    proposal: Proposal
    ballots: Dict[str, Ballot] = field(default_factory=dict)


class DAO:
    """A decentralized autonomous organization.

    Parameters
    ----------
    name:
        Human-readable identifier (also used in ledger anchors).
    scheme:
        Voting scheme; defaults to flat one-member-one-vote.
    rule:
        Acceptance rule; defaults to 20% turnout quorum + plurality.
    anchor:
        Optional callback anchoring closed outcomes on a ledger.
    obs:
        Optional observability instrumentation; proposal lifecycle
        (submit → ballots → close → execute) emits spans and events.
    """

    def __init__(
        self,
        name: str,
        scheme: Optional[VotingScheme] = None,
        rule: Optional[DecisionRule] = None,
        anchor: Optional[LedgerAnchor] = None,
        obs: Optional[Instrumentation] = None,
    ):
        self.name = name
        self.members = MemberRegistry()
        self.scheme = scheme if scheme is not None else OneMemberOneVote()
        self.rule = rule if rule is not None else TurnoutQuorum(0.2)
        self.delegations = DelegationGraph()
        self._factory = ProposalFactory(prefix=f"{name}-prop")
        self._records: Dict[str, _ProposalRecord] = {}
        self._anchor = anchor
        self._obs = obs if obs is not None else NULL_OBS
        self.executed_count = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_member(self, member: Member) -> None:
        self.members.add(member)

    def remove_member(self, address: str) -> None:
        self.members.remove(address)
        self.delegations.revoke(address)

    # ------------------------------------------------------------------
    # Proposals
    # ------------------------------------------------------------------
    def submit_proposal(
        self,
        title: str,
        proposer: str,
        topic: str,
        created_at: float,
        voting_period: float,
        **kwargs: Any,
    ) -> Proposal:
        """Open a proposal; the proposer must be a member."""
        if proposer not in self.members:
            raise ProposalError(
                f"{proposer[:12]} is not a member of DAO {self.name!r}"
            )
        proposal = self._factory.create(
            title=title,
            proposer=proposer,
            topic=topic,
            created_at=created_at,
            voting_period=voting_period,
            **kwargs,
        )
        self._records[proposal.proposal_id] = _ProposalRecord(proposal)
        self._obs.counter(f"dao.{self.name}.proposals_submitted").inc()
        self._obs.event(
            "dao",
            "proposal.submitted",
            time=created_at,
            dao=self.name,
            proposal_id=proposal.proposal_id,
            proposer=proposer,
            topic=topic,
            deadline=proposal.voting_deadline,
        )
        return proposal

    def proposal(self, proposal_id: str) -> Proposal:
        record = self._records.get(proposal_id)
        if record is None:
            raise ProposalError(f"no proposal {proposal_id} in DAO {self.name!r}")
        return record.proposal

    def proposals(self, status: Optional[ProposalStatus] = None) -> List[Proposal]:
        out = [r.proposal for r in self._records.values()]
        if status is not None:
            out = [p for p in out if p.status is status]
        return out

    def open_proposals(self, topic: Optional[str] = None) -> List[Proposal]:
        out = [p for p in self.proposals(ProposalStatus.OPEN)]
        if topic is not None:
            out = [p for p in out if p.topic == topic]
        return out

    # ------------------------------------------------------------------
    # Voting
    # ------------------------------------------------------------------
    def cast_ballot(self, proposal_id: str, voter: str, option: str, time: float) -> Ballot:
        """Record a ballot.

        Raises
        ------
        VotingError
            If the voter is not a member, already voted, the proposal is
            closed, the deadline passed, or the option is unknown.
        """
        record = self._record(proposal_id)
        proposal = record.proposal
        if voter not in self.members:
            raise VotingError(f"{voter[:12]} is not a member of DAO {self.name!r}")
        if not proposal.is_open:
            raise VotingError(f"proposal {proposal_id} is {proposal.status.value}")
        if time > proposal.voting_deadline:
            raise VotingError(
                f"proposal {proposal_id}: deadline {proposal.voting_deadline} "
                f"passed (t={time})"
            )
        if voter in record.ballots:
            raise VotingError(f"{voter[:12]} already voted on {proposal_id}")
        if option not in proposal.options:
            raise VotingError(
                f"{option!r} is not an option of {proposal_id} "
                f"(options: {proposal.options})"
            )
        ballot = Ballot(voter=voter, option=option, cast_at=time)
        record.ballots[voter] = ballot
        self._obs.counter(f"dao.{self.name}.ballots_cast").inc()
        self._obs.event(
            "dao",
            "ballot.cast",
            time=time,
            dao=self.name,
            proposal_id=proposal_id,
            voter=voter,
            option=option,
        )
        return ballot

    def ballots_of(self, proposal_id: str) -> List[Ballot]:
        return list(self._record(proposal_id).ballots.values())

    def tally(self, proposal_id: str) -> Tally:
        """Delegation-aware tally of current ballots.

        A delegate's ballot carries the scheme weight of every member
        who terminally resolves to them and did not vote directly; a
        direct ballot always overrides its caster's delegation.
        """
        record = self._record(proposal_id)
        proposal = record.proposal
        direct_voters = set(record.ballots)
        weights: Dict[str, float] = {option: 0.0 for option in proposal.options}
        carried_voters = 0
        # With no delegation edges every member resolves to themselves
        # and carries no one's voice: the walk would add nothing.
        members = self.members.addresses() if len(self.delegations) else ()
        for address in members:
            if address in direct_voters:
                continue
            terminal = self.delegations.resolve(address)
            if terminal != address and terminal in direct_voters:
                ballot = record.ballots[terminal]
                weights[ballot.option] += self.scheme.weight_of(address)
                carried_voters += 1
        for ballot in record.ballots.values():
            weights[ballot.option] += self.scheme.weight_of(ballot.voter)
        return Tally(
            weights=weights,
            voters=len(direct_voters) + carried_voters,
            eligible=len(self.members),
        )

    # ------------------------------------------------------------------
    # Closing
    # ------------------------------------------------------------------
    def close(self, proposal_id: str, time: float) -> Decision:
        """Tally, decide, transition the proposal, and anchor the result.

        A proposal that fails quorum at its deadline is EXPIRED (the
        paper's "cumbersome voting sessions" failure mode); with quorum
        it is PASSED or REJECTED by the decision rule.
        """
        record = self._record(proposal_id)
        proposal = record.proposal
        if not proposal.is_open:
            raise ProposalError(
                f"proposal {proposal_id} already {proposal.status.value}"
            )
        with self._obs.span(
            "dao",
            "proposal.close",
            time=time,
            dao=self.name,
            proposal_id=proposal_id,
        ) as span:
            tally = self.tally(proposal_id)
            decision = self.rule.decide(tally)
            if not decision.quorum_met:
                proposal.mark(ProposalStatus.EXPIRED, time, result=dict(tally.weights))
            elif decision.passed:
                proposal.mark(ProposalStatus.PASSED, time, result=dict(tally.weights))
            else:
                proposal.mark(ProposalStatus.REJECTED, time, result=dict(tally.weights))
            span.set_attribute("outcome", proposal.status.value)
            span.set_attribute("turnout", tally.turnout)
            span.set_attribute("voters", tally.voters)
            self._obs.counter(f"dao.{self.name}.closed.{proposal.status.value}").inc()
            self._obs.histogram(f"dao.{self.name}.turnout").observe(tally.turnout)
            if self._anchor is not None:
                self._anchor(self.name, proposal, decision, tally)
        return decision

    def execute(self, proposal_id: str) -> Any:
        """Execute a PASSED proposal's action."""
        outcome = self.proposal(proposal_id).execute()
        self.executed_count += 1
        self._obs.counter(f"dao.{self.name}.executed").inc()
        self._obs.event(
            "dao",
            "proposal.executed",
            dao=self.name,
            proposal_id=proposal_id,
        )
        return outcome

    def close_due(self, time: float) -> List[Decision]:
        """Close every open proposal whose deadline has passed."""
        decisions = []
        for proposal in list(self.open_proposals()):
            if time >= proposal.voting_deadline:
                decisions.append(self.close(proposal.proposal_id, time))
        return decisions

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def turnout_samples(self) -> List[float]:
        """Per-proposal turnout over closed proposals — the raw
        distribution behind ``participation_stats``'s mean, for
        benchmarks that sketch whole turnout distributions."""
        eligible = max(1, len(self.members))
        return [
            len(self._records[p.proposal_id].ballots) / eligible
            for p in self.proposals()
            if not p.is_open
        ]

    def participation_stats(self) -> Dict[str, float]:
        """Mean turnout and decision latency over closed proposals."""
        closed = [p for p in self.proposals() if not p.is_open]
        if not closed:
            return {"closed": 0, "mean_turnout": 0.0, "mean_latency": 0.0,
                    "expired_fraction": 0.0}
        turnouts = []
        latencies = []
        expired = 0
        for proposal in closed:
            record = self._records[proposal.proposal_id]
            eligible = max(1, len(self.members))
            turnouts.append(len(record.ballots) / eligible)
            if proposal.decision_latency is not None:
                latencies.append(proposal.decision_latency)
            if proposal.status is ProposalStatus.EXPIRED:
                expired += 1
        return {
            "closed": float(len(closed)),
            "mean_turnout": sum(turnouts) / len(turnouts),
            "mean_latency": sum(latencies) / len(latencies) if latencies else 0.0,
            "expired_fraction": expired / len(closed),
        }

    def _record(self, proposal_id: str) -> _ProposalRecord:
        record = self._records.get(proposal_id)
        if record is None:
            raise ProposalError(f"no proposal {proposal_id} in DAO {self.name!r}")
        return record
