"""Shard-local epoch work: what runs inside a worker process.

:func:`run_shard_epoch` is a **pure function** of its
:class:`ShardTask`: given the same task it returns the same
:class:`ShardEpochResult` bytes whether it runs inline, in the first of
four workers, or alone in a one-process pool.  That purity — plus the
ordered reduction in :mod:`repro.workloads.load` — is the entire
determinism argument for ``run_load(workers=K)``.

What is shard-local (runs here, in parallel):

* **transaction draws + tx-id hashing** — senders are shard-owned, so
  nonce chains never race; each transfer's canonical encoding and hash
  (the CPU cost of admission) are computed here from its field values
  and its parties' addresses, and the parent builds one pinned record
  per transfer with that id;
* **trust-rating / report edge generation** — edge deltas may point at
  any shard (cross-shard edges are plain data; they merge at the
  barrier);
* **abuse classification + report willingness** — the vectorized
  Bernoulli passes over the shard's interaction batch;
* **privacy frame synthesis + budget admission** — hot subjects are
  shard-partitioned, so each worker synthesizes its frames as one
  columnar :class:`~repro.privacy.sensors.FrameBatch`, charges a
  private snapshot of its subjects' spends and *predicts* exactly what
  the authoritative pipeline will decide at the barrier (the parent
  asserts the match — the "local apply" half of the two-phase
  protocol);
* **cascade rounds over shard-interior edges** — each shard owns a
  social subgraph; cross-shard edges are withheld from the cascade and
  exchanged at the epoch barrier by the parent.

What is **not** shard-local (runs at the parent's epoch barrier, in
shard-id order): mempool/chain state, the EigenTrust solve, DAO tally,
the moderation case queue, the privacy pipeline's authoritative
consent/PET/budget/disclosure stages, and all metric observation.

Agents travel as dense indices.  Frames name their subjects by index,
and the one phase that needs addresses, the transfers (for their ids),
derives them from the indices with
:func:`~repro.workloads.load.agent_address` and returns them beside the
indices, so the barrier records each party's address instead of
hashing it again.  No task ships an address and no process keeps one
between tasks.  The one per-process cache,
shard social graphs, holds only values that are pure functions of their
keys, so cache state can never make two schedules diverge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.governance.moderation import AbuseClassifier, ReportDesk
from repro.obs.context import derive_trace_id
from repro.ledger.transactions import transfer_id
from repro.parallel.plan import DEFAULT_COST_MODEL, Phase, ShardPlan
from repro.privacy.sensors import FrameBatch
from repro.social.graph import SocialGraph
from repro.social.misinformation import MisinformationModel
from repro.world.interactions import InteractionBatch

# NOTE: repro.workloads modules are imported lazily inside functions —
# the workloads package imports the load workload, which imports this
# package for its shard machinery (a deliberate layering: parallel is
# below workloads, except for the synthetic generators it reuses).

__all__ = [
    "ShardTask",
    "ShardEpochResult",
    "run_shard_epoch",
    "run_phase",
    "epoch_span_payload",
    "chunk_span_payloads",
    "phase_op_counts",
    "shard_graph",
    "warm_caches",
    "channel_of",
    "CHUNK_PHASES",
    "PHASE_NAMES",
    "FRAME_VALUE_DIMS",
]

# Dimensionality of synthetic sensor frames (small but non-trivial, so
# PETs have something real to obfuscate).
FRAME_VALUE_DIMS = 4


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker needs for one (shard, epoch) cell.

    Plain ints/floats/tuples plus two small arrays — cheap to pickle.
    The mutable cross-epoch state a shard depends on arrives as explicit
    snapshots (``base_nonce_slice``, ``hot_spent``), never via
    worker-process memory, so shard→process placement is free to change
    between epochs.
    """

    plan: ShardPlan
    shard: int
    epoch: int
    # Per-epoch quotas for this shard.
    tx_count: int
    rating_count: int
    report_count: int
    vote_count: int
    interaction_count: int
    frame_count: int
    # Snapshot state: the shard's contiguous slice of the nonce column
    # (next nonce per sender, indexed by ``sender - lo``) and its
    # hot-subject spends (aligned with ``plan.hot_subjects_of(shard)``).
    base_nonce_slice: np.ndarray
    hot_spent: np.ndarray
    # Privacy-phase constants.
    privacy_cap: float = 4.0
    channels: Tuple[Tuple[str, float], ...] = ()
    consent_denied_mod: int = 10
    # Cascade-phase constants (0 members disables the phase).
    cascade_members: int = 0
    cascade_boundary: int = 0
    # Cross-shard activations routed to this shard at the previous epoch
    # barrier: each one seeds an extra member in this epoch's cascade.
    carry_seeds: int = 0
    trace: bool = False


@dataclass
class ShardEpochResult:
    """One shard's contribution to one epoch barrier."""

    shard: int
    # Transactions, columnar; tx_ids are the worker-computed hashes.
    tx_senders: List[int] = field(default_factory=list)
    tx_recipients: List[int] = field(default_factory=list)
    tx_amounts: List[int] = field(default_factory=list)
    tx_fees: List[int] = field(default_factory=list)
    tx_nonces: List[int] = field(default_factory=list)
    tx_ids: List[str] = field(default_factory=list)
    # The parties' addresses the ids were hashed from, row for row.
    tx_sender_addresses: List[str] = field(default_factory=list)
    tx_recipient_addresses: List[str] = field(default_factory=list)
    # Reputation edge deltas (indices are global).
    rating_raters: List[int] = field(default_factory=list)
    rating_ratees: List[int] = field(default_factory=list)
    rating_weights: List[float] = field(default_factory=list)
    report_reporters: List[int] = field(default_factory=list)
    report_accused: List[int] = field(default_factory=list)
    report_severities: List[float] = field(default_factory=list)
    # Governance ballots.
    vote_voters: List[int] = field(default_factory=list)
    vote_yes: List[bool] = field(default_factory=list)
    # Moderation: the shard's columnar batch plus the worker-side
    # classification / report verdict rows (indices into the batch).
    interactions: Optional[InteractionBatch] = None
    flagged_rows: Optional[np.ndarray] = None
    report_rows: Optional[np.ndarray] = None
    # Privacy: synthesized frames plus the shard-local admission
    # prediction the parent validates against the real pipeline.
    frames: FrameBatch = field(default_factory=FrameBatch)
    predicted_outcomes: Dict[str, int] = field(default_factory=dict)
    # Cascade over shard-interior edges.
    cascade_reach: int = 0
    cascade_rounds: int = 0
    cascade_timeline: Tuple[int, ...] = ()
    boundary_reached: Tuple[bool, ...] = ()
    # Optional span payloads for the parent tracer to merge.
    span_payloads: List[dict] = field(default_factory=list)
    # Wall seconds spent per phase, keyed by PHASE_NAMES values.  Timing
    # only — it feeds the shard-imbalance monitor and MUST never enter
    # metrics, traces, or any compared payload.
    phase_seconds: Dict[str, float] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Per-process cache (a pure function of its key)
# ----------------------------------------------------------------------
_GRAPH_CACHE: Dict[Tuple[int, int, int, int], SocialGraph] = {}


def shard_graph(plan: ShardPlan, shard: int, members: int) -> SocialGraph:
    """The shard's social subgraph (scale-free over its first members).

    Topology depends only on ``(seed, n_shards, shard, members)`` — the
    epoch-independent :data:`Phase.GRAPH` stream — so every process that
    ever builds this shard's graph builds the same one.  Cached per
    process; on fork platforms a parent-side prebuild is inherited by
    the whole pool.
    """
    key = (plan.seed, plan.n_shards, shard, members)
    graph = _GRAPH_CACHE.get(key)
    if graph is None:
        rng = plan.rng(shard, 0, Phase.GRAPH)
        # Barabási–Albert needs attachment < members; tiny shards (2-3
        # cascade members) clamp down instead of crashing the phase.
        graph = SocialGraph.scale_free(
            members, attachment=min(3, members - 1), rng=rng,
            prefix=f"s{shard}-m",
        )
        graph.csr()  # compile once; cascades then run warm
        _GRAPH_CACHE[key] = graph
    return graph


def warm_caches(plan: ShardPlan, cascade_members: int) -> None:
    """Pre-build every shard's social graph for ``plan`` in this process.

    Called before pool creation so fork-platform workers inherit the
    graphs instead of each process rebuilding them lazily (identical
    results either way — this is purely a cost optimisation, which is
    why it is safe).
    """
    if cascade_members > 0:
        for shard in range(plan.n_shards):
            members = min(cascade_members, plan.size_of(shard))
            if members >= 2:
                shard_graph(plan, shard, members)


# ----------------------------------------------------------------------
# The worker entry point
# ----------------------------------------------------------------------

# The shard-local phases of one (shard, epoch) cell, in run order.  Each
# phase is one ``shard.chunk`` span in the trace, and chunk ids are
# stable: chunk ``c`` of any shard always means ``CHUNK_PHASES[c]``.
CHUNK_PHASES: Tuple[int, ...] = (
    Phase.TRANSACTIONS,
    Phase.RATINGS,
    Phase.REPORTS,
    Phase.VOTES,
    Phase.INTERACTIONS,
    Phase.FRAMES,
    Phase.CASCADE,
)

PHASE_NAMES: Dict[int, str] = {
    Phase.TRANSACTIONS: "transactions",
    Phase.RATINGS: "ratings",
    Phase.REPORTS: "reports",
    Phase.VOTES: "votes",
    Phase.INTERACTIONS: "interactions",
    Phase.FRAMES: "frames",
    Phase.CASCADE: "cascade",
}

# Cost-model attribute charged per op of each phase (for span
# attribution and the planner's profile).
_PHASE_COST_ATTR: Dict[int, str] = {
    Phase.TRANSACTIONS: "tx",
    Phase.RATINGS: "rating",
    Phase.REPORTS: "report",
    Phase.VOTES: "vote",
    Phase.INTERACTIONS: "interaction",
    Phase.FRAMES: "frame",
    Phase.CASCADE: "cascade",
}


def run_phase(task: ShardTask, result: ShardEpochResult, phase: int) -> None:
    """Run one shard-local phase into ``result``.

    Each phase draws only its own ``(shard, epoch, phase)`` stream and
    writes only its own result fields, so phases are independent units.
    """
    plan = task.plan
    lo, hi = plan.range_of(task.shard)
    size = hi - lo
    now = float(task.epoch)
    if phase == Phase.TRANSACTIONS:
        _generate_transactions(task, result, lo, size, now)
    elif phase == Phase.RATINGS:
        _generate_ratings(task, result, lo, size)
    elif phase == Phase.REPORTS:
        _generate_reports(task, result, lo, size)
    elif phase == Phase.VOTES:
        _generate_votes(task, result)
    elif phase == Phase.INTERACTIONS:
        _moderation_prepass(task, result, lo, size, now)
    elif phase == Phase.FRAMES:
        _privacy_prepass(task, result, now)
    elif phase == Phase.CASCADE:
        _cascade_rounds(task, result, size)
    else:
        raise ValueError(f"not a shard-local phase: {phase}")


def phase_op_counts(result: ShardEpochResult) -> Dict[int, int]:
    """Deterministic op counts per phase, read off a (merged) result."""
    return {
        Phase.TRANSACTIONS: len(result.tx_ids),
        Phase.RATINGS: len(result.rating_raters),
        Phase.REPORTS: len(result.report_reporters),
        Phase.VOTES: len(result.vote_voters),
        Phase.INTERACTIONS: (
            len(result.interactions) if result.interactions is not None else 0
        ),
        Phase.FRAMES: len(result.frames),
        Phase.CASCADE: result.cascade_reach,
    }


def epoch_span_payload(task: ShardTask, result: ShardEpochResult) -> dict:
    """The shard's epoch span, as a payload for the parent tracer.

    A pure function of ``(task, result)``, so traces are byte-identical
    regardless of scheduling.
    """
    now = float(task.epoch)
    return {
        "source": "parallel.worker",
        "name": "shard.epoch",
        # A pure function of (seed, shard, epoch): the merged
        # span keeps the same trace id for any worker count.
        "trace_id": derive_trace_id(
            "shard", task.plan.seed, task.shard, task.epoch
        ),
        "start": now,
        "end": now + 0.9,
        "status": "ok",
        "attributes": {
            "shard": task.shard,
            "epoch": task.epoch,
            "chunks": len(CHUNK_PHASES),
            "txs": len(result.tx_ids),
            "ratings": len(result.rating_raters),
            "reports": len(result.report_reporters),
            "votes": len(result.vote_voters),
            "interactions": (
                len(result.interactions)
                if result.interactions is not None
                else 0
            ),
            "frames": len(result.frames),
            "cascade_reach": result.cascade_reach,
        },
    }


def chunk_span_payloads(
    task: ShardTask, result: ShardEpochResult
) -> List[dict]:
    """Per-chunk attribution spans under the shard's epoch trace.

    One span per ``(shard, chunk)``, carrying the chunk's deterministic
    op count and cost units (:data:`~repro.parallel.plan.DEFAULT_COST_MODEL`
    prices).  Start/end are simulated-time offsets — pure functions of
    the epoch and chunk id, never wall clock — so the emitted trace
    bytes cannot depend on which worker ran the shard.
    """
    now = float(task.epoch)
    trace_id = derive_trace_id(
        "shard", task.plan.seed, task.shard, task.epoch
    )
    ops = phase_op_counts(result)
    costs = DEFAULT_COST_MODEL.as_dict()
    payloads = []
    for chunk, phase in enumerate(CHUNK_PHASES):
        start = now + chunk / 10.0
        payloads.append(
            {
                "source": "parallel.worker",
                "name": "shard.chunk",
                "trace_id": trace_id,
                "start": start,
                "end": start + 0.1,
                "status": "ok",
                "attributes": {
                    "shard": task.shard,
                    "epoch": task.epoch,
                    "chunk": chunk,
                    "phase": PHASE_NAMES[phase],
                    "ops": ops[phase],
                    "cost_units": ops[phase] * costs[_PHASE_COST_ATTR[phase]],
                },
            }
        )
    return payloads


def run_shard_epoch(task: ShardTask) -> ShardEpochResult:
    """Run every shard-local phase of one epoch; see the module docstring."""
    result = ShardEpochResult(shard=task.shard)
    for phase in CHUNK_PHASES:
        t0 = perf_counter()
        run_phase(task, result, phase)
        result.phase_seconds[PHASE_NAMES[phase]] = perf_counter() - t0

    if task.trace:
        result.span_payloads.append(epoch_span_payload(task, result))
        result.span_payloads.extend(chunk_span_payloads(task, result))
    return result


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
def _generate_transactions(
    task: ShardTask,
    result: ShardEpochResult,
    lo: int,
    size: int,
    now: float,
) -> None:
    """Draw this shard's transfers as columns and hash their ids here.

    Senders are shard-local (the shard owns their nonce chains);
    recipients are drawn over the whole population, so a transfer may
    credit another shard — the debit is validated locally, the credit is
    applied by the parent ledger at the barrier (two-phase).  Each
    transfer takes four draws — sender, recipient, amount, fee — in that
    order; one ``integers`` call with per-element bounds draws exactly
    the values (and leaves the stream where) ``4 * tx_count`` scalar
    calls would.  Each sender's nonces run on from its base nonce in
    draw order, and the id is
    :func:`~repro.ledger.transactions.transfer_id` of the field values
    and the parties' addresses: no transaction object is built.  The
    addresses go back with the result, so the barrier does not derive
    them again.
    """
    count = task.tx_count
    if count <= 0:
        return
    from repro.workloads.load import agent_address

    n_agents = task.plan.n_agents
    rng = task.plan.rng(task.shard, task.epoch, Phase.TRANSACTIONS)
    draws = rng.integers(
        np.tile(np.array([0, 0, 1, 1]), count),
        np.tile(np.array([size, n_agents, 51, 101]), count),
    ).reshape(count, 4)
    senders = lo + draws[:, 0]
    recipients = draws[:, 1]
    clash = recipients == senders
    recipients[clash] = (recipients[clash] + 1) % n_agents
    # A transfer's nonce is its sender's base nonce plus the number of
    # the sender's earlier transfers this epoch.
    order = np.argsort(senders, kind="stable")
    ordered = senders[order]
    starts = np.ones(count, dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    positions = np.arange(count)
    earlier = np.empty(count, dtype=np.int64)
    earlier[order] = positions - np.maximum.accumulate(
        np.where(starts, positions, 0)
    )
    nonces = task.base_nonce_slice[senders - lo].astype(np.int64) + earlier

    result.tx_senders = senders.tolist()
    result.tx_recipients = recipients.tolist()
    result.tx_amounts = draws[:, 2].tolist()
    result.tx_fees = draws[:, 3].tolist()
    result.tx_nonces = nonces.tolist()
    result.tx_sender_addresses = list(map(agent_address, result.tx_senders))
    result.tx_recipient_addresses = list(
        map(agent_address, result.tx_recipients)
    )
    result.tx_ids = list(
        map(
            transfer_id,
            result.tx_sender_addresses,
            result.tx_recipient_addresses,
            result.tx_amounts,
            result.tx_fees,
            result.tx_nonces,
        )
    )


def _generate_ratings(
    task: ShardTask, result: ShardEpochResult, lo: int, size: int
) -> None:
    if task.rating_count <= 0:
        return
    rng = task.plan.rng(task.shard, task.epoch, Phase.RATINGS)
    n = task.plan.n_agents
    for _ in range(task.rating_count):
        rater = lo + int(rng.integers(size))
        ratee = int(rng.integers(n))
        if ratee == rater:
            ratee = (ratee + 1) % n
        result.rating_raters.append(rater)
        result.rating_ratees.append(ratee)
        result.rating_weights.append(float(rng.uniform(0.1, 1.0)))


def _generate_reports(
    task: ShardTask, result: ShardEpochResult, lo: int, size: int
) -> None:
    if task.report_count <= 0:
        return
    rng = task.plan.rng(task.shard, task.epoch, Phase.REPORTS)
    n = task.plan.n_agents
    for _ in range(task.report_count):
        reporter = lo + int(rng.integers(size))
        accused = int(rng.integers(n))
        if accused == reporter:
            accused = (accused + 1) % n
        result.report_reporters.append(reporter)
        result.report_accused.append(accused)
        result.report_severities.append(float(rng.uniform(0.2, 1.0)))


def _generate_votes(task: ShardTask, result: ShardEpochResult) -> None:
    mlo, mhi = task.plan.member_range_of(task.shard)
    if task.vote_count <= 0 or mhi <= mlo:
        return
    rng = task.plan.rng(task.shard, task.epoch, Phase.VOTES)
    for _ in range(task.vote_count):
        result.vote_voters.append(mlo + int(rng.integers(mhi - mlo)))
        result.vote_yes.append(bool(rng.random() < 0.6))


def _moderation_prepass(
    task: ShardTask,
    result: ShardEpochResult,
    lo: int,
    size: int,
    now: float,
) -> None:
    """Generate the shard-interior interaction batch and classify it.

    Classification and report-willingness draws (the vectorized hot
    paths) run here on the shard's own stream; the stateful case queue,
    capacity-bounded review, and sanctions stay with the parent.
    """
    if task.interaction_count <= 0 or size < 2:
        return
    from repro.workloads.generators import synthetic_interaction_batch
    from repro.workloads.load import agent_address

    rng = task.plan.rng(task.shard, task.epoch, Phase.INTERACTIONS)
    batch = synthetic_interaction_batch(
        size,
        task.interaction_count,
        time=now,
        rng=rng,
        id_of=agent_address,
    )
    # Lift shard-local indices to global agent indices (the batch was
    # generated shard-interior: both endpoints stay inside the shard).
    batch.initiators += lo
    batch.targets += lo

    delivered_rows = np.flatnonzero(batch.delivered)
    flagged_rows = np.empty(0, dtype=np.int64)
    if delivered_rows.size:
        flags = AbuseClassifier(rng).flag_array(batch.abusive[delivered_rows])
        flagged_rows = delivered_rows[flags]
    report_rows = ReportDesk(rng).collect_batch(batch)

    result.interactions = batch
    result.flagged_rows = flagged_rows
    result.report_rows = report_rows


def _privacy_prepass(
    task: ShardTask,
    result: ShardEpochResult,
    now: float,
) -> None:
    """Synthesize the shard's sensor frames and charge a local budget.

    The worker replays the authoritative pipeline's admission logic —
    consent gate, then budget charges in offered order against the
    shipped spend snapshot — so its predicted outcome counts must match
    the parent's ``PrivacyPipeline.ingest_all`` exactly.  A mismatch
    means the two-phase protocol lost determinism and the parent raises.

    Hot subjects are shard-owned and the parent meters the merged batch
    in offered order (shard order, then this burst's order), so each
    subject's charges accumulate in the same order here as there.
    """
    hot = task.plan.hot_subjects_of(task.shard)
    if task.frame_count <= 0 or not hot or not task.channels:
        return
    from repro.workloads.generators import synthetic_frame_burst

    rng = task.plan.rng(task.shard, task.epoch, Phase.FRAMES)
    channel_eps = dict(task.channels)

    frames = synthetic_frame_burst(
        hot,
        task.frame_count,
        time=now,
        rng=rng,
        channel_of=lambda subject: channel_of(
            subject, task.channels, task.plan.hot_stride
        ),
        value_dims=FRAME_VALUE_DIMS,
    )

    # --- local apply: replicate ingest_all's admission, frame by frame.
    spent = dict(zip(hot, task.hot_spent.tolist()))
    released = blocked_consent = blocked_budget = 0
    for subject, channel in zip(frames.subjects, frames.channels):
        if not _consented(task, subject):
            blocked_consent += 1
            continue
        eps = channel_eps[channel]
        used = spent.get(subject, 0.0)
        if eps > max(0.0, task.privacy_cap - used) + 1e-12:
            blocked_budget += 1
            continue
        spent[subject] = used + eps
        released += 1

    result.frames = frames
    result.predicted_outcomes = {
        "released": released,
        "blocked_consent": blocked_consent,
        "blocked_budget": blocked_budget,
    }


def channel_of(
    subject: int, channels: Sequence[Tuple[str, float]], hot_stride: int
) -> str:
    """The one channel hot ``subject`` streams on, fixed by its hot rank
    (``subject // hot_stride``) among ``(channel, epsilon)`` pairs."""
    rank = subject // hot_stride
    return channels[rank % len(channels)][0]


def _consented(task: ShardTask, subject: int) -> bool:
    """The static consent rule: every ``consent_denied_mod``-th hot
    subject (by hot rank) never opted in — so the consent gate carries
    real refusal traffic at any scale."""
    if task.consent_denied_mod <= 0:
        return True
    rank = subject // task.plan.hot_stride
    return rank % task.consent_denied_mod != 0


def _cascade_rounds(
    task: ShardTask, result: ShardEpochResult, size: int
) -> None:
    """One misinformation cascade over the shard's interior edges.

    Cross-shard social ties are *not* in this graph; they are exchanged
    at the epoch barrier (the parent draws the boundary activations in
    global shard order).  ``boundary_reached`` reports which designated
    boundary members this cascade reached, i.e. which cross-shard edges
    have a live source; ``carry_seeds`` activations routed *to* this
    shard at the previous barrier seed extra members now.
    """
    members = min(task.cascade_members, size)
    if members < 2:
        return
    graph = shard_graph(task.plan, task.shard, members)
    rng = task.plan.rng(task.shard, task.epoch, Phase.CASCADE)
    model = MisinformationModel(graph, rng)
    ordered = graph.sorted_members()
    n_seeds = min(2 + max(0, task.carry_seeds), len(ordered))
    seeds = list(ordered[:n_seeds])
    spread = model.spread(seeds)

    boundary = max(0, min(task.cascade_boundary, members))
    boundary_members = ordered[len(ordered) - boundary :] if boundary else ()
    result.cascade_reach = spread.reach
    result.cascade_rounds = spread.rounds
    result.cascade_timeline = tuple(spread.timeline)
    result.boundary_reached = tuple(
        member in spread.reached for member in boundary_members
    )
