"""Population-scale load workload: the scaling story made executable.

The paper's governance mechanisms are proposed for platforms with
*millions* of concurrent users; the unit scenarios elsewhere in this
package run dozens.  This workload closes that gap: a seeded synthetic
population (100k agents by default) drives the hot substrate paths for N
epochs —

* **transactions** — fee-market transfers through the mempool's indexed
  selection into blocks;
* **trust ratings** — positive feedback into the reputation system,
  with the warm-started sparse EigenTrust solve refreshed every epoch;
* **reports** — negative feedback (misconduct reports) into the same
  reputation graph, with severities recorded;
* **votes** — one DAO proposal per epoch, ballots from a sampled
  electorate, closed at the epoch boundary;
* **moderation** — one columnar :class:`InteractionBatch` per epoch
  through the batched moderation pipeline (vectorized classification,
  reports, capacity-bounded review, graduated sanctions without a
  ``World``);
* **privacy** — one columnar :class:`~repro.privacy.sensors.FrameBatch`
  per epoch (each shard's burst, merged in shard order) through
  :meth:`PrivacyPipeline.ingest_all` (consent gate, per-channel Laplace
  PETs on whole value blocks, DP budget metering in offered order,
  disclosure), on a hot subject subset so caps genuinely exhaust;
* **cascades** — one misinformation cascade per shard per epoch over
  shard-interior social edges, cross-shard activations exchanged at the
  epoch barrier.

Sharded execution
-----------------
The society is partitioned into ``n_shards`` contiguous index ranges by
a :class:`~repro.parallel.plan.ShardPlan`; generation and the
embarrassingly-parallel admission work run per shard
(:func:`~repro.parallel.worker.run_shard_epoch`), and the serial
substrate state — chain, reputation solve, DAO tally, moderation queue,
privacy pipeline, metrics — advances at epoch barriers by folding the
shard results **in shard-id order**.  ``workers`` is purely a
scheduling knob: the shard structure (and hence every random stream) is
fixed by ``(seed, n_shards)``, workers are pure functions of their
tasks, and the reduction never observes completion order, so
``run_load(workers=K)`` returns byte-identical metrics and traces for
**any** K — the equivalence tests and benches assert it.

The epochs run as a pipeline of module-level stages over one run state
(``_Run``): set-up builds the substrates once (``_set_up``); then each
epoch plans its shard cuts (``_epoch_plan``), builds one task per shard
(``_shard_tasks``), executes the tasks on the pool, folds their timings
and cost profile (``_fold``) and applies them at the barriers, one
``_apply_*`` stage per substrate in the order ledger, reputation,
governance, moderation, privacy, cascade, trust.

Cross-shard effects use a two-phase protocol: transfer debits are
validated shard-locally (senders are shard-owned), credits to other
shards apply at the barrier through the parent ledger; workers predict
their privacy-budget admissions against a shipped spend snapshot and
the parent asserts the authoritative pipeline agreed; cascade boundary
activations are exchanged at the barrier by a parent-owned stream and
seed the neighbouring shard's cascade next epoch.

Everything is deterministic given the seed: agent addresses are hash
derived, no wall-clock value ever enters the metrics, and histograms
default to the bounded ``sketch`` backend so memory stays O(1) per
metric no matter how many samples stream through.

Signing is the one place the workload diverges from production objects:
real Lamport/Merkle wallets cost seconds *each* to derive, which at
100k agents would measure key generation rather than the ledger.  Each
transfer is instead one pinned
:class:`~repro.ledger.transactions.Transaction` (``verify()`` pinned
true; :func:`synthetic_transfer` builds one) — real hashes, real
nonce/balance semantics — so the mempool, block assembly, and state
machine all run their actual code paths at full population scale.  The
workers hash each transfer's id from its field values, the barrier
builds the one record per transfer with that id, and committed blocks
keep their bodies as columns, so no per-transfer object outlives its
block.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.dao.dao import DAO
from repro.dao.members import Member
from repro.errors import check_count
from repro.governance.moderation import (
    AbuseClassifier,
    HumanModeratorPool,
    ModerationService,
    ReportDesk,
)
from repro.governance.sanctions import GraduatedSanctionPolicy
from repro.ledger.chain import Blockchain
from repro.ledger.consensus import PoAConsensus
from repro.ledger.crypto import sha256
from repro.ledger.state import LedgerState
from repro.ledger.transactions import Transaction, TxKind
from repro.obs.exporters import trace_to_jsonl
from repro.obs.imbalance import ShardImbalance
from repro.obs.instrument import NULL_OBS, Instrumentation
from repro.obs.shipcost import ShipCost
from repro.parallel.plan import (
    DEFAULT_COST_MODEL,
    ShardPlan,
    activity_weights,
    blend_profile,
    split_weighted,
    weighted_boundaries,
)
from repro.parallel.pool import shared_pool
from repro.parallel.reduce import (
    check_shard_order,
    merge_boundary_activations,
    merge_interaction_batches,
    sum_predicted_outcomes,
)
from repro.parallel.worker import (
    ShardEpochResult,
    ShardTask,
    channel_of,
    run_shard_epoch,
    warm_caches,
)
from repro.privacy.budget import PrivacyBudget
from repro.privacy.consent import ConsentRegistry
from repro.privacy.pets import LaplaceMechanism
from repro.privacy.pipeline import PrivacyPipeline
from repro.privacy.sensors import FrameBatch
from repro.reputation.system import ReputationSystem
from repro.sim.heap import FrozenSetup, frozen_setup
from repro.sim.metrics import MetricsRegistry
from repro.sim.rng import RngRegistry
from repro.sim.tracing import TraceLog
from repro.world.columnar import AgentTable

__all__ = [
    "synthetic_transfer",
    "agent_address",
    "agent_addresses",
    "LoadRunResult",
    "run_load",
    "DEFAULT_CHANNELS",
    "HOT_STRIDE",
]


def synthetic_transfer(
    sender: str,
    recipient: str,
    amount: int,
    fee: int,
    nonce: int,
) -> Transaction:
    """A pinned TRANSFER ready for mempool admission."""
    return Transaction.pinned(sender, recipient, amount, fee, nonce)


# Addresses are pure in the agent index, so one growing process-global
# table serves every population size.  Hot per-epoch loops used to
# re-format and re-hash the string on every call; now the first request
# for a population bulk-generates the prefix once and every later call
# is a list index.
_ADDRESS_TABLE: List[str] = []


def _extend_address_table(n: int) -> None:
    start = len(_ADDRESS_TABLE)
    _ADDRESS_TABLE.extend(
        sha256(f"load-agent-{i}".encode()).hex() for i in range(start, n)
    )


def agent_address(i: int) -> str:
    """Deterministic 32-byte hex address for synthetic agent ``i``
    (served from the bulk-generated, memoized address table)."""
    if i >= len(_ADDRESS_TABLE):
        _extend_address_table(i + 1)
    return _ADDRESS_TABLE[i]


def agent_addresses(n: int) -> List[str]:
    """The first ``n`` agent addresses as a list (bulk-generated)."""
    if n > len(_ADDRESS_TABLE):
        _extend_address_table(n)
    return _ADDRESS_TABLE[:n]


# Privacy-hot subjects are agent indices 0, HOT_STRIDE, 2*HOT_STRIDE, …
# (~1% of the population), strided so every shard owns its share and
# budgets stay shard-local by construction.
HOT_STRIDE = 100

# Each shard's cascade designates its last CASCADE_BOUNDARY members (in
# sorted order) as the ends of its cross-shard ties; the barrier draws
# which of the reached ones activate the next shard.
CASCADE_BOUNDARY = 8

# (channel, epsilon-per-frame) for the per-channel Laplace PETs.  Each
# hot subject streams on exactly one channel, fixed by hot rank — see
# repro.parallel.worker.channel_of.
DEFAULT_CHANNELS: Tuple[Tuple[str, float], ...] = (
    ("gaze", 0.35),
    ("gait", 0.25),
    ("heart_rate", 0.45),
)

# Every CONSENT_DENIED_MOD-th hot subject (by hot rank) never opts in,
# so the consent gate carries real refusal traffic at any scale.
CONSENT_DENIED_MOD = 10


@dataclass(frozen=True)
class LoadRunResult:
    """Outcome of one load run; ``metrics`` is fully deterministic."""

    n_agents: int
    epochs: int
    workers: int
    n_shards: int
    chain_height: int
    txs_submitted: int
    txs_included: int
    ratings_recorded: int
    reports_filed: int
    votes_cast: int
    proposals_closed: int
    trust_computes: int
    trust_sweeps: int
    interactions_processed: int
    cases_opened: int
    cases_reviewed: int
    moderation_backlog: int
    frames_offered: int
    frames_released: int
    frames_blocked_consent: int
    frames_blocked_budget: int
    cascade_reach: int
    cascade_cross: int
    metrics: Dict[str, Any]
    trace_jsonl: Optional[str] = None
    # Column bytes per agent for the run's AgentTable.
    table_bytes_per_agent: float = 0.0
    # Wall-clock shard-imbalance report (max/mean shard seconds per
    # phase).  Timing, not semantics: excluded from equality so replay
    # comparisons never see the clock.
    imbalance: Optional[Dict[str, Dict[str, float]]] = field(
        default=None, compare=False
    )
    # Ship-cost report (bytes per epoch/phase/column crossing — or that
    # would cross — the process boundary).  Size measurement only, same
    # compare=False contract as ``imbalance``.
    ship_cost: Optional[Dict[str, Any]] = field(default=None, compare=False)


@dataclass
class _Run:
    """One run's state, threaded through the epoch stages.

    :func:`_set_up` fills the config and the substrates; :func:`_fold`
    keeps the profile the next epoch's plan cuts on, and the barriers
    advance the totals and the cascade carries.
    """

    # The config the stages read; ``mix`` maps each ``*_per_epoch``
    # parameter to its total.
    epochs: int
    mix: Dict[str, int]
    block_size: int
    privacy_cap: float
    cascade_members: int
    trace: bool
    # Built by set-up and used for the whole run.
    plan: ShardPlan
    activity: np.ndarray
    activity_cum: np.ndarray
    agents: List[str]
    table: AgentTable
    validator: str
    chain: Blockchain
    reputation: ReputationSystem
    dao: DAO
    moderation: ModerationService
    pipeline: PrivacyPipeline
    registry: MetricsRegistry
    obs: Optional[Instrumentation]
    trace_log: Optional[TraceLog]
    boundary_rng: np.random.Generator
    imbalance: ShardImbalance
    ship: ShipCost
    # Carried from one epoch to the next.
    carries: List[int]
    observed: Optional[np.ndarray] = None
    # Run totals.
    txs_submitted: int = 0
    txs_included: int = 0
    ratings: int = 0
    reports: int = 0
    votes_cast: int = 0
    proposals_closed: int = 0
    interactions_processed: int = 0
    cases_opened: int = 0
    cases_reviewed: int = 0
    cascade_reach: int = 0
    cascade_cross: int = 0


@frozen_setup
def run_load(
    setup: FrozenSetup,
    n_agents: int = 100_000,
    epochs: int = 5,
    seed: int = 2022,
    txs_per_epoch: int = 1_000,
    ratings_per_epoch: int = 500,
    reports_per_epoch: int = 200,
    votes_per_epoch: int = 300,
    block_size: int = 250,
    histogram_backend: str = "sketch",
    electorate_size: Optional[int] = 5_000,
    interactions_per_epoch: int = 2_000,
    frames_per_epoch: int = 2_000,
    privacy_cap: float = 4.0,
    cascade_members: int = 250,
    workers: int = 1,
    n_shards: Optional[int] = None,
    trace: bool = False,
    transport: str = "pickle",
) -> LoadRunResult:
    """Run the population-scale workload; see the module docstring.

    ``workers`` schedules the shard work (1 = inline serial path); it
    never changes results.  ``n_shards`` fixes the stream structure and
    *does* change results — it defaults to ``min(8, n_agents)``
    independently of ``workers`` precisely so scheduling and semantics
    stay decoupled.  Shard boundaries are cut so each shard carries
    ~equal expected cost under the heavy-tailed activity model, and they
    replan every epoch from the activity prior blended with the previous
    epoch's profiled per-agent cost units (deterministic op counts
    priced by :data:`~repro.parallel.plan.DEFAULT_COST_MODEL`, never wall
    clock).  ``electorate_size`` bounds DAO membership (member objects
    carry per-member attention state, which at full population size
    would be setup cost, not load); pass None to enrol every agent.
    ``privacy_cap`` is the per-subject epsilon cap; frames target the
    strided hot ~1% of the population so the cap actually binds.
    ``trace=True`` captures the obs-layer trace (parent epoch spans +
    merged worker spans + substrate spans) and returns its JSONL export.
    Metrics and traces are pure functions of the semantic config:
    ``workers`` never changes a byte.

    The society's hot state — genesis balances, the nonce tracker and
    the privacy-budget spent/cap accounting — lives in the columns of a
    struct-of-arrays :class:`~repro.world.columnar.AgentTable`.  Shard
    state reaches workers pickled inside each task: the shard's
    nonce-column slice and its hot subjects' spends.  ``transport`` has
    one legal value, ``"pickle"`` (the default); it stays only because
    the repository benchmark passes it, and a change to that benchmark
    can drop it.  The pickled task bytes land in
    ``LoadRunResult.ship_cost``.

    The config is checked before any set-up work: every count is an
    integer (not a ``bool``), ``n_agents``, ``block_size`` and
    ``electorate_size`` (unless None) must be at least 1, ``epochs``,
    ``cascade_members``, ``workers`` and every ``*_per_epoch`` count at
    least 0, ``n_shards`` None or in ``[1, n_agents]``; anything else
    raises ``ValueError`` naming the parameter.

    Everything built before the first epoch — address table, agent
    columns, trust index, DAO electorate — is built with the collector
    off and frozen (``gc.freeze``) for the epoch loop, so full
    collections do not re-traverse it.  On return or on an exception,
    set-up's included, the heap is unfrozen and the caller's collector
    flag restored.  If the caller has frozen objects of its own, nothing
    is frozen or unfrozen.  ``setup`` is supplied by
    :func:`~repro.sim.heap.frozen_setup`; callers pass the parameters
    after it.
    """
    mix = {
        "txs_per_epoch": txs_per_epoch,
        "ratings_per_epoch": ratings_per_epoch,
        "reports_per_epoch": reports_per_epoch,
        "votes_per_epoch": votes_per_epoch,
        "interactions_per_epoch": interactions_per_epoch,
        "frames_per_epoch": frames_per_epoch,
    }
    _check_config(
        n_agents, n_shards, electorate_size, block_size, transport,
        dict(epochs=epochs, cascade_members=cascade_members, workers=workers,
             **mix),
    )
    run = _set_up(
        n_agents=n_agents,
        n_shards=min(8, n_agents) if n_shards is None else int(n_shards),
        seed=seed,
        epochs=epochs,
        mix=mix,
        block_size=block_size,
        histogram_backend=histogram_backend,
        electorate_size=electorate_size,
        privacy_cap=privacy_cap,
        cascade_members=cascade_members,
        trace=trace,
    )
    # Shared pools outlive this run, so the processes (with their warmed
    # caches) are reused by the next run; their close() is a no-op.
    pool = shared_pool(workers)
    with pool:
        # Everything built so far lives for the whole run: frozen, the
        # epoch loop's full collections skip it.
        setup.loaded()
        for epoch in range(epochs):
            epoch_plan = _epoch_plan(run)
            # Replanned cuts change per-shard cascade member counts:
            # building the new shard graphs here keeps that cost out of
            # the timed cascade phase.  No-op when the cuts did not move.
            warm_caches(epoch_plan, run.agents, cascade_members)
            tasks = _shard_tasks(run, epoch_plan, epoch)
            results = pool.map_ordered(run_shard_epoch, tasks)
            _fold(run, epoch_plan, results, epoch)
            _apply(run, results, epoch)

    return LoadRunResult(
        n_agents=n_agents,
        epochs=epochs,
        workers=max(1, workers),
        n_shards=run.plan.n_shards,
        chain_height=run.chain.height,
        txs_submitted=run.txs_submitted,
        txs_included=run.txs_included,
        ratings_recorded=run.ratings,
        reports_filed=run.reports,
        votes_cast=run.votes_cast,
        proposals_closed=run.proposals_closed,
        trust_computes=run.reputation.trust_compute_count,
        trust_sweeps=run.reputation.trust_sweep_count,
        interactions_processed=run.interactions_processed,
        cases_opened=run.cases_opened,
        cases_reviewed=run.cases_reviewed,
        moderation_backlog=run.moderation.backlog,
        frames_offered=run.pipeline.stats.offered,
        frames_released=run.pipeline.stats.released,
        frames_blocked_consent=run.pipeline.stats.blocked_consent,
        frames_blocked_budget=run.pipeline.stats.blocked_budget,
        cascade_reach=run.cascade_reach,
        cascade_cross=run.cascade_cross,
        metrics=run.registry.as_dict(),
        trace_jsonl=(
            None if run.trace_log is None else trace_to_jsonl(run.trace_log)
        ),
        table_bytes_per_agent=run.table.bytes_per_agent,
        imbalance=run.imbalance.report(),
        ship_cost=run.ship.report(),
    )


def _check_config(
    n_agents: int,
    n_shards: Optional[int],
    electorate_size: Optional[int],
    block_size: int,
    transport: str,
    counts: Dict[str, int],
) -> None:
    """Raise ``ValueError`` naming the first parameter that is not an
    integer count (a ``bool`` is not one) or is out of range."""
    check_count("n_agents", n_agents, 1)
    for name, value in counts.items():
        check_count(name, value)
    check_count("block_size", block_size, 1)
    if electorate_size is not None:
        check_count("electorate_size", electorate_size, 1)
    if n_shards is not None:
        check_count("n_shards", n_shards, 1)
        if n_shards > n_agents:
            raise ValueError(
                f"n_shards must be None or an integer in [1, {n_agents}], "
                f"got {n_shards!r}"
            )
    if transport != "pickle":
        raise ValueError(f"transport must be 'pickle', got {transport!r}")


def _set_up(
    n_agents: int,
    n_shards: int,
    seed: int,
    epochs: int,
    mix: Dict[str, int],
    block_size: int,
    histogram_backend: str,
    electorate_size: Optional[int],
    privacy_cap: float,
    cascade_members: int,
    trace: bool,
) -> _Run:
    """Build the society once: plan, substrates, metrics, trace and the
    warmed per-process caches."""
    n_members = (
        n_agents if electorate_size is None else min(n_agents, electorate_size)
    )
    plan = ShardPlan(
        seed=seed,
        n_agents=n_agents,
        n_shards=n_shards,
        n_members=n_members,
        hot_stride=HOT_STRIDE,
    )
    # The heavy-tailed per-agent traffic prior: quotas apportion over
    # its per-shard mass, and the plan cuts boundaries on it.
    activity = activity_weights(seed, n_agents)
    activity_cum = np.concatenate(
        ([0], np.cumsum(activity, dtype=np.int64))
    )

    rngs = RngRegistry(seed=seed)
    registry = MetricsRegistry(histogram_backend=histogram_backend)
    obs: Optional[Instrumentation] = None
    trace_log: Optional[TraceLog] = None
    if trace:
        trace_log = TraceLog()
        obs = Instrumentation(
            trace=trace_log, metrics=registry, run_id=f"load-{seed}"
        )

    agents = agent_addresses(n_agents)
    validator = sha256(b"load-validator").hex()
    # Struct-of-arrays hot state: genesis balances live in an int64
    # column (the ledger's copy-on-write base), the nonce tracker in an
    # int32 column shipped to shards as slices, and the privacy
    # spent/cap accounting in float64 columns the budget charges
    # directly.  No million-entry dict is ever built.
    table = AgentTable(
        agents, initial_balance=1_000_000, privacy_cap=privacy_cap
    )
    chain = Blockchain(
        PoAConsensus([validator]),
        genesis_state=LedgerState.from_columns(table),
    )
    reputation = ReputationSystem(pretrusted=agents[: max(1, n_agents // 1000)])
    # The whole population is known to the reputation layer up front, so
    # the per-epoch trust solve runs at population scale (the point of
    # this workload), not just over the handful of agents sampled so far.
    reputation.register_identities(agents)

    dao = DAO(name="load")
    for address in agents[:n_members]:
        dao.add_member(Member(address=address, tokens=1.0))

    # Moderation: classification/report draws happen in shard workers;
    # the parent keeps the stateful queue, bounded review, and sanctions
    # (process_prepared).  The classifier stream exists only to satisfy
    # the service's detection-channel requirement — it is never drawn.
    moderation = ModerationService(
        sanctions=GraduatedSanctionPolicy(world=None),
        classifier=AbuseClassifier(rngs.stream("load.moderation.classifier")),
        report_desk=ReportDesk(rngs.stream("load.moderation.reports")),
        reviewer=HumanModeratorPool(
            rngs.stream("load.moderation.reviewer"),
            capacity_per_epoch=max(20, mix["interactions_per_epoch"] // 20),
        ),
        obs=obs,
    )

    # Privacy: the authoritative pipeline (consent → PET → budget →
    # disclosure).  Workers predict its admissions; the barrier asserts.
    pipeline = PrivacyPipeline(
        consent=ConsentRegistry(),
        budget=PrivacyBudget.from_table(table),
        obs=obs,
    )
    for channel, epsilon in DEFAULT_CHANNELS:
        pipeline.set_pet(
            channel,
            LaplaceMechanism(epsilon, rng=rngs.stream(f"load.pets.{channel}")),
        )
    for subject in range(0, n_agents, HOT_STRIDE):
        if (subject // HOT_STRIDE) % CONSENT_DENIED_MOD != 0:
            pipeline.consent.grant(
                agents[subject],
                channel_of(subject, DEFAULT_CHANNELS, HOT_STRIDE),
            )

    run = _Run(
        epochs=epochs,
        mix=mix,
        block_size=block_size,
        privacy_cap=privacy_cap,
        cascade_members=cascade_members,
        trace=trace,
        plan=plan,
        activity=activity,
        activity_cum=activity_cum,
        agents=agents,
        table=table,
        validator=validator,
        chain=chain,
        reputation=reputation,
        dao=dao,
        moderation=moderation,
        pipeline=pipeline,
        registry=registry,
        obs=obs,
        trace_log=trace_log,
        boundary_rng=rngs.stream("load.cascade.boundary"),
        imbalance=ShardImbalance(plan.n_shards),
        ship=ShipCost(),
        carries=[0] * plan.n_shards,
    )
    # Warm the per-process caches before run_load's pool exists: on fork
    # platforms every worker inherits the address table and the epoch-0
    # shard graphs instead of rebuilding them.  Later cuts fill
    # per-process caches lazily (pure functions of their keys, so
    # identical wherever they are built).
    warm_caches(_epoch_plan(run), agents, cascade_members)
    return run


def _epoch_plan(run: _Run) -> ShardPlan:
    """The epoch's partition, cut on the blended cost profile.

    A pure function of ``(seed, run.observed)`` — ``observed`` holds
    deterministic op-count units from the previous epoch's results, so
    every worker count derives the same boundaries.
    """
    if run.plan.n_shards == 1:
        return run.plan
    weights = blend_profile(run.activity, run.observed)
    return run.plan.with_boundaries(
        weighted_boundaries(weights, run.plan.n_shards)
    )


def _shard_tasks(
    run: _Run, epoch_plan: ShardPlan, epoch: int
) -> List[ShardTask]:
    """One task per shard, each one's pickled size recorded as ship cost.

    Op quotas are apportioned over activity mass: every kind follows
    each shard's share of total activity (the heavy-tailed traffic
    model), except frames, which follow hot-subject activity, and votes,
    which follow electorate overlap.  Every split sums exactly to its
    per-epoch total.  Each task carries a copy of its shard's
    nonce-column slice and of its hot subjects' spends.
    """
    shards = range(epoch_plan.n_shards)
    ranges = [epoch_plan.range_of(s) for s in shards]
    hot_by_shard = [
        np.asarray(epoch_plan.hot_subjects_of(s), dtype=np.int64)
        for s in shards
    ]
    cum = run.activity_cum
    masses = [int(cum[hi] - cum[lo]) for lo, hi in ranges]
    weights = {
        "frames_per_epoch": [
            int(run.activity[hot].sum()) for hot in hot_by_shard
        ],
        "votes_per_epoch": [
            max(0, mhi - mlo)
            for mlo, mhi in (epoch_plan.member_range_of(s) for s in shards)
        ],
    }
    quotas = {
        name: split_weighted(total, weights.get(name, masses))
        for name, total in run.mix.items()
    }
    tasks = [
        ShardTask(
            plan=epoch_plan,
            shard=shard,
            epoch=epoch,
            tx_count=quotas["txs_per_epoch"][shard],
            rating_count=quotas["ratings_per_epoch"][shard],
            report_count=quotas["reports_per_epoch"][shard],
            vote_count=quotas["votes_per_epoch"][shard],
            interaction_count=quotas["interactions_per_epoch"][shard],
            frame_count=quotas["frames_per_epoch"][shard],
            base_nonce_slice=run.table.nonces[lo:hi].copy(),
            # Fancy indexing copies: a frozen snapshot of the shard's
            # hot spends.
            hot_spent=run.table.privacy_spent[hot_by_shard[shard]],
            privacy_cap=run.privacy_cap,
            channels=DEFAULT_CHANNELS,
            consent_denied_mod=CONSENT_DENIED_MOD,
            cascade_members=run.cascade_members,
            cascade_boundary=CASCADE_BOUNDARY,
            carry_seeds=run.carries[shard],
            trace=run.trace,
        )
        for shard, (lo, hi) in enumerate(ranges)
    ]
    for task in tasks:
        run.ship.record_task(
            epoch, len(pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL))
        )
    return tasks


def _fold(
    run: _Run,
    epoch_plan: ShardPlan,
    results: List[ShardEpochResult],
    epoch: int,
) -> None:
    """Check the reduction order, record the epoch's shard timings and,
    when another epoch follows, profile its costs for the next plan."""
    check_shard_order(results)
    run.imbalance.record_epoch(results)
    if epoch + 1 < run.epochs:
        run.observed = _observed_costs(run, epoch_plan, results)


def _observed_costs(
    run: _Run, epoch_plan: ShardPlan, results: List[ShardEpochResult]
) -> np.ndarray:
    """Profile one epoch: per-agent cost units from observed ops.

    Op counts come off the result arrays (deterministic); each op is
    priced by :data:`DEFAULT_COST_MODEL`.  Frame and cascade cost is
    spread over the subjects/members that phase actually ran on.
    """
    cm = DEFAULT_COST_MODEL
    n_agents = run.plan.n_agents
    observed = np.zeros(n_agents, dtype=np.int64)
    # One population-wide bincount per op kind over every shard's
    # indices: integer sums, so the order of the adds cannot matter.
    charged = (
        ([result.tx_senders for result in results], cm.tx),
        ([result.rating_raters for result in results], cm.rating),
        ([result.report_reporters for result in results], cm.report),
        ([result.vote_voters for result in results], cm.vote),
        (
            [
                result.interactions.initiators
                for result in results
                if result.interactions is not None
            ],
            cm.interaction,
        ),
    )
    for parts, unit in charged:
        parts = [np.asarray(part, dtype=np.int64) for part in parts if len(part)]
        if parts:
            observed += unit * np.bincount(
                np.concatenate(parts), minlength=n_agents
            )
    for result in results:
        lo, hi = epoch_plan.range_of(result.shard)
        hot = epoch_plan.hot_subjects_of(result.shard)
        if result.frames and hot:
            observed[np.asarray(hot, dtype=np.int64)] += (
                cm.frame * len(result.frames) // len(hot)
            )
        members = min(run.cascade_members, hi - lo)
        if members >= 2 and result.cascade_reach:
            observed[lo : lo + members] += (
                cm.cascade * result.cascade_reach
            ) // members
    return observed


def _apply(
    run: _Run, results: List[ShardEpochResult], epoch: int
) -> None:
    """The epoch barrier: the serial state advances by folding the shard
    results in shard order, inside the epoch span."""
    now = float(epoch)
    obs = run.obs if run.obs is not None else NULL_OBS
    with obs.span("load", "epoch", time=now, epoch=epoch):
        if run.obs is not None:
            for result in results:
                run.obs.tracer.emit_merged(result.span_payloads)
        _apply_ledger(run, results, now)
        _apply_reputation(run, results, now)
        _apply_governance(run, results, epoch)
        _apply_moderation(run, results, now)
        _apply_privacy(run, results)
        _apply_cascade(run, results)
        _apply_trust(run)


def _apply_ledger(
    run: _Run, results: List[ShardEpochResult], now: float
) -> None:
    """Submit the workers' transfers in shard order, then fill blocks
    until the mempool is empty."""
    agents, chain, registry = run.agents, run.chain, run.registry
    nonces = run.table.nonces
    # No block is proposed until every transfer is admitted.
    state = chain.state
    submit, row = chain.mempool.submit, Transaction.pinned_row
    transfer = TxKind.TRANSFER
    for result in results:
        if not result.tx_ids:
            continue
        fee_histogram = registry.histogram("load.tx.fee")
        for s, r, amount, fee, nonce, tx_id in zip(
            result.tx_senders,
            result.tx_recipients,
            result.tx_amounts,
            result.tx_fees,
            result.tx_nonces,
            result.tx_ids,
        ):
            # One pinned record per transfer, carrying the worker's id.
            tx = row(agents[s], agents[r], amount, fee, nonce, transfer, {}, tx_id)
            if not submit(tx, state, time=now):
                raise RuntimeError(
                    "two-phase ledger protocol diverged: worker-admitted "
                    f"tx {tx_id} refused by the authoritative mempool"
                )
            nonces[s] = nonce + 1
            fee_histogram.observe(float(fee))
        run.txs_submitted += len(result.tx_ids)
    while len(chain.mempool) > 0:
        block = chain.propose_block(
            run.validator, timestamp=now + 0.1, max_txs=run.block_size
        )
        if not block.transactions:
            break
        run.txs_included += len(block.transactions)
        registry.histogram("load.block.txs").observe(
            float(len(block.transactions))
        )


def _apply_reputation(
    run: _Run, results: List[ShardEpochResult], now: float
) -> None:
    """Record every rating, then every report, in shard order."""
    agents, reputation, registry = run.agents, run.reputation, run.registry
    for result in results:
        for a, b, weight in zip(
            result.rating_raters, result.rating_ratees, result.rating_weights
        ):
            reputation.record(
                agents[a], agents[b], positive=True, time=now, weight=weight
            )
            registry.histogram("load.rating.weight").observe(weight)
        run.ratings += len(result.rating_raters)
    for result in results:
        for reporter, accused, severity in zip(
            result.report_reporters,
            result.report_accused,
            result.report_severities,
        ):
            reputation.record(
                agents[reporter],
                agents[accused],
                positive=False,
                time=now,
                weight=severity,
                context="report",
            )
            registry.counter("load.reports.filed").inc()
            registry.histogram("load.report.severity").observe(severity)
        run.reports += len(result.report_reporters)


def _apply_governance(
    run: _Run, results: List[ShardEpochResult], epoch: int
) -> None:
    """One proposal, the shards' ballots in shard order, then close it."""
    now = float(epoch)
    proposal = run.dao.submit_proposal(
        title=f"epoch-{epoch} parameter change",
        proposer=run.agents[0],
        topic="governance",
        created_at=now,
        voting_period=0.5,
    )
    for result in results:
        for voter, yes in zip(result.vote_voters, result.vote_yes):
            try:
                run.dao.cast_ballot(
                    proposal.proposal_id,
                    run.agents[voter],
                    option="yes" if yes else "no",
                    time=now + 0.2,
                )
            except Exception:
                continue  # duplicate voter in the sample
            run.votes_cast += 1
    run.proposals_closed += len(run.dao.close_due(now + 1.0))


def _apply_moderation(
    run: _Run, results: List[ShardEpochResult], now: float
) -> None:
    """The merged interaction batch through review, with the workers'
    verdicts."""
    merged = merge_interaction_batches(results)
    if merged is None:
        return
    batch, flagged_rows, report_rows = merged
    summary = run.moderation.process_prepared(
        batch, flagged_rows, report_rows, time=now
    )
    run.interactions_processed += len(batch)
    run.cases_opened += summary["opened"]
    run.cases_reviewed += summary["reviewed"]
    registry = run.registry
    registry.counter("load.moderation.flagged").inc(summary["flagged"])
    registry.counter("load.moderation.reported").inc(summary["reported"])
    registry.counter("load.moderation.reviewed").inc(summary["reviewed"])
    registry.gauge("load.moderation.backlog").set(float(summary["backlog"]))


def _apply_privacy(run: _Run, results: List[ShardEpochResult]) -> None:
    """Authoritative ingest of the merged frames, then a check that the
    workers' two-phase admission predictions match it."""
    frames = FrameBatch.concat([result.frames for result in results])
    if not len(frames):
        return
    stats = run.pipeline.stats
    before = (stats.released, stats.blocked_consent, stats.blocked_budget)
    run.pipeline.ingest_all(frames)
    released_d = stats.released - before[0]
    consent_d = stats.blocked_consent - before[1]
    budget_d = stats.blocked_budget - before[2]
    predicted = sum_predicted_outcomes(results)
    if (
        released_d != predicted.get("released", 0)
        or consent_d != predicted.get("blocked_consent", 0)
        or budget_d != predicted.get("blocked_budget", 0)
    ):
        raise RuntimeError(
            "two-phase privacy protocol diverged: workers predicted "
            f"{predicted}, pipeline released {released_d} / "
            f"blocked_consent {consent_d} / blocked_budget {budget_d}"
        )
    registry = run.registry
    registry.counter("load.privacy.frames").inc(len(frames))
    registry.counter("load.privacy.released").inc(released_d)
    registry.counter("load.privacy.refusals").inc(consent_d + budget_d)


def _apply_cascade(run: _Run, results: List[ShardEpochResult]) -> None:
    """Fold the shard cascades and exchange boundary activations, which
    seed next epoch's cascades."""
    if run.cascade_members <= 0:
        return
    registry = run.registry
    for result in results:
        run.cascade_reach += result.cascade_reach
        registry.histogram("load.cascade.reach").observe(
            float(result.cascade_reach)
        )
        registry.histogram("load.cascade.rounds").observe(
            float(result.cascade_rounds)
        )
    run.carries = merge_boundary_activations(results, run.boundary_rng)
    crossed = sum(run.carries)
    run.cascade_cross += crossed
    registry.counter("load.cascade.cross").inc(crossed)


def _apply_trust(run: _Run) -> None:
    """Refresh global trust once per epoch: the warm-started sparse solve
    is the measured reputation write path.  The top value is read off
    the solved vector without materialising the per-identity dict."""
    run.registry.gauge("load.trust.top").set(
        run.reputation.global_trust_top()
    )
    run.registry.counter("load.epochs").inc()
