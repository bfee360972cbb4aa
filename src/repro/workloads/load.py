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
100k agents would measure key generation rather than the ledger.
:func:`synthetic_transfer` builds duck-typed signed transactions over
real :class:`~repro.ledger.transactions.Transaction` records — real
hashes, real nonce/balance semantics, ``verify()`` pinned true — so the
mempool, block assembly, and state machine all run their actual code
paths at full population scale.
"""

from __future__ import annotations

import pickle
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.dao.dao import DAO
from repro.dao.members import Member
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
from repro.obs.instrument import Instrumentation
from repro.obs.shipcost import ShipCost
from repro.parallel.plan import (
    DEFAULT_COST_MODEL,
    ShardPlan,
    activity_weights,
    auto_shard_count,
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
from repro.parallel.steal import (
    fold_chunk_results,
    make_chunk_tasks,
    run_shard_chunk,
)
from repro.parallel.transport import ColumnPlane, shm_available
from repro.parallel.worker import (
    CHUNK_PHASES,
    PHASE_NAMES,
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
    "SyntheticSignedTransaction",
    "synthetic_transfer",
    "agent_address",
    "agent_addresses",
    "LoadRunResult",
    "run_load",
    "DEFAULT_CHANNELS",
    "HOT_STRIDE",
]


class SyntheticSignedTransaction:
    """A signed-transaction stand-in with the signature check pinned.

    Wraps a *real* :class:`Transaction` (real canonical encoding, real
    tx_id hash, real nonce/fee/balance semantics) but skips Lamport key
    material, whose generation cost would dominate any population-scale
    measurement.  Safe only for workloads/benchmarks — never for
    consensus tests, which must exercise real signatures.
    """

    __slots__ = ("tx",)

    def __init__(self, tx: Transaction):
        self.tx = tx

    @property
    def tx_id(self) -> str:
        return self.tx.tx_id

    def verify(self) -> bool:
        return True

    def require_valid(self) -> None:
        return None


def synthetic_transfer(
    sender: str,
    recipient: str,
    amount: int,
    fee: int,
    nonce: int,
) -> SyntheticSignedTransaction:
    """A synthetic TRANSFER ready for mempool admission."""
    return SyntheticSignedTransaction(
        Transaction(
            sender=sender,
            recipient=recipient,
            amount=amount,
            fee=fee,
            nonce=nonce,
            kind=TxKind.TRANSFER,
        )
    )


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
    columnar: bool
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
    # Column bytes per agent for the run's AgentTable (0.0 in object mode).
    table_bytes_per_agent: float = 0.0
    # Elastic-sharding provenance (all deterministic given the config).
    plan_mode: str = "weighted"
    steal: bool = False
    # The n_shards="auto" decision trace (None when pinned/defaulted).
    shard_decision: Optional[Dict[str, int]] = None
    # (shard, chunk) units executed via the stealing layer (0 when off).
    chunk_tasks_run: int = 0
    # The resolved shard-state transport: "pickle" (materialized
    # snapshots in every task) or "shm"/"shm-full" (shared-memory column
    # plane with delta/full republishing).  Like workers and steal, a
    # pure transport knob — it never changes a metrics or trace byte.
    transport: str = "pickle"
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
    cascade_boundary: int = 8,
    workers: int = 1,
    n_shards: Union[int, str, None] = None,
    trace: bool = False,
    columnar: bool = True,
    plan_mode: str = "weighted",
    steal: bool = False,
    transport: str = "auto",
) -> LoadRunResult:
    """Run the population-scale workload; see the module docstring.

    ``workers`` schedules the shard work (1 = inline serial path); it
    never changes results.  ``n_shards`` fixes the stream structure and
    *does* change results — it defaults to ``min(8, n_agents)``
    independently of ``workers`` precisely so scheduling and semantics
    stay decoupled; pass ``"auto"`` to let
    :func:`~repro.parallel.plan.auto_shard_count` pick a count from the
    worker count and per-epoch op volume (the decision trace lands in
    ``LoadRunResult.shard_decision``; note ``"auto"`` deliberately ties
    the stream structure to ``workers``).  ``electorate_size`` bounds
    DAO membership (member objects carry per-member attention state,
    which at full population size would be setup cost, not load); pass
    None to enrol every agent.  ``privacy_cap`` is the per-subject
    epsilon cap; frames target the strided hot ~1% of the population so
    the cap actually binds.  ``trace=True`` captures the obs-layer trace
    (parent epoch spans + merged worker spans + substrate spans) and
    returns its JSONL export.

    ``plan_mode`` selects the shard partition: ``"weighted"`` (the
    default) cuts contiguous ranges so each shard carries ~equal
    expected cost under the heavy-tailed activity model — boundaries
    replan every epoch from the activity prior blended with the
    previous epoch's profiled per-agent cost units (deterministic op
    counts priced by :data:`~repro.parallel.plan.DEFAULT_COST_MODEL`,
    never wall clock) — while ``"equal"`` keeps equal-size ranges (the
    skew baseline the scaling bench reports).  Both modes draw the same
    per-agent traffic; only the cut points differ.  ``steal=True`` runs
    each epoch as oversplit ``(shard, chunk)`` units through the
    deterministic stealing layer (:mod:`repro.parallel.steal`).  All
    four knobs preserve the contract that metrics and traces are pure
    functions of the semantic config: ``workers`` and ``steal`` never
    change a byte.

    ``columnar=True`` (the default) backs the society's hot state — the
    genesis balances, the nonce tracker, and the privacy-budget
    spent/cap accounting — with a struct-of-arrays
    :class:`~repro.world.columnar.AgentTable` instead of per-agent dict
    entries, and ships shard nonce/spend snapshots as array slices
    instead of per-agent dicts.  This is purely a representation change:
    metrics and traces are byte-identical to ``columnar=False`` (the
    object-backed escape hatch, kept for equivalence testing — the
    scaling bench and ``make bench-columnar`` assert the match).

    ``transport`` selects how shard state reaches workers.  ``"auto"``
    (the default) resolves to ``"shm"`` — the shared-memory column
    plane — whenever more than one worker runs, the run is columnar and
    the platform has ``multiprocessing.shared_memory``, else to
    ``"pickle"``: with one worker no other process reads the plane.  Under
    ``"shm"`` the nonce and privacy-spent columns are published into
    shared segments once, tasks carry small descriptors instead of
    materialized array snapshots, and each epoch's changed entries are
    re-published as generation-bumped deltas (``"shm-full"`` republishes
    whole columns instead — the delta ablation).  ``"pickle"`` is the
    escape hatch that ships materialized snapshots in every task.  Like
    ``workers`` and ``steal``, the transport never changes a metrics or
    trace byte (``tests/integration/test_determinism.py`` pins it); the
    measured ship bytes land in ``LoadRunResult.ship_cost``.

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
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    if plan_mode not in ("equal", "weighted"):
        raise ValueError(
            f"plan_mode must be 'equal' or 'weighted', got {plan_mode!r}"
        )
    if transport not in ("auto", "pickle", "shm", "shm-full"):
        raise ValueError(
            "transport must be 'auto', 'pickle', 'shm', or 'shm-full', "
            f"got {transport!r}"
        )
    if transport == "auto":
        resolved_transport = (
            "shm" if (workers > 1 and columnar and shm_available())
            else "pickle"
        )
    elif transport in ("shm", "shm-full"):
        if not columnar:
            raise ValueError(
                f"transport={transport!r} needs the columnar table "
                "(columnar=True): object mode has no columns to publish"
            )
        if not shm_available():
            raise ValueError(
                f"transport={transport!r} requested but "
                "multiprocessing.shared_memory is unavailable here"
            )
        resolved_transport = transport
    else:
        resolved_transport = "pickle"
    use_shm = resolved_transport in ("shm", "shm-full")
    shard_decision: Optional[Dict[str, int]] = None
    if n_shards == "auto":
        ops_per_epoch = (
            txs_per_epoch
            + ratings_per_epoch
            + reports_per_epoch
            + votes_per_epoch
            + interactions_per_epoch
            + frames_per_epoch
        )
        resolved_shards, shard_decision = auto_shard_count(
            n_agents, max(1, workers), ops_per_epoch
        )
    elif n_shards is None:
        resolved_shards = min(8, n_agents)
    else:
        resolved_shards = int(n_shards)
    n_members = (
        n_agents if electorate_size is None else min(n_agents, electorate_size)
    )
    plan = ShardPlan(
        seed=seed,
        n_agents=n_agents,
        n_shards=resolved_shards,
        n_members=n_members,
        hot_stride=HOT_STRIDE,
    )
    # The heavy-tailed per-agent traffic prior: quotas apportion over
    # its per-shard mass, and weighted plans cut boundaries on it.
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

    table: Optional[AgentTable] = None
    if columnar:
        # Struct-of-arrays hot state: genesis balances live in an int64
        # column (the ledger's copy-on-write base), the nonce tracker in
        # an int32 column shipped to shards as slices, and the privacy
        # spent/cap accounting in float64 columns the budget charges
        # directly.  No million-entry dict is ever built.
        table = AgentTable(
            agents, initial_balance=1_000_000, privacy_cap=privacy_cap
        )
        chain = Blockchain(
            PoAConsensus([validator]),
            genesis_state=LedgerState.from_columns(table),
        )
    else:
        chain = Blockchain(
            PoAConsensus([validator]),
            genesis_balances={a: 1_000_000 for a in agents},
        )
    reputation = ReputationSystem(pretrusted=agents[: max(1, n_agents // 1000)])
    # The whole population is known to the reputation layer up front, so
    # the per-epoch trust solve runs at population scale (the point of
    # this workload), not just over the handful of agents sampled so far.
    if columnar:
        reputation.register_identities(agents)
    else:
        for address in agents:
            reputation.register_identity(address)

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
            capacity_per_epoch=max(20, interactions_per_epoch // 20),
        ),
        obs=obs,
    )

    # Privacy: the authoritative pipeline (consent → PET → budget →
    # disclosure).  Workers predict its admissions; the barrier asserts.
    pipeline = PrivacyPipeline(
        consent=ConsentRegistry(),
        budget=(
            PrivacyBudget.from_table(table)
            if table is not None
            else PrivacyBudget(default_cap=privacy_cap)
        ),
        obs=obs,
    )
    for channel, epsilon in DEFAULT_CHANNELS:
        pipeline.set_pet(
            channel,
            LaplaceMechanism(epsilon, rng=rngs.stream(f"load.pets.{channel}")),
        )
    _task_probe = _consent_probe(plan)
    for subject in range(0, n_agents, HOT_STRIDE):
        rank = subject // HOT_STRIDE
        if rank % CONSENT_DENIED_MOD != 0:
            pipeline.consent.grant(
                agents[subject], channel_of(_task_probe, subject)
            )

    boundary_rng = rngs.stream("load.cascade.boundary")

    def epoch_plan_for(observed: Optional[np.ndarray]) -> ShardPlan:
        """The epoch's partition: weighted cuts replan on the profile.

        Pure function of ``(seed, plan_mode, observed)`` — ``observed``
        is deterministic op-count units from the previous epoch's
        results, so every worker count and steal mode derives the same
        boundaries.
        """
        if plan_mode != "weighted" or plan.n_shards == 1:
            return plan
        weights = blend_profile(activity, observed)
        return plan.with_boundaries(
            weighted_boundaries(weights, plan.n_shards)
        )

    def shard_quotas(epoch_plan: ShardPlan) -> Dict[str, List[int]]:
        """Per-shard op quotas, apportioned over activity mass.

        Transactions/ratings/reports/interactions follow each shard's
        share of total activity (the heavy-tailed traffic model); frames
        follow hot-subject activity; votes follow electorate overlap.
        Every split sums exactly to its per-epoch total.
        """
        ranges = [
            epoch_plan.range_of(s) for s in range(epoch_plan.n_shards)
        ]
        masses = [
            int(activity_cum[hi] - activity_cum[lo]) for lo, hi in ranges
        ]
        hot_by = [
            epoch_plan.hot_subjects_of(s)
            for s in range(epoch_plan.n_shards)
        ]
        hot_masses = [
            int(activity[np.asarray(h, dtype=np.int64)].sum()) if h else 0
            for h in hot_by
        ]
        member_sizes = [
            max(0, mhi - mlo)
            for mlo, mhi in (
                epoch_plan.member_range_of(s)
                for s in range(epoch_plan.n_shards)
            )
        ]
        return {
            "tx": split_weighted(txs_per_epoch, masses),
            "rating": split_weighted(ratings_per_epoch, masses),
            "report": split_weighted(reports_per_epoch, masses),
            "interaction": split_weighted(interactions_per_epoch, masses),
            "frame": split_weighted(frames_per_epoch, hot_masses),
            "vote": split_weighted(votes_per_epoch, member_sizes),
        }

    def observed_costs(
        epoch_plan: ShardPlan, results: List
    ) -> np.ndarray:
        """Profile one epoch: per-agent cost units from observed ops.

        Op counts come off the result arrays (deterministic); each op is
        priced by :data:`DEFAULT_COST_MODEL`.  Frame and cascade cost is
        spread over the subjects/members that phase actually ran on.
        """
        cm = DEFAULT_COST_MODEL
        observed = np.zeros(n_agents, dtype=np.int64)

        def charge(indices: List[int], unit: int) -> None:
            if len(indices):
                counts = np.bincount(
                    np.asarray(indices, dtype=np.int64),
                    minlength=n_agents,
                )
                observed[:] += counts * unit

        for result in results:
            charge(result.tx_senders, cm.tx)
            charge(result.rating_raters, cm.rating)
            charge(result.report_reporters, cm.report)
            charge(result.vote_voters, cm.vote)
            if result.interactions is not None:
                charge(result.interactions.initiators, cm.interaction)
            lo, hi = epoch_plan.range_of(result.shard)
            hot = epoch_plan.hot_subjects_of(result.shard)
            if result.frames and hot:
                observed[np.asarray(hot, dtype=np.int64)] += (
                    cm.frame * len(result.frames) // len(hot)
                )
            members = min(cascade_members, hi - lo)
            if members >= 2 and result.cascade_reach:
                observed[lo : lo + members] += (
                    cm.cascade * result.cascade_reach
                ) // members
        return observed

    # Cross-epoch nonce tracker the shard workers precheck against.
    # Columnar mode keeps it in the table's int32 column and ships each
    # shard its contiguous slice; object mode keeps ONE global dict,
    # bucketed per epoch by the epoch plan's boundaries — weighted
    # replanning moves agents between shards, so per-shard dicts would
    # strand a migrating sender's chain.
    nonce_tracker: Dict[int, int] = {}
    carries = [0] * plan.n_shards
    prev_observed: Optional[np.ndarray] = None
    imbalance_monitor = ShardImbalance(plan.n_shards)
    ship = ShipCost(resolved_transport)
    chunk_tasks_run = 0

    # Shared-memory transport: publish the mutable cross-epoch columns
    # once (generation 0), keep shadow copies of what was published, and
    # re-publish only the entries each barrier changed as new-generation
    # delta segments (or whole columns under "shm-full").  Tasks then
    # carry descriptors instead of materialized snapshots.
    plane: Optional[ColumnPlane] = None
    shadow_nonces: Optional[np.ndarray] = None
    shadow_spent: Optional[np.ndarray] = None
    if use_shm:
        assert table is not None  # guaranteed by the transport checks
        plane = ColumnPlane()
        ship.record_plane(
            0, "nonces", "base", plane.publish("nonces", table.nonces)
        )
        ship.record_plane(
            0,
            "privacy_spent",
            "base",
            plane.publish("privacy_spent", table.privacy_spent),
        )
        shadow_nonces = table.nonces.copy()
        shadow_spent = table.privacy_spent.copy()

    def republish_columns(epoch: int) -> None:
        """Sync the plane to the table's post-barrier state."""
        for column, col, shadow in (
            ("nonces", table.nonces, shadow_nonces),
            ("privacy_spent", table.privacy_spent, shadow_spent),
        ):
            if resolved_transport == "shm-full":
                ship.record_plane(
                    epoch, column, "full", plane.republish_full(column, col)
                )
                shadow[:] = col
            else:
                changed = np.flatnonzero(col != shadow)
                if changed.size:
                    ship.record_plane(
                        epoch,
                        column,
                        "delta",
                        plane.republish_delta(column, changed, col[changed]),
                    )
                    shadow[changed] = col[changed]

    def task_pickled_bytes(obj: object) -> int:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))

    txs_submitted = txs_included = 0
    ratings = reports = votes_cast = proposals_closed = 0
    interactions_processed = cases_opened = cases_reviewed = 0
    cascade_reach = cascade_cross = 0

    # Warm the per-process caches before the pool exists: on fork
    # platforms every worker inherits the address table and shard graphs
    # for free instead of rebuilding them per process.  Weighted plans
    # re-cut boundaries each epoch, so warm with the epoch-0 cuts;
    # later-epoch graphs fill per-process caches lazily (pure functions
    # of their keys, so identical wherever they are built).
    warm_caches(epoch_plan_for(None), agents, cascade_members)
    # Persistent worker runtime: shared pools outlive this run, so the
    # processes (with their warmed caches and plane attachments) are
    # reused by the next run; their close() is a no-op.
    pool = shared_pool(workers)
    with ExitStack() as cleanup:
        if plane is not None:
            cleanup.callback(plane.close)
        cleanup.callback(pool.close)
        # Everything built so far lives for the whole run: frozen, the
        # epoch loop's full collections skip it.
        setup.loaded()
        for epoch in range(epochs):
            now = float(epoch)
            if plane is not None and epoch > 0:
                # Ship the previous barrier's changes as deltas before
                # building this epoch's descriptors.
                republish_columns(epoch)
            epoch_plan = epoch_plan_for(prev_observed)
            # Weighted replans re-cut boundaries, which changes per-shard
            # cascade member counts — pre-build the new shard graphs in
            # the parent so (inline mode especially) the rebuild cost is
            # plan overhead, not timed cascade-phase work.  No-op when
            # the cuts did not move; pure cost optimisation either way.
            warm_caches(epoch_plan, agents, cascade_members)
            quotas = shard_quotas(epoch_plan)
            shard_ranges = [
                epoch_plan.range_of(s) for s in range(epoch_plan.n_shards)
            ]
            hot_by_shard = [
                epoch_plan.hot_subjects_of(s)
                for s in range(epoch_plan.n_shards)
            ]
            hot_index_by_shard = [
                np.asarray(hot, dtype=np.int64) for hot in hot_by_shard
            ]
            tasks = [
                ShardTask(
                    plan=epoch_plan,
                    shard=shard,
                    epoch=epoch,
                    tx_count=quotas["tx"][shard],
                    rating_count=quotas["rating"][shard],
                    report_count=quotas["report"][shard],
                    vote_count=quotas["vote"][shard],
                    interaction_count=quotas["interaction"][shard],
                    frame_count=quotas["frame"][shard],
                    base_nonces=(
                        {} if table is not None
                        else {
                            sender: nonce
                            for sender, nonce in nonce_tracker.items()
                            if shard_ranges[shard][0]
                            <= sender
                            < shard_ranges[shard][1]
                        }
                    ),
                    base_nonce_slice=(
                        table.nonces[
                            shard_ranges[shard][0]:shard_ranges[shard][1]
                        ].copy()
                        if table is not None and plane is None
                        else None
                    ),
                    hot_spent=(
                        # Shipped only under the pickle transport (the
                        # plane replaces it with a descriptor).  Fancy
                        # indexing copies: a frozen snapshot of the
                        # shard's hot spends, shipped as a float64 array.
                        ()
                        if plane is not None
                        else table.privacy_spent[hot_index_by_shard[shard]]
                        if table is not None
                        else tuple(
                            pipeline.budget.spent(agents[subject])
                            for subject in hot_by_shard[shard]
                        )
                    ),
                    nonce_desc=(
                        plane.descriptor(
                            "nonces",
                            shard_ranges[shard][0],
                            shard_ranges[shard][1],
                        )
                        if plane is not None
                        else None
                    ),
                    spent_desc=(
                        plane.descriptor("privacy_spent")
                        if plane is not None
                        else None
                    ),
                    privacy_cap=privacy_cap,
                    channels=DEFAULT_CHANNELS,
                    consent_denied_mod=CONSENT_DENIED_MOD,
                    cascade_members=cascade_members,
                    cascade_boundary=cascade_boundary,
                    carry_seeds=carries[shard],
                    trace=trace,
                )
                for shard in range(epoch_plan.n_shards)
            ]
            if steal:
                chunk_tasks = make_chunk_tasks(tasks)
                for chunk_task in chunk_tasks:
                    ship.record_task(
                        epoch,
                        PHASE_NAMES[CHUNK_PHASES[chunk_task.chunk]],
                        task_pickled_bytes(chunk_task),
                    )
                chunk_results = pool.map_ordered(
                    run_shard_chunk, chunk_tasks
                )
                results = fold_chunk_results(tasks, chunk_results)
                chunk_tasks_run += len(chunk_tasks)
            else:
                for task in tasks:
                    ship.record_task(
                        epoch, "epoch_task", task_pickled_bytes(task)
                    )
                results = pool.map_ordered(run_shard_epoch, tasks)
            check_shard_order(results)
            imbalance_monitor.record_epoch(results)
            if plan_mode == "weighted" and epoch + 1 < epochs:
                prev_observed = observed_costs(epoch_plan, results)

            epoch_span = (
                obs.span("load", "epoch", time=now, epoch=epoch)
                if obs is not None
                else None
            )
            if epoch_span is not None:
                epoch_span.__enter__()
            try:
                if obs is not None:
                    for result in results:
                        obs.tracer.emit_merged(result.span_payloads)

                # -- ledger barrier: apply debits+credits in shard order.
                for result in results:
                    for s, r, amount, fee, nonce, tx_id in zip(
                        result.tx_senders,
                        result.tx_recipients,
                        result.tx_amounts,
                        result.tx_fees,
                        result.tx_nonces,
                        result.tx_ids,
                    ):
                        tx = Transaction(
                            sender=agents[s],
                            recipient=agents[r],
                            amount=amount,
                            fee=fee,
                            nonce=nonce,
                            kind=TxKind.TRANSFER,
                        )
                        # Seed the hash cache with the worker-computed id
                        # so admission never re-hashes on the barrier.
                        object.__setattr__(tx, "_tx_id", tx_id)
                        if not chain.mempool.submit(
                            SyntheticSignedTransaction(tx), chain.state,
                            time=now,
                        ):
                            raise RuntimeError(
                                "two-phase ledger protocol diverged: "
                                f"worker-admitted tx {tx_id} refused by "
                                "the authoritative mempool"
                            )
                        if table is not None:
                            table.nonces[s] = nonce + 1
                        else:
                            nonce_tracker[s] = nonce + 1
                        txs_submitted += 1
                        registry.histogram("load.tx.fee").observe(float(fee))
                while len(chain.mempool) > 0:
                    block = chain.propose_block(
                        validator, timestamp=now + 0.1, max_txs=block_size
                    )
                    if not block.transactions:
                        break
                    txs_included += len(block.transactions)
                    registry.histogram("load.block.txs").observe(
                        float(len(block.transactions))
                    )

                # -- reputation barrier: fold edge deltas in shard order.
                for result in results:
                    for a, b, weight in zip(
                        result.rating_raters,
                        result.rating_ratees,
                        result.rating_weights,
                    ):
                        reputation.record(
                            agents[a], agents[b], positive=True, time=now,
                            weight=weight,
                        )
                        ratings += 1
                        registry.histogram("load.rating.weight").observe(
                            weight
                        )
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
                        reports += 1
                        registry.counter("load.reports.filed").inc()
                        registry.histogram("load.report.severity").observe(
                            severity
                        )

                # -- governance barrier: one proposal, shard-ordered
                # ballots.
                proposal = dao.submit_proposal(
                    title=f"epoch-{epoch} parameter change",
                    proposer=agents[0],
                    topic="governance",
                    created_at=now,
                    voting_period=0.5,
                )
                for result in results:
                    for voter, yes in zip(
                        result.vote_voters, result.vote_yes
                    ):
                        try:
                            dao.cast_ballot(
                                proposal.proposal_id,
                                agents[voter],
                                option="yes" if yes else "no",
                                time=now + 0.2,
                            )
                        except Exception:
                            continue  # duplicate voter in the sample
                        votes_cast += 1
                proposals_closed += len(dao.close_due(now + 1.0))

                # -- moderation barrier: merged batch, prepared verdicts.
                merged = merge_interaction_batches(results)
                if merged is not None:
                    batch, flagged_rows, report_rows = merged
                    summary = moderation.process_prepared(
                        batch, flagged_rows, report_rows, time=now
                    )
                    interactions_processed += len(batch)
                    cases_opened += summary["opened"]
                    cases_reviewed += summary["reviewed"]
                    registry.counter("load.moderation.flagged").inc(
                        summary["flagged"]
                    )
                    registry.counter("load.moderation.reported").inc(
                        summary["reported"]
                    )
                    registry.counter("load.moderation.reviewed").inc(
                        summary["reviewed"]
                    )
                    registry.gauge("load.moderation.backlog").set(
                        float(summary["backlog"])
                    )

                # -- privacy barrier: authoritative ingest, then validate
                # the workers' two-phase admission predictions.
                frames = FrameBatch.concat(
                    [result.frames for result in results]
                )
                if len(frames):
                    before = (
                        pipeline.stats.released,
                        pipeline.stats.blocked_consent,
                        pipeline.stats.blocked_budget,
                    )
                    pipeline.ingest_all(frames)
                    released_d = pipeline.stats.released - before[0]
                    consent_d = pipeline.stats.blocked_consent - before[1]
                    budget_d = pipeline.stats.blocked_budget - before[2]
                    predicted = sum_predicted_outcomes(results)
                    if (
                        released_d != predicted.get("released", 0)
                        or consent_d != predicted.get("blocked_consent", 0)
                        or budget_d != predicted.get("blocked_budget", 0)
                    ):
                        raise RuntimeError(
                            "two-phase privacy protocol diverged: workers "
                            f"predicted {predicted}, pipeline released "
                            f"{released_d} / blocked_consent {consent_d} "
                            f"/ blocked_budget {budget_d}"
                        )
                    registry.counter("load.privacy.frames").inc(len(frames))
                    registry.counter("load.privacy.released").inc(released_d)
                    registry.counter("load.privacy.refusals").inc(
                        consent_d + budget_d
                    )

                # -- cascade barrier: fold shard cascades, exchange
                # boundary activations for next epoch's seeds.
                if cascade_members > 0:
                    for result in results:
                        cascade_reach += result.cascade_reach
                        registry.histogram("load.cascade.reach").observe(
                            float(result.cascade_reach)
                        )
                        registry.histogram("load.cascade.rounds").observe(
                            float(result.cascade_rounds)
                        )
                    carries = merge_boundary_activations(
                        results, boundary_rng
                    )
                    crossed = sum(carries)
                    cascade_cross += crossed
                    registry.counter("load.cascade.cross").inc(crossed)

                # Refresh global trust once per epoch: the warm-started
                # sparse solve is the measured reputation write path.
                # Columnar mode reads the top value off the solved vector
                # without materialising the per-identity dict (the same
                # float, asserted by the equivalence benches).
                if columnar:
                    top = reputation.global_trust_top()
                else:
                    trust = reputation.global_trust()
                    top = max(trust.values()) if trust else 0.0
                registry.gauge("load.trust.top").set(top)
                registry.counter("load.epochs").inc()
            finally:
                if epoch_span is not None:
                    epoch_span.__exit__(None, None, None)

    return LoadRunResult(
        n_agents=n_agents,
        epochs=epochs,
        workers=max(1, workers),
        n_shards=plan.n_shards,
        columnar=columnar,
        chain_height=chain.height,
        txs_submitted=txs_submitted,
        txs_included=txs_included,
        ratings_recorded=ratings,
        reports_filed=reports,
        votes_cast=votes_cast,
        proposals_closed=proposals_closed,
        trust_computes=reputation.trust_compute_count,
        trust_sweeps=reputation.trust_sweep_count,
        interactions_processed=interactions_processed,
        cases_opened=cases_opened,
        cases_reviewed=cases_reviewed,
        moderation_backlog=moderation.backlog,
        frames_offered=pipeline.stats.offered,
        frames_released=pipeline.stats.released,
        frames_blocked_consent=pipeline.stats.blocked_consent,
        frames_blocked_budget=pipeline.stats.blocked_budget,
        cascade_reach=cascade_reach,
        cascade_cross=cascade_cross,
        metrics=registry.as_dict(),
        trace_jsonl=(
            trace_to_jsonl(trace_log) if trace_log is not None else None
        ),
        table_bytes_per_agent=(
            table.bytes_per_agent if table is not None else 0.0
        ),
        plan_mode=plan_mode,
        steal=steal,
        shard_decision=shard_decision,
        chunk_tasks_run=chunk_tasks_run,
        transport=resolved_transport,
        imbalance=imbalance_monitor.report(),
        ship_cost=ship.report(),
    )


def _consent_probe(plan: ShardPlan) -> "ShardTask":
    """A minimal task whose only job is feeding ``channel_of`` /
    consent-rule helpers parent-side (same plan, no per-epoch state)."""
    return ShardTask(
        plan=plan,
        shard=0,
        epoch=0,
        tx_count=0,
        rating_count=0,
        report_count=0,
        vote_count=0,
        interaction_count=0,
        frame_count=0,
        channels=DEFAULT_CHANNELS,
        consent_denied_mod=CONSENT_DENIED_MOD,
    )
