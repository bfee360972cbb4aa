"""Shard planning: deterministic partition of a seeded society.

The population-scale workload serves "millions of users" (the paper's
framing); one process cannot.  A :class:`ShardPlan` partitions the
``n_agents`` synthetic society into ``n_shards`` contiguous index
ranges, each with its own family of random streams, so shard-local
substrate work (transaction admission, trust accumulation, abuse
classification, privacy charging, cascade rounds) can run anywhere —
inline, or on any number of worker processes — and still reproduce the
exact same bytes.

Determinism contract
--------------------
* The partition is a pure function of ``(n_agents, n_shards)`` plus an
  optional explicit ``boundaries`` tuple.  Without boundaries the
  ranges are contiguous and equal (remainder spread over the lowest
  shard ids); with boundaries they are contiguous but *unequal* —
  cost-weighted plans place the cuts so every shard carries roughly the
  same work, and because the boundaries are themselves pure functions
  of ``(seed, epoch, profile)`` the plan stays replay-deterministic.
* Randomness is rooted in ``numpy.random.SeedSequence(seed)``; each
  shard owns the child sequence ``root.spawn(n_shards)[shard]``, and
  every *(epoch, phase)* of a shard derives a grandchild by extending
  the shard's ``spawn_key`` — so streams depend only on
  ``(seed, shard, epoch, phase)``, never on which process runs them or
  how many workers exist.
* Nothing here reads the clock, the host, or global state.

The plan is a small frozen dataclass of ints, cheap to pickle into
every worker task.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Phase",
    "ShardPlan",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "shard_phase_rng",
    "split_weighted",
    "activity_weights",
    "weighted_boundaries",
    "blend_profile",
]


def split_weighted(total: int, weights: List[int]) -> List[int]:
    """Split ``total`` units proportionally to integer ``weights``.

    Largest-remainder apportionment in pure integer arithmetic: floors
    first, then the leftover units go to the largest fractional parts
    (ties to the lowest index).  Deterministic, and the parts always sum
    to ``total``.  Used to spread e.g. ballot quotas over shards in
    proportion to how much electorate each shard actually owns.

    Weights must be non-negative: a negative weight would silently
    produce a negative quota (``split_weighted(10, [-1, 3]) == [-5, 15]``
    before this guard), which downstream load generators would feed into
    range()/array sizing as a nonsense per-shard count.

    An all-zero weight vector falls back to an *even* split (as if every
    weight were 1): zero total weight means "no information", and the
    caller still needs the ``total`` units placed somewhere.  The old
    behaviour — returning ``[0] * len(weights)`` — silently dropped the
    units, so ``sum(parts) == total`` held for every input *except* this
    edge.
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    for weight in weights:
        if weight < 0:
            raise ValueError(f"weights must be >= 0, got {weight}")
    weight_sum = sum(weights)
    if weight_sum <= 0:
        if not weights:
            return []
        weights = [1] * len(weights)
        weight_sum = len(weights)
    parts = [total * w // weight_sum for w in weights]
    remainders = [total * w % weight_sum for w in weights]
    leftover = total - sum(parts)
    for i in sorted(
        range(len(weights)), key=lambda j: (-remainders[j], j)
    )[:leftover]:
        parts[i] += 1
    return parts


class Phase:
    """Stable phase indices for per-(shard, epoch, phase) streams.

    These are part of the determinism contract: renumbering a phase
    changes every derived stream, so new phases must append.
    """

    TRANSACTIONS = 0
    RATINGS = 1
    REPORTS = 2
    VOTES = 3
    INTERACTIONS = 4
    FRAMES = 5
    CASCADE = 6
    # Per-shard, epoch-independent stream (social subgraph topology).
    GRAPH = 7


def shard_phase_rng(
    seed: int, n_shards: int, shard: int, epoch: int, phase: int
) -> np.random.Generator:
    """The stream for one (shard, epoch, phase) cell.

    The cell's sequence is the grandchild that the shard's
    ``SeedSequence(seed).spawn(n_shards)[shard]`` child would spawn at
    ``(epoch, phase)``: entropy ``seed`` and spawn key ``(shard, epoch,
    phase)``, built directly instead of spawning every shard's child
    first.  Stateless, so any process can derive any cell without
    coordination.
    """
    if not 0 <= shard < n_shards:
        raise IndexError(f"shard {shard} out of range 0..{n_shards - 1}")
    cell = np.random.SeedSequence(
        entropy=seed, spawn_key=(int(shard), int(epoch), int(phase))
    )
    return np.random.default_rng(cell)


# ----------------------------------------------------------------------
# Activity model: the heavy-tailed per-agent traffic prior
# ----------------------------------------------------------------------

# Spawn-key domain for the activity stream — disjoint from the per-shard
# children that `shard_phase_rng` derives (those use spawn_key (shard,)
# with shard < n_shards <= n_agents; this uses a large fixed constant).
_ACTIVITY_DOMAIN = 0x5AC7
ACTIVITY_BLOCKS = 64


def activity_weights(
    seed: int, n_agents: int, n_blocks: int = ACTIVITY_BLOCKS
) -> np.ndarray:
    """Per-agent integer activity weights, heavy-tailed and contiguous.

    Real metaverse traffic is Zipf-shaped — a few communities generate
    most of the interaction volume — and *spatially correlated*: hot
    agents cluster (guilds, venues, flash crowds), they are not sprinkled
    uniformly over the index space.  This model captures both: the agent
    range splits into ``n_blocks`` contiguous blocks, each block drawing
    a Zipf-ranked multiplier (``1 + 99 // (1 + rank)``: the hottest block
    is 100x the coldest) from a seeded permutation.  Equal-range shard
    plans land unlucky shards on hot blocks and measure real skew;
    contiguous *weighted* plans can still balance because the weights are
    blockwise-constant.

    Pure function of ``(seed, n_agents, n_blocks)``.  Returns an int64
    array of length ``n_agents`` with every entry >= 1.
    """
    if n_agents < 1:
        raise ValueError(f"n_agents must be >= 1, got {n_agents}")
    blocks = max(1, min(int(n_blocks), n_agents))
    seq = np.random.SeedSequence(
        entropy=seed, spawn_key=(_ACTIVITY_DOMAIN,)
    )
    rng = np.random.default_rng(seq)
    ranks = rng.permutation(blocks)
    multipliers = (1 + 99 // (1 + ranks)).astype(np.int64)
    sizes = split_weighted(n_agents, [1] * blocks)
    return np.repeat(multipliers, sizes)


def weighted_boundaries(
    weights: Sequence[int], n_shards: int
) -> Tuple[int, ...]:
    """Contiguous cut points giving each shard ~equal total weight.

    Returns an ``n_shards``-tuple of exclusive upper bounds
    ``(hi_0, hi_1, ..., n_agents)``: shard ``s`` owns
    ``[hi_{s-1}, hi_s)``.  The cuts are placed where the running weight
    mass crosses the largest-remainder targets from
    :func:`split_weighted`, then clamped so every shard keeps at least
    one agent.  Pure integer arithmetic — a pure function of
    ``(weights, n_shards)``.
    """
    w = np.asarray(weights, dtype=np.int64)
    n = int(w.shape[0])
    if n < 1:
        raise ValueError("weights must be non-empty")
    if not 1 <= n_shards <= n:
        raise ValueError(
            f"n_shards must be in [1, {n}], got {n_shards}"
        )
    if (w < 0).any():
        raise ValueError("weights must be >= 0")
    total = int(w.sum())
    if total <= 0:
        w = np.ones(n, dtype=np.int64)
        total = n
    masses = split_weighted(total, [1] * n_shards)
    targets = np.cumsum(masses[:-1])
    cum = np.cumsum(w)
    cuts = np.searchsorted(cum, targets, side="left") + 1
    bounds: List[int] = []
    prev = 0
    for k, cut in enumerate(cuts):
        lo_ok = prev + 1
        hi_ok = n - (n_shards - 1 - k)
        c = int(min(max(int(cut), lo_ok), hi_ok))
        bounds.append(c)
        prev = c
    bounds.append(n)
    return tuple(bounds)


# ----------------------------------------------------------------------
# Cost model: deterministic per-op units for profiling shard cost
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CostModel:
    """Integer cost units per substrate operation.

    Profiled shard costs must never come from wall-clock measurements —
    timing noise would leak into the next epoch's boundaries and break
    byte-identity across worker counts.  Instead the planner charges a
    fixed unit price per *observed op count* (op counts are themselves
    deterministic), so the profile is a pure function of the run.  Only
    the ratios matter; the absolute scale cancels in the apportionment.
    """

    # Ratios calibrated offline against measured per-op phase seconds
    # (benchmarks/scaling.py balance tier); deterministic constants, so
    # every worker count prices an epoch identically.
    tx: int = 20  # ledger: sig-check + nonce + balance + tx-id hash
    rating: int = 3  # reputation accumulate
    report: int = 3  # moderation report row
    vote: int = 1  # ballot record
    interaction: int = 1  # moderation classifier row (batched)
    frame: int = 3  # biometric frame: consent + budget predict
    cascade: int = 2  # per member reached in cascade rounds

    def as_dict(self) -> Dict[str, int]:
        return {
            "tx": self.tx,
            "rating": self.rating,
            "report": self.report,
            "vote": self.vote,
            "interaction": self.interaction,
            "frame": self.frame,
            "cascade": self.cascade,
        }


DEFAULT_COST_MODEL = CostModel()

# Relative blend weights: activity prior vs observed cost profile.  The
# two live in unrelated units (abstract activity mass vs cost-model
# units), so the blend cross-normalizes each side by the other's total
# mass — only this ratio matters, never the absolute scales.  Observed
# cost dominates 3:1 once available: it is the deterministic ground
# truth of where last epoch's work landed, the prior only smooths
# agents that happened to draw nothing.
PRIOR_WEIGHT = 1
OBSERVED_WEIGHT = 3


def blend_profile(
    prior: np.ndarray,
    observed: Optional[np.ndarray],
    prior_weight: int = PRIOR_WEIGHT,
    observed_weight: int = OBSERVED_WEIGHT,
) -> np.ndarray:
    """Blend the activity prior with last epoch's observed cost units.

    ``prior * (prior_weight * mass(observed)) + observed *
    (observed_weight * mass(prior))`` — the cross-scaling makes the mix
    scale-free, so a population change or a cost-model retune cannot
    silently shift the prior/observed balance.  Degenerate masses fall
    back to whichever profile carries signal.  Pure function of its
    arguments (both are deterministic), int64 out.
    """
    p = np.asarray(prior, dtype=np.int64)
    if observed is None:
        return p.copy()
    o = np.asarray(observed, dtype=np.int64)
    p_mass = int(p.sum())
    o_mass = int(o.sum())
    if o_mass <= 0:
        return p.copy()
    if p_mass <= 0:
        return o.copy()
    return p * (int(prior_weight) * o_mass) + o * (int(observed_weight) * p_mass)


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of ``n_agents`` into ``n_shards``.

    Shard ``s`` owns the contiguous agent-index range
    ``[lo(s), hi(s))``.  With ``boundaries=None`` the ranges are equal
    (the first ``n_agents % n_shards`` shards one agent larger); with an
    explicit ``boundaries`` tuple (exclusive upper bounds, strictly
    increasing, last equal to ``n_agents``) the ranges are cost-weighted
    cuts from :func:`weighted_boundaries`.  ``n_members`` bounds the DAO
    electorate (member indices are ``[0, n_members)`` — a *prefix* of
    the population, so a shard's member range is the overlap of its
    range with that prefix).  ``hot_stride`` spaces the privacy-hot
    subjects (agent indices ``0, stride, 2*stride, ...``) so every shard
    owns its share of hot subjects — privacy budgets stay shard-local by
    construction.

    ``boundaries`` deliberately does **not** feed the random streams:
    ``rng(shard, epoch, phase)`` depends only on
    ``(seed, n_shards, shard, epoch, phase)``, so replanning boundaries
    between epochs moves *which agents* a stream's ops land on without
    invalidating the stream derivation itself.
    """

    seed: int
    n_agents: int
    n_shards: int
    n_members: int
    hot_stride: int
    boundaries: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.n_agents < 1:
            raise ValueError(f"n_agents must be >= 1, got {self.n_agents}")
        if not 1 <= self.n_shards <= self.n_agents:
            raise ValueError(
                f"n_shards must be in [1, n_agents], got {self.n_shards}"
            )
        if not 0 <= self.n_members <= self.n_agents:
            raise ValueError(
                f"n_members must be in [0, n_agents], got {self.n_members}"
            )
        if self.hot_stride < 1:
            raise ValueError(f"hot_stride must be >= 1, got {self.hot_stride}")
        if self.boundaries is not None:
            b = tuple(int(x) for x in self.boundaries)
            if len(b) != self.n_shards:
                raise ValueError(
                    f"boundaries must have n_shards={self.n_shards} entries, "
                    f"got {len(b)}"
                )
            if b[-1] != self.n_agents:
                raise ValueError(
                    f"last boundary must equal n_agents={self.n_agents}, "
                    f"got {b[-1]}"
                )
            prev = 0
            for x in b:
                if x <= prev:
                    raise ValueError(
                        f"boundaries must be strictly increasing and leave "
                        f"every shard non-empty, got {b}"
                    )
                prev = x
            object.__setattr__(self, "boundaries", b)

    # ------------------------------------------------------------------
    # Partition geometry
    # ------------------------------------------------------------------
    def range_of(self, shard: int) -> Tuple[int, int]:
        """Agent-index range ``[lo, hi)`` owned by ``shard``."""
        self._check_shard(shard)
        if self.boundaries is not None:
            lo = self.boundaries[shard - 1] if shard > 0 else 0
            return lo, self.boundaries[shard]
        base, rem = divmod(self.n_agents, self.n_shards)
        lo = shard * base + min(shard, rem)
        hi = lo + base + (1 if shard < rem else 0)
        return lo, hi

    def size_of(self, shard: int) -> int:
        lo, hi = self.range_of(shard)
        return hi - lo

    def shard_of(self, agent_index: int) -> int:
        """The shard owning ``agent_index``."""
        if not 0 <= agent_index < self.n_agents:
            raise ValueError(
                f"agent_index must be in [0, {self.n_agents}), got {agent_index}"
            )
        if self.boundaries is not None:
            return bisect.bisect_right(self.boundaries, agent_index)
        base, rem = divmod(self.n_agents, self.n_shards)
        boundary = rem * (base + 1)
        if agent_index < boundary:
            return agent_index // (base + 1)
        return rem + (agent_index - boundary) // base

    def member_range_of(self, shard: int) -> Tuple[int, int]:
        """The shard's overlap with the DAO electorate prefix."""
        lo, hi = self.range_of(shard)
        return min(lo, self.n_members), min(hi, self.n_members)

    def hot_subjects_of(self, shard: int) -> List[int]:
        """Agent indices of the shard's privacy-hot subjects (sorted)."""
        lo, hi = self.range_of(shard)
        first = ((lo + self.hot_stride - 1) // self.hot_stride) * self.hot_stride
        return list(range(first, hi, self.hot_stride))

    def with_boundaries(
        self, boundaries: Optional[Tuple[int, ...]]
    ) -> "ShardPlan":
        """This plan with different cut points (streams unchanged)."""
        return ShardPlan(
            seed=self.seed,
            n_agents=self.n_agents,
            n_shards=self.n_shards,
            n_members=self.n_members,
            hot_stride=self.hot_stride,
            boundaries=boundaries,
        )

    # ------------------------------------------------------------------
    # Streams
    # ------------------------------------------------------------------
    def rng(self, shard: int, epoch: int, phase: int) -> np.random.Generator:
        """Stream for one (shard, epoch, phase) cell of this plan."""
        self._check_shard(shard)
        return shard_phase_rng(self.seed, self.n_shards, shard, epoch, phase)

    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < self.n_shards:
            raise ValueError(
                f"shard must be in [0, {self.n_shards}), got {shard}"
            )
