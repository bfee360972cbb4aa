"""Sharded multi-core execution for the population-scale workload.

The paper frames the metaverse as infrastructure for "millions of users
across the world"; this package is the repro's answer to serving that
scale on real hardware.  It partitions the seeded society into shards
(:mod:`~repro.parallel.plan`), runs shard-local substrate work in a
process pool (:mod:`~repro.parallel.worker`,
:mod:`~repro.parallel.pool`), and folds results back at epoch barriers
through an ordered reduction (:mod:`~repro.parallel.reduce`) — so
``run_load(workers=K)`` is **byte-identical for any K**, including the
inline serial path.

Determinism is structural, not best-effort:

* every random stream is a pure function of
  ``(seed, shard, epoch, phase)`` — never of process identity;
* workers are pure functions of their task (all mutable cross-epoch
  state ships pickled inside it, as explicit snapshots);
* results are consumed in shard order, never completion order.

Shard boundaries are cost-weighted (:mod:`~repro.parallel.plan`), so
shards carry near-equal work and every worker takes whole shards.
"""

from repro.parallel.plan import (
    CostModel,
    DEFAULT_COST_MODEL,
    Phase,
    ShardPlan,
    activity_weights,
    blend_profile,
    shard_phase_rng,
    split_weighted,
    weighted_boundaries,
)
from repro.parallel.pool import (
    ProcessPool,
    SerialPool,
    shared_pool,
    shutdown_shared_pools,
)
from repro.parallel.worker import (
    CHUNK_PHASES,
    ShardEpochResult,
    ShardTask,
    run_shard_epoch,
)

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
    "SerialPool",
    "ProcessPool",
    "shared_pool",
    "shutdown_shared_pools",
    "ShardTask",
    "ShardEpochResult",
    "run_shard_epoch",
    "CHUNK_PHASES",
]
