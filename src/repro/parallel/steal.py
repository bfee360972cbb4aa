"""Deterministic work stealing at epoch barriers.

The weighted planner (:mod:`repro.parallel.plan`) balances *expected*
cost, but the slowest shard still sets the epoch wall-clock when actual
cost lands unevenly.  This module oversplits each shard's epoch into
**chunks** — one per shard-local phase — with stable ``(shard, chunk)``
ids, and lets any idle worker pull the next chunk from a single queue.

Why this is deterministic where classic work stealing is not:

* **Stable task identity.**  Chunk ``(s, c)`` always means "phase
  ``CHUNK_PHASES[c]`` of shard ``s``"; its input is a pure function of
  the :class:`~repro.parallel.worker.ShardTask`, and its phase draws
  only the ``(seed, s, epoch, phase)`` stream.  Which process runs it
  cannot matter.
* **Deterministic steal order.**  Chunks enter one queue sorted by
  ``(shard, chunk)`` — lowest shard id first.  Workers (the pool's
  ``map`` machinery) consume the queue front-to-back, so an idle worker
  always "steals" the lowest outstanding shard's next chunk.  The order
  of *completion* still varies with scheduling — which is why it is
  never observed.
* **Ordered fold.**  The parent folds chunk results back into per-shard
  :class:`~repro.parallel.worker.ShardEpochResult` objects strictly in
  ``(shard, chunk)`` order, verifying every expected chunk arrived
  exactly once, and re-derives span payloads from the merged results —
  byte-identical to the monolithic :func:`run_shard_epoch` path.

``tests/integration/test_determinism.py`` pins the equivalence:
metrics and traces reproduce one committed digest across
``workers ∈ {1, 2, 4}`` with stealing on and off.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

from repro.parallel.plan import Phase
from repro.parallel.worker import (
    CHUNK_PHASES,
    PHASE_NAMES,
    ShardEpochResult,
    ShardTask,
    chunk_span_payloads,
    epoch_span_payload,
    run_phase,
)

__all__ = [
    "ChunkTask",
    "ChunkResult",
    "make_chunk_tasks",
    "run_shard_chunk",
    "fold_chunk_results",
    "run_epoch_chunks",
]

# Result fields each phase writes; the fold copies exactly these from
# the chunk's partial result into the shard's merged result.
_PHASE_FIELDS: Dict[int, Tuple[str, ...]] = {
    Phase.TRANSACTIONS: (
        "tx_senders",
        "tx_recipients",
        "tx_amounts",
        "tx_fees",
        "tx_nonces",
        "tx_ids",
        "tx_precheck_failures",
    ),
    Phase.RATINGS: ("rating_raters", "rating_ratees", "rating_weights"),
    Phase.REPORTS: ("report_reporters", "report_accused", "report_severities"),
    Phase.VOTES: ("vote_voters", "vote_yes"),
    Phase.INTERACTIONS: ("interactions", "flagged_rows", "report_rows"),
    Phase.FRAMES: ("frames", "predicted_outcomes"),
    Phase.CASCADE: (
        "cascade_reach",
        "cascade_rounds",
        "cascade_timeline",
        "boundary_reached",
    ),
}


@dataclass(frozen=True)
class ChunkTask:
    """One stealable unit: phase ``CHUNK_PHASES[chunk]`` of one shard."""

    task: ShardTask
    chunk: int


@dataclass
class ChunkResult:
    """A chunk's partial result plus its measured wall seconds."""

    shard: int
    chunk: int
    partial: ShardEpochResult
    seconds: float


def _slim_task(task: ShardTask, phase: int) -> ShardTask:
    """Narrow the task to what the chunk's phase actually reads.

    The nonce state only feeds the transaction phase and the hot-spend
    state only the frames phase; shipping either with every chunk would
    multiply pickling cost by the chunk count.  Under the pickle
    transport that means dropping the materialized snapshot arrays;
    under the shared-memory transport it is *descriptor narrowing* —
    the column handles the phase never resolves are nulled, so a chunk
    task carries only the descriptors its phase attaches.  Purely a
    transport optimisation — the phase sees identical inputs.
    """
    replace: Dict[str, object] = {}
    if phase != Phase.TRANSACTIONS:
        replace["base_nonces"] = {}
        replace["base_nonce_slice"] = None
        replace["nonce_desc"] = None
    if phase != Phase.FRAMES:
        replace["hot_spent"] = ()
        replace["spent_desc"] = None
    return dataclasses.replace(task, **replace) if replace else task


def make_chunk_tasks(tasks: Sequence[ShardTask]) -> List[ChunkTask]:
    """All ``(shard, chunk)`` units for one epoch, in steal order.

    The returned list is sorted by ``(shard, chunk)`` — the pool submits
    it front-to-back, which *is* the deterministic steal order (lowest
    shard id first).
    """
    chunks: List[ChunkTask] = []
    for task in tasks:
        for chunk, phase in enumerate(CHUNK_PHASES):
            chunks.append(ChunkTask(task=_slim_task(task, phase), chunk=chunk))
    return chunks


def run_shard_chunk(chunk_task: ChunkTask) -> ChunkResult:
    """Run one chunk; a pure function of the chunk task (plus timing)."""
    task = chunk_task.task
    partial = ShardEpochResult(shard=task.shard)
    t0 = perf_counter()
    run_phase(task, partial, CHUNK_PHASES[chunk_task.chunk])
    return ChunkResult(
        shard=task.shard,
        chunk=chunk_task.chunk,
        partial=partial,
        seconds=perf_counter() - t0,
    )


def fold_chunk_results(
    tasks: Sequence[ShardTask], chunk_results: Sequence[ChunkResult]
) -> List[ShardEpochResult]:
    """Fold chunk results into per-shard results, in ``(shard, chunk)`` order.

    Verifies every expected ``(shard, chunk)`` id arrived **exactly
    once** (duplicates, gaps, and strays all raise — a stealing bug must
    never silently drop or double-count work), then copies each phase's
    fields into the shard's merged result and re-derives span payloads
    from the merge.  The output is byte-identical to running
    :func:`run_shard_epoch` per shard.
    """
    expected = {
        (task.shard, chunk)
        for task in tasks
        for chunk in range(len(CHUNK_PHASES))
    }
    by_id: Dict[Tuple[int, int], ChunkResult] = {}
    for cr in chunk_results:
        key = (cr.shard, cr.chunk)
        if key not in expected:
            raise ValueError(f"unexpected chunk result {key}")
        if key in by_id:
            raise ValueError(f"chunk {key} executed more than once")
        by_id[key] = cr
    missing = expected - set(by_id)
    if missing:
        raise ValueError(f"chunks never executed: {sorted(missing)}")

    results: List[ShardEpochResult] = []
    for task in sorted(tasks, key=lambda t: t.shard):
        merged = ShardEpochResult(shard=task.shard)
        for chunk, phase in enumerate(CHUNK_PHASES):
            cr = by_id[(task.shard, chunk)]
            for name in _PHASE_FIELDS[phase]:
                setattr(merged, name, getattr(cr.partial, name))
            merged.phase_seconds[PHASE_NAMES[phase]] = cr.seconds
        if task.trace:
            merged.span_payloads.append(epoch_span_payload(task, merged))
            merged.span_payloads.extend(chunk_span_payloads(task, merged))
        results.append(merged)
    return results


def run_epoch_chunks(pool, tasks: Sequence[ShardTask]) -> List[ShardEpochResult]:
    """Run one epoch's shard work as stolen chunks on ``pool``.

    Drop-in replacement for ``pool.map_ordered(run_shard_epoch, tasks)``
    with byte-identical results: chunks are submitted in steal order,
    gathered in submission order, and folded in ``(shard, chunk)``
    order, so neither completion order nor worker placement can leak
    into the output.
    """
    chunk_tasks = make_chunk_tasks(tasks)
    chunk_results = pool.map_ordered(run_shard_chunk, chunk_tasks)
    return fold_chunk_results(tasks, chunk_results)
