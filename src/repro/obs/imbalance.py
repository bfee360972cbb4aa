"""Shard-imbalance metric: max/mean shard wall time per phase.

At every epoch barrier the slowest shard sets the wall-clock, so the
number that matters for elastic sharding is not total time but *skew*:

    ``imbalance(phase) = max_s T(phase, s) / mean_s T(phase, s)``

where ``T(phase, s)`` is shard ``s``'s wall seconds in ``phase`` summed
over the run.  1.0 is a perfectly balanced phase; 2.0 means half the
cores idle at that phase's barrier.  The ``"epoch"`` row aggregates all
phases over the whole run — the figure the scaling suite's balance tier
gates (≤1.25x under the weighted plan at the 100k tier; multiple epochs
are summed because single-epoch shard timings of ~0.1s are too noisy to
gate).  The ``"final_epoch"`` row aggregates the *last recorded epoch*
only and is reported alongside to show that cost-weighted replanning has
converged after its first epoch of observed profile.

This is *observability only*: wall-clock measurements are collected
from worker results (``ShardEpochResult.phase_seconds``) and must never
flow into metrics, traces, or any replay-compared payload — callers
stash the report in non-compared fields (see ``LoadRunResult.imbalance``,
a ``field(compare=False)``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

__all__ = ["ShardImbalance"]


class ShardImbalance:
    """Accumulates per-(phase, shard) wall seconds across epochs."""

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        self.epochs = 0
        self._phase_shard: Dict[str, List[float]] = {}
        self._final_epoch_totals: List[float] = [0.0] * n_shards

    def record_epoch(self, results: Iterable) -> None:
        """Fold one epoch's shard results (each with ``phase_seconds``)."""
        self.epochs += 1
        self._final_epoch_totals = [0.0] * self.n_shards
        for result in results:
            for phase, seconds in result.phase_seconds.items():
                row = self._phase_shard.get(phase)
                if row is None:
                    row = [0.0] * self.n_shards
                    self._phase_shard[phase] = row
                row[result.shard] += float(seconds)
                self._final_epoch_totals[result.shard] += float(seconds)

    def report(self) -> Dict[str, Dict[str, float]]:
        """Max/mean/imbalance per phase plus two aggregate rows:
        ``"epoch"`` (all phases, whole run) and ``"final_epoch"`` (all
        phases, last recorded epoch — the post-replan steady state).

        A phase whose mean is ~0 (never ran, or ran in microseconds)
        reports imbalance 1.0 — there is no barrier to wait at.
        """
        rows: Dict[str, Dict[str, float]] = {}
        totals = [0.0] * self.n_shards
        for phase in sorted(self._phase_shard):
            row = self._phase_shard[phase]
            for shard, seconds in enumerate(row):
                totals[shard] += seconds
            rows[phase] = self._row_stats(row)
        rows["epoch"] = self._row_stats(totals)
        rows["final_epoch"] = self._row_stats(self._final_epoch_totals)
        return rows

    @staticmethod
    def _row_stats(row: List[float]) -> Dict[str, float]:
        peak = max(row) if row else 0.0
        mean = (sum(row) / len(row)) if row else 0.0
        imbalance = (peak / mean) if mean > 1e-9 else 1.0
        return {
            "max_seconds": peak,
            "mean_seconds": mean,
            "imbalance": imbalance,
        }
