"""Ship-cost metric: bytes crossing the process boundary per epoch.

Records the pickled size of every shard task the parent dispatches,
the shard's nonce-column slice and hot-subject spend snapshot included.
Recorded for *every* run, including inline ``workers=1`` execution,
where they are the bytes that *would* cross a process boundary.

This is *observability only*, the same contract as
:class:`~repro.obs.imbalance.ShardImbalance`: measured byte counts must
never flow into metrics, traces, or any replay-compared payload —
callers stash the report in non-compared fields
(``LoadRunResult.ship_cost``, a ``field(compare=False)``).
"""

from __future__ import annotations

from typing import Dict

__all__ = ["ShipCost"]


class ShipCost:
    """Accumulates pickled task bytes per epoch."""

    def __init__(self) -> None:
        self._task_epoch: Dict[int, int] = {}
        self._task_units = 0

    def record_task(self, epoch: int, nbytes: int) -> None:
        """One shard task's pickled size."""
        self._task_units += 1
        self._task_epoch[epoch] = self._task_epoch.get(epoch, 0) + nbytes

    def report(self) -> Dict[str, object]:
        """The breakdown, JSON-ready (size data only)."""
        n = (max(self._task_epoch) + 1) if self._task_epoch else 0
        return {
            "epochs": n,
            "task_units": self._task_units,
            "ship_bytes_total": sum(self._task_epoch.values()),
            "per_epoch": {
                str(epoch): self._task_epoch.get(epoch, 0)
                for epoch in range(n)
            },
        }
