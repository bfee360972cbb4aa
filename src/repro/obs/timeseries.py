"""Windowed telemetry: metrics-over-time on the virtual clock.

End-of-run aggregates (PR 6's ``ServingRunResult``) say *whether* the
tier kept up; operators need to know *when* it did not.  This module
rolls responses into fixed-width virtual-clock windows — per endpoint
and platform-wide — so p50/p99, goodput, shed rate, and queue depth
become a queryable, exportable time series.

Design points:

* **Virtual clock only.**  A response lands in the window of its
  *completion* time; queue-depth samples in the window of the
  observation.  No wall clock, so the exported series is byte-identical
  for a seeded run — the determinism matrix pins the JSON export's
  sha256 across reruns and worker counts.
* **A fold over columns.**  :meth:`WindowedTelemetry.record_responses`
  takes a run's responses as columns in log order — the serving tier
  hands it its response log after the event loop — and folds each run
  of consecutive rows that complete in one window as one batch; the
  sketch percentiles depend on those batch boundaries.
* **Sketch-backed percentiles.**  Each (window, scope) keeps a bounded
  :class:`~repro.sim.metrics.SketchHistogram`, so memory is
  O(windows × endpoints) no matter how heavy the traffic.
* **Exact threshold counts.**  SLO evaluation needs "how many requests
  exceeded X ms" *exactly* (a sketch would approximate it); declared
  ``latency_thresholds_ms`` are counted per window as rows are folded.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.metrics import SketchHistogram

__all__ = ["WindowedTelemetry", "WindowScope"]

#: Sketch compression of every (window, scope) cell.
_COMPRESSION = 100


class WindowScope:
    """Accumulated stats for one (window, scope) cell.

    A scope is either one endpoint or the platform-wide ``"all"``;
    latency is observed for every non-shed response (sheds complete at
    arrival, so their zero latency would only distort the tail).
    """

    __slots__ = (
        "count", "ok", "invalid", "refused", "shed", "error", "cached",
        "latency", "over", "queue_depth_max", "queue_depth_last",
    )

    def __init__(self, thresholds: Tuple[float, ...]):
        self.count = 0
        self.ok = 0
        self.invalid = 0
        self.refused = 0
        self.shed = 0
        self.error = 0
        self.cached = 0
        self.latency = SketchHistogram("window", compression=_COMPRESSION)
        self.over = [0] * len(thresholds)
        self.queue_depth_max = 0.0
        self.queue_depth_last = 0.0

    def record_batch(
        self,
        statuses: np.ndarray,
        latencies_ms: np.ndarray,
        cached: int,
        thresholds: Tuple[float, ...],
    ) -> None:
        """Fold one batch of responses, in order: their status codes,
        latencies in ms (sheds' included, and skipped here) and how many
        were cached.  The counting runs at C speed (numpy count_nonzero
        and one bulk sketch observe)."""
        statuses = np.asarray(statuses)
        latencies_ms = np.asarray(latencies_ms, dtype=np.float64)
        n = len(statuses)
        self.count += n
        self.ok += int(np.count_nonzero(statuses == 200))
        self.invalid += int(np.count_nonzero(statuses == 400))
        self.refused += int(np.count_nonzero(statuses == 409))
        shed = int(np.count_nonzero(statuses == 429))
        self.shed += shed
        self.error += int(np.count_nonzero(statuses == 500))
        self.cached += cached
        if shed < n:
            if shed:
                latencies_ms = latencies_ms[statuses != 429]
            self.latency.observe_many(latencies_ms)
            for i, threshold in enumerate(thresholds):
                self.over[i] += int(np.count_nonzero(latencies_ms > threshold))

    def snapshot(
        self, width: float, thresholds: Tuple[float, ...]
    ) -> Dict[str, float]:
        summary = self.latency.summary()
        out: Dict[str, float] = {
            "count": float(self.count),
            "ok": float(self.ok),
            "invalid": float(self.invalid),
            "refused": float(self.refused),
            "shed": float(self.shed),
            "error": float(self.error),
            "cached": float(self.cached),
            "goodput_rps": self.ok / width,
            "shed_rate": (self.shed / self.count) if self.count else 0.0,
            "latency_count": summary["count"],
            "p50_ms": summary["p50"],
            "p99_ms": (
                self.latency.percentile(99.0) if self.latency.count else 0.0
            ),
            "max_ms": summary["max"],
        }
        for threshold, over in zip(thresholds, self.over):
            out[f"over_{threshold:g}ms"] = float(over)
        return out


class WindowedTelemetry:
    """Fixed-width rollups of serving responses on the virtual clock.

    Parameters
    ----------
    window:
        Window width in simulated seconds.
    latency_thresholds_ms:
        Latency cut-offs counted exactly per window (the SLO engine's
        latency SLIs declare theirs here via
        :func:`repro.obs.slo.thresholds_for`).
    """

    def __init__(
        self,
        window: float = 1.0,
        latency_thresholds_ms: Tuple[float, ...] = (),
    ):
        if window <= 0 or not math.isfinite(window):
            raise ValueError(f"window must be positive, got {window}")
        self.window = float(window)
        # Deduplicate but preserve declaration order determinism: sort.
        self.thresholds: Tuple[float, ...] = tuple(
            sorted({float(t) for t in latency_thresholds_ms})
        )
        self._windows: Dict[int, Dict[str, WindowScope]] = {}
        #: Responses recorded so far.
        self.responses = 0
        # Queue-depth samples hit the same (window, "all") cell many
        # times in a row; cache it (with the window's time bounds, so
        # the common case is one float compare).
        self._depth_cell: Optional[WindowScope] = None
        self._depth_start = math.inf
        self._depth_limit = -math.inf

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _scope(self, index: int, scope: str) -> WindowScope:
        per_window = self._windows.get(index)
        if per_window is None:
            per_window = self._windows[index] = {}
        cell = per_window.get(scope)
        if cell is None:
            cell = per_window[scope] = WindowScope(self.thresholds)
        return cell

    def record_responses(
        self,
        endpoints: Sequence[str],
        statuses: Sequence[int],
        arrived: Sequence[float],
        completed: Sequence[float],
        cached: Sequence[bool],
    ) -> None:
        """Roll responses, given as columns in log order, into their
        completion windows.

        Each run of consecutive rows that complete in one window is one
        segment, cut wherever the window changes between two rows (a
        response that completes before the one logged ahead of it can
        step back a window).  Each segment is folded into the window's
        ``"all"`` cell and each endpoint's cell as one batch, rows in
        log order.
        """
        n = len(endpoints)
        if n == 0:
            return
        statuses = np.asarray(statuses, dtype=np.int64)
        completed = np.asarray(completed, dtype=np.float64)
        latencies = (completed - np.asarray(arrived, dtype=np.float64)) * 1e3
        cached = np.asarray(cached, dtype=bool)
        codes = {name: code for code, name in enumerate(dict.fromkeys(endpoints))}
        endpoint_codes = np.fromiter(map(codes.__getitem__, endpoints), np.int64, n)
        index = np.floor_divide(completed, self.window)
        cuts = np.flatnonzero(index[1:] != index[:-1]) + 1
        bounds = [0, *cuts.tolist(), n]
        thresholds = self.thresholds
        for start, end in zip(bounds, bounds[1:]):
            window = int(index[start])
            rows = slice(start, end)
            segment_statuses = statuses[rows]
            segment_latencies = latencies[rows]
            segment_cached = cached[rows]
            self._scope(window, "all").record_batch(
                segment_statuses, segment_latencies,
                int(np.count_nonzero(segment_cached)), thresholds,
            )
            segment_codes = endpoint_codes[rows]
            for name, code in codes.items():
                mine = segment_codes == code
                if mine.any():
                    self._scope(window, name).record_batch(
                        segment_statuses[mine], segment_latencies[mine],
                        int(np.count_nonzero(segment_cached[mine])),
                        thresholds,
                    )
        self.responses += n

    def record_response(
        self,
        endpoint: str,
        status: int,
        arrived: float,
        completed: float,
        cached: bool = False,
    ) -> None:
        """Roll one response into its completion window: a one-row
        :meth:`record_responses`."""
        self.record_responses(
            (endpoint,), (status,), (arrived,), (completed,), (cached,)
        )

    def observe_queue_depth(self, time: float, depth: float) -> None:
        """Sample the admission queue depth (platform-wide scope)."""
        cell = self._depth_cell
        if cell is None or not self._depth_start <= time < self._depth_limit:
            index = int(time // self.window)
            cell = self._scope(index, "all")
            self._depth_cell = cell
            self._depth_start = index * self.window
            self._depth_limit = (index + 1) * self.window
        if depth > cell.queue_depth_max:
            cell.queue_depth_max = depth
        cell.queue_depth_last = depth

    # ------------------------------------------------------------------
    # Query / export
    # ------------------------------------------------------------------
    @property
    def n_windows(self) -> int:
        return len(self._windows)

    def indices(self) -> List[int]:
        """Window indices with any data, ascending."""
        return sorted(self._windows)

    def last_index(self) -> int:
        """The highest populated window index (-1 when empty)."""
        return max(self._windows) if self._windows else -1

    def scope_stats(
        self, index: int, scope: str = "all"
    ) -> Optional[WindowScope]:
        """The live accumulator for one (window, scope), or None."""
        return self._windows.get(index, {}).get(scope)

    def series(
        self, metric: str, scope: str = "all"
    ) -> List[Tuple[float, float]]:
        """``(window_start, value)`` points for one snapshot metric."""
        points: List[Tuple[float, float]] = []
        for index in self.indices():
            cell = self._windows[index].get(scope)
            if cell is None:
                continue
            snap = cell.snapshot(self.window, self.thresholds)
            snap["queue_depth_max"] = cell.queue_depth_max
            snap["queue_depth_last"] = cell.queue_depth_last
            if metric not in snap:
                raise KeyError(
                    f"unknown telemetry metric {metric!r}; "
                    f"have {sorted(snap)}"
                )
            points.append((index * self.window, snap[metric]))
        return points

    def snapshot(self) -> Dict[str, object]:
        """The full rollup as a deterministic JSON-friendly dict."""
        windows = []
        for index in self.indices():
            per_window = self._windows[index]
            all_cell = per_window.get("all")
            entry: Dict[str, object] = {
                "index": index,
                "start": index * self.window,
                "end": (index + 1) * self.window,
            }
            if all_cell is not None:
                stats = all_cell.snapshot(self.window, self.thresholds)
                stats["queue_depth_max"] = all_cell.queue_depth_max
                stats["queue_depth_last"] = all_cell.queue_depth_last
                entry["all"] = stats
            entry["endpoints"] = {
                scope: cell.snapshot(self.window, self.thresholds)
                for scope, cell in sorted(per_window.items())
                if scope != "all"
            }
            windows.append(entry)
        return {
            "window_s": self.window,
            "backend": "sketch",
            "latency_thresholds_ms": list(self.thresholds),
            "responses": self.responses,
            "windows": windows,
        }

    def to_json(self) -> str:
        """Sorted-key JSON of :meth:`snapshot` (the byte-compare gate)."""
        return json.dumps(self.snapshot(), sort_keys=True)
