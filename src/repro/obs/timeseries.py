"""Windowed telemetry: metrics-over-time on the virtual clock.

End-of-run aggregates (PR 6's ``ServingRunResult``) say *whether* the
tier kept up; operators need to know *when* it did not.  This module
rolls every response into fixed-width virtual-clock windows — per
endpoint and platform-wide — so p50/p99, goodput, shed rate, and queue
depth become a queryable, exportable time series.

Design points:

* **Virtual clock only.**  A response lands in the window of its
  *completion* time; queue-depth samples in the window of the
  observation.  No wall clock, so the exported series is byte-identical
  for a seeded run — the determinism matrix pins the JSON export's
  sha256 across reruns and worker counts.
* **Sketch-backed percentiles.**  Each (window, scope) keeps a bounded
  :class:`~repro.sim.metrics.SketchHistogram` (or the exact backend on
  request), so memory is O(windows × endpoints × compression) no matter
  how heavy the traffic.
* **Exact threshold counts.**  SLO evaluation needs "how many requests
  exceeded X ms" *exactly* (a sketch would approximate it); declared
  ``latency_thresholds_ms`` are counted per window at observe time.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.metrics import Histogram, SketchHistogram

__all__ = ["WindowedTelemetry", "WindowScope"]

#: Status-code → snapshot field mapping (HTTP-style, see serving.schemas).
_STATUS_FIELDS = {200: "ok", 400: "invalid", 409: "refused", 429: "shed",
                  500: "error"}


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

    def __init__(
        self,
        thresholds: Tuple[float, ...],
        backend: str,
        compression: int,
    ):
        self.count = 0
        self.ok = 0
        self.invalid = 0
        self.refused = 0
        self.shed = 0
        self.error = 0
        self.cached = 0
        if backend == "sketch":
            self.latency = SketchHistogram("window", compression=compression)
        else:
            self.latency = Histogram("window")
        self.over = [0] * len(thresholds)
        self.queue_depth_max = 0.0
        self.queue_depth_last = 0.0

    def record(
        self,
        status: int,
        latency_ms: float,
        cached: bool,
        thresholds: Tuple[float, ...],
    ) -> None:
        self.count += 1
        # Explicit branches, not setattr(_STATUS_FIELDS[...]): this runs
        # twice per served response, and dynamic attribute dispatch is
        # measurably slower on the request path.
        if status == 200:
            self.ok += 1
        elif status == 429:
            self.shed += 1
        elif status == 400:
            self.invalid += 1
        elif status == 409:
            self.refused += 1
        elif status == 500:
            self.error += 1
        if cached:
            self.cached += 1
        if status != 429:
            self.latency.observe(latency_ms)
            if thresholds:
                for i, threshold in enumerate(thresholds):
                    if latency_ms > threshold:
                        self.over[i] += 1

    def record_batch(
        self,
        statuses: List[int],
        latencies_ms: List[float],
        cached: int,
        thresholds: Tuple[float, ...],
    ) -> None:
        """Fold one window's buffered columns in bulk — equivalent to
        :meth:`record` per row (same counts, same observed values, same
        order), but the counting runs at C speed (numpy count_nonzero
        and one bulk sketch observe) so the amortised per-response cost
        stays small.
        """
        n = len(statuses)
        self.count += n
        status_arr = np.asarray(statuses, dtype=np.int64)
        self.ok += int(np.count_nonzero(status_arr == 200))
        self.invalid += int(np.count_nonzero(status_arr == 400))
        self.refused += int(np.count_nonzero(status_arr == 409))
        shed = int(np.count_nonzero(status_arr == 429))
        self.shed += shed
        self.error += int(np.count_nonzero(status_arr == 500))
        self.cached += cached
        if shed < n:
            latency_arr = np.asarray(latencies_ms, dtype=np.float64)
            if shed:
                latency_arr = latency_arr[status_arr != 429]
            self.latency.observe_many(latency_arr)
            for i, threshold in enumerate(thresholds):
                self.over[i] += int(np.count_nonzero(latency_arr > threshold))

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
    backend:
        ``"sketch"`` (default, bounded memory) or ``"exact"``.
    compression:
        Sketch compression per (window, scope) cell.
    """

    def __init__(
        self,
        window: float = 1.0,
        latency_thresholds_ms: Tuple[float, ...] = (),
        backend: str = "sketch",
        compression: int = 100,
    ):
        if window <= 0 or not math.isfinite(window):
            raise ValueError(f"window must be positive, got {window}")
        if backend not in ("sketch", "exact"):
            raise ValueError(
                f"backend must be 'sketch' or 'exact', got {backend!r}"
            )
        self.window = float(window)
        # Deduplicate but preserve declaration order determinism: sort.
        self.thresholds: Tuple[float, ...] = tuple(
            sorted({float(t) for t in latency_thresholds_ms})
        )
        self.backend = backend
        self.compression = compression
        self._windows: Dict[int, Dict[str, WindowScope]] = {}
        # Ingest fast path: responses complete in non-decreasing virtual
        # time, so the whole run is buffered as raw rows with window
        # *boundary markers* recorded as the clock crosses them, and the
        # fold into scope cells is deferred until the first query (every
        # reader flushes first).  Per-response cost on the request path
        # is one tuple append of the arguments as given — latency is
        # computed at the fold, and the observability-overhead gate in
        # ``benchmarks/regression.py`` bounds this path — and the fold
        # itself runs once, off the request path, at C speed (numpy
        # counting and one bulk sketch observe per cell).
        # (endpoint, status, arrived, completed, cached) per response.
        self._rows: List[Tuple[str, int, float, float, bool]] = []
        self._folded = 0  # responses already folded into cells
        # (start position in _rows, window index) per contiguous segment.
        self._boundaries: List[Tuple[int, int]] = []
        self._row_index: Optional[int] = None
        # Current segment's half-open [start, limit) time bounds: the
        # common case is one float compare, not a floordiv per response.
        self._row_start = math.inf
        self._row_limit = -math.inf
        # Queue-depth samples hit the same (window, "all") cell many
        # times in a row; cache it (with the window's time bounds, so
        # the common case is one float compare).
        self._depth_cell: Optional[WindowScope] = None
        self._depth_start = math.inf
        self._depth_limit = -math.inf

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def window_index(self, time: float) -> int:
        return int(time // self.window)

    def _scope(self, index: int, scope: str) -> WindowScope:
        per_window = self._windows.get(index)
        if per_window is None:
            per_window = {}
            self._windows[index] = per_window
        cell = per_window.get(scope)
        if cell is None:
            cell = WindowScope(self.thresholds, self.backend, self.compression)
            per_window[scope] = cell
        return cell

    def record_response(
        self,
        endpoint: str,
        status: int,
        arrived: float,
        completed: float,
        cached: bool = False,
    ) -> None:
        """Roll one response into its completion window.

        This runs once per served response, so it only buffers one raw
        row: the fold into scope cells is deferred to :meth:`_flush` on
        the first query (the observability-overhead gate in
        ``benchmarks/regression.py`` bounds what this path may cost).
        """
        if not self._row_start <= completed < self._row_limit:
            index = int(completed // self.window)
            self._boundaries.append((len(self._rows), index))
            self._row_index = index
            self._row_start = index * self.window
            self._row_limit = (index + 1) * self.window
        self._rows.append((endpoint, status, arrived, completed, cached))

    @property
    def responses(self) -> int:
        """Responses recorded so far."""
        return self._folded + len(self._rows)

    def _cell(self, per_window: Dict[str, "WindowScope"], scope: str):
        cell = per_window.get(scope)
        if cell is None:
            cell = per_window[scope] = WindowScope(
                self.thresholds, self.backend, self.compression
            )
        return cell

    def _flush(self) -> None:
        """Fold every buffered window segment into its scope cells.

        Runs off the request path (first query after ingest); folding a
        window across two flushes is additive, so a mid-run query stays
        correct — it just pays the fold for the rows seen so far.
        """
        rows = self._rows
        if not rows:
            return
        thresholds = self.thresholds
        boundaries = self._boundaries
        n_segments = len(boundaries)
        for seg in range(n_segments):
            start, index = boundaries[seg]
            end = (
                boundaries[seg + 1][0] if seg + 1 < n_segments else len(rows)
            )
            segment = rows[start:end]
            per_window = self._windows.get(index)
            if per_window is None:
                per_window = self._windows[index] = {}
            endpoints, statuses, arrived, completed, cached = zip(*segment)
            latencies = [
                (done - began) * 1e3 for began, done in zip(arrived, completed)
            ]
            self._cell(per_window, "all").record_batch(
                list(statuses), latencies, cached.count(True), thresholds,
            )
            groups: Dict[str, List[int]] = {}
            for position, endpoint in enumerate(endpoints):
                group = groups.get(endpoint)
                if group is None:
                    group = groups[endpoint] = []
                group.append(position)
            for endpoint, positions in groups.items():
                self._cell(per_window, endpoint).record_batch(
                    [statuses[i] for i in positions],
                    [latencies[i] for i in positions],
                    sum(1 for i in positions if cached[i]),
                    thresholds,
                )
        self._folded += len(rows)
        self._rows = []
        self._boundaries = []
        self._row_index = None
        # Force the next record to open a fresh segment (the boundary
        # list it would otherwise rely on was just consumed).
        self._row_start = math.inf
        self._row_limit = -math.inf

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
        self._flush()
        return len(self._windows)

    def indices(self) -> List[int]:
        """Window indices with any data, ascending."""
        self._flush()
        return sorted(self._windows)

    def last_index(self) -> int:
        """The highest populated window index (-1 when empty)."""
        self._flush()
        return max(self._windows) if self._windows else -1

    def scope_stats(
        self, index: int, scope: str = "all"
    ) -> Optional[WindowScope]:
        """The live accumulator for one (window, scope), or None."""
        self._flush()
        return self._windows.get(index, {}).get(scope)

    def series(
        self, metric: str, scope: str = "all"
    ) -> List[Tuple[float, float]]:
        """``(window_start, value)`` points for one snapshot metric."""
        self._flush()
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
        self._flush()
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
            "backend": self.backend,
            "latency_thresholds_ms": list(self.thresholds),
            "responses": self.responses,
            "windows": windows,
        }

    def to_json(self) -> str:
        """Sorted-key JSON of :meth:`snapshot` (the byte-compare gate)."""
        return json.dumps(self.snapshot(), sort_keys=True)
