"""Tests for windowed telemetry: window assignment, the column fold,
threshold counting, queue depth, and export determinism."""

import numpy as np
import pytest

from repro.obs.timeseries import WindowScope, WindowedTelemetry

#: (endpoint, status, arrived, completed, cached) rows spanning windows
#: 0, 1, and 3 with every status class the snapshot distinguishes.
ROWS = [
    ("submit_tx", 200, 0.00, 0.010, False),
    ("submit_tx", 200, 0.05, 0.095, True),
    ("read_feed", 400, 0.10, 0.102, False),
    ("submit_tx", 429, 0.90, 0.900, False),
    ("read_feed", 200, 1.20, 1.260, False),
    ("submit_tx", 500, 1.40, 1.480, False),
    ("read_feed", 409, 3.10, 3.105, False),
    ("read_feed", 200, 3.20, 3.230, True),
]


def _ingest(telemetry, rows=ROWS):
    for endpoint, status, arrived, completed, cached in rows:
        telemetry.record_response(endpoint, status, arrived, completed, cached)
    return telemetry


def _fold(telemetry, rows=ROWS):
    telemetry.record_responses(*(list(column) for column in zip(*rows)))
    return telemetry


class TestValidation:
    @pytest.mark.parametrize("window", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_window_rejected(self, window):
        with pytest.raises(ValueError, match="window"):
            WindowedTelemetry(window=window)

    def test_thresholds_deduped_and_sorted(self):
        t = WindowedTelemetry(latency_thresholds_ms=(40.0, 10.0, 40.0))
        assert t.thresholds == (10.0, 40.0)


class TestWindowAssignment:
    def test_response_lands_in_completion_window(self):
        t = _ingest(WindowedTelemetry(window=1.0))
        assert t.indices() == [0, 1, 3]
        assert t.scope_stats(0).count == 4
        assert t.scope_stats(1).count == 2
        assert t.scope_stats(2) is None
        assert t.scope_stats(3).count == 2

    def test_window_width_changes_assignment(self):
        t = _ingest(WindowedTelemetry(window=2.0))
        assert t.indices() == [0, 1]  # 3.1s now falls in window 1

    def test_last_index_and_empty(self):
        empty = WindowedTelemetry()
        assert empty.last_index() == -1
        assert empty.n_windows == 0
        assert _ingest(WindowedTelemetry()).last_index() == 3


class TestStatusAndLatency:
    def test_status_classes_counted(self):
        t = _ingest(WindowedTelemetry(window=10.0))
        cell = t.scope_stats(0)
        assert (cell.ok, cell.invalid, cell.refused, cell.shed, cell.error) \
            == (4, 1, 1, 1, 1)
        assert cell.cached == 2

    def test_shed_excluded_from_latency(self):
        t = _ingest(WindowedTelemetry(window=10.0))
        cell = t.scope_stats(0)
        # 8 responses, 1 shed: latency observed for the other 7 only.
        assert cell.latency.count == 7

    def test_threshold_counts_exact(self):
        t = _ingest(WindowedTelemetry(
            window=10.0, latency_thresholds_ms=(20.0, 50.0)
        ))
        cell = t.scope_stats(0)
        # Latencies (ms, sheds out): 10, 45, 2, 60, 80, 5, 30.
        assert cell.over == [4, 2]
        snap = cell.snapshot(10.0, t.thresholds)
        assert snap["over_20ms"] == 4.0
        assert snap["over_50ms"] == 2.0

    def test_per_endpoint_scopes_partition_all(self):
        t = _ingest(WindowedTelemetry(window=10.0))
        total = t.scope_stats(0).count
        by_endpoint = (
            t.scope_stats(0, "submit_tx").count
            + t.scope_stats(0, "read_feed").count
        )
        assert total == by_endpoint == len(ROWS)


class TestColumnFold:
    """``record_responses`` folds columns in log order, one batch per run
    of rows completing in one window; ``record_response`` is its one-row
    form."""

    def test_one_row_entry_point_feeds_the_same_fold(self):
        by_row = _ingest(WindowedTelemetry(latency_thresholds_ms=(20.0,)))
        by_columns = _fold(WindowedTelemetry(latency_thresholds_ms=(20.0,)))
        assert by_row.to_json() == by_columns.to_json()
        assert by_row.responses == by_columns.responses == len(ROWS)

    def test_segments_cut_where_the_window_changes(self, monkeypatch):
        batches = []
        record_batch = WindowScope.record_batch

        def spy(cell, statuses, latencies_ms, cached, thresholds):
            batches.append((cell, len(statuses)))
            record_batch(cell, statuses, latencies_ms, cached, thresholds)

        monkeypatch.setattr(WindowScope, "record_batch", spy)
        t = WindowedTelemetry(window=1.0)
        # Completion windows 0, 0, 1, 0, 1, 1: the fourth row completes
        # before the third and steps back across the boundary.
        rows = [
            ("a", 200, 0.1, 0.2, False),
            ("b", 200, 0.3, 0.4, False),
            ("a", 200, 0.9, 1.1, False),
            ("a", 400, 0.95, 0.9501, False),
            ("b", 200, 1.0, 1.2, False),
            ("a", 429, 1.3, 1.3, False),
        ]
        _fold(t, rows)
        all_cells = {t.scope_stats(0), t.scope_stats(1)}
        sizes = [size for cell, size in batches if cell in all_cells]
        assert sizes == [2, 1, 1, 2]
        assert t.scope_stats(0).count == 3 and t.scope_stats(1).count == 3
        assert t.scope_stats(0, "a").count == 2
        assert t.scope_stats(1, "a").shed == 1

    def test_a_later_fold_adds_to_the_same_window(self):
        t = WindowedTelemetry(window=1.0)
        t.record_response("a", 200, 0.0, 0.1)
        assert t.scope_stats(0).count == 1
        _fold(t, [("a", 200, 0.0, 0.2, False), ("a", 429, 0.5, 0.5, False)])
        cell = t.scope_stats(0)
        assert (cell.count, cell.ok, cell.shed) == (3, 2, 1)
        assert cell.latency.count == 2
        assert t.responses == 3

    def test_empty_columns_fold_nothing(self):
        t = WindowedTelemetry()
        t.record_responses([], [], [], [], [])
        assert t.responses == 0 and t.n_windows == 0

    def test_batch_counts_statuses_cached_and_thresholds(self):
        thresholds = (20.0,)
        cell = WindowScope(thresholds)
        cell.record_batch(
            np.array([200, 429, 400, 200, 500]),
            np.array([5.0, 0.0, 25.0, 60.0, 30.0]),
            2,
            thresholds,
        )
        assert (cell.count, cell.ok, cell.shed, cell.invalid, cell.error) \
            == (5, 2, 1, 1, 1)
        assert cell.cached == 2
        assert cell.latency.count == 4  # the shed's latency is skipped
        assert cell.over == [3]


class TestQueueDepth:
    def test_max_and_last_tracked_per_window(self):
        t = WindowedTelemetry(window=1.0)
        t.observe_queue_depth(0.1, 3.0)
        t.observe_queue_depth(0.5, 9.0)
        t.observe_queue_depth(0.9, 4.0)
        cell = t.scope_stats(0)
        assert cell.queue_depth_max == 9.0
        assert cell.queue_depth_last == 4.0

    def test_depth_only_window_still_exported(self):
        t = WindowedTelemetry(window=1.0)
        t.observe_queue_depth(5.5, 2.0)
        assert t.indices() == [5]
        assert t.series("queue_depth_max") == [(5.0, 2.0)]


class TestExport:
    def test_series_points_are_window_starts(self):
        t = _ingest(WindowedTelemetry(window=1.0))
        points = t.series("count")
        assert points == [(0.0, 4.0), (1.0, 2.0), (3.0, 2.0)]

    def test_series_unknown_metric_raises(self):
        t = _ingest(WindowedTelemetry())
        with pytest.raises(KeyError, match="unknown telemetry metric"):
            t.series("nope")

    def test_goodput_and_shed_rate(self):
        t = _ingest(WindowedTelemetry(window=1.0))
        snap = t.scope_stats(0).snapshot(1.0, ())
        assert snap["goodput_rps"] == 2.0  # 2 OK in a 1 s window
        assert snap["shed_rate"] == 0.25

    def test_to_json_byte_identical_across_ingests(self):
        first = _ingest(WindowedTelemetry(
            window=1.0, latency_thresholds_ms=(40.0,)
        ))
        second = _ingest(WindowedTelemetry(
            window=1.0, latency_thresholds_ms=(40.0,)
        ))
        assert first.to_json() == second.to_json()

    def test_snapshot_shape(self):
        snap = _ingest(WindowedTelemetry(window=1.0)).snapshot()
        assert snap["responses"] == len(ROWS)
        assert [w["index"] for w in snap["windows"]] == [0, 1, 3]
        window0 = snap["windows"][0]
        assert window0["start"] == 0.0 and window0["end"] == 1.0
        assert set(window0["endpoints"]) == {"read_feed", "submit_tx"}
