"""Tests for request-scoped trace propagation and deterministic
sampling: trace-id purity, head/tail keep rules, and span emission."""

import math

import pytest

from repro.obs.context import (
    REQUEST_ROOT_NAME,
    REQUEST_SOURCE,
    STAGE_PREFIX,
    RequestContext,
    RequestTraceSampler,
    SamplingPolicy,
    derive_trace_id,
    head_sampled,
    request_span_id,
)
from repro.sim import TraceLog


class TestDeriveTraceId:
    def test_pure_function_of_parts(self):
        assert derive_trace_id(7, 12, 3) == derive_trace_id(7, 12, 3)

    def test_distinct_parts_distinct_ids(self):
        ids = {
            derive_trace_id(seed, user, seq)
            for seed in range(3)
            for user in range(5)
            for seq in range(5)
        }
        assert len(ids) == 3 * 5 * 5

    def test_sixteen_hex_digits(self):
        tid = derive_trace_id(2022, 0, 0)
        assert len(tid) == 16
        int(tid, 16)  # parses as hex

    def test_part_order_matters(self):
        assert derive_trace_id(1, 2) != derive_trace_id(2, 1)


class TestRequestSpanId:
    def test_pure_and_distinct_per_part(self):
        tid = derive_trace_id(1, 2, 3)
        assert request_span_id(tid, "root") == request_span_id(tid, "root")
        assert request_span_id(tid, "root") != request_span_id(tid, "stage:queue")
        assert len(request_span_id(tid, "root")) == 16


class TestHeadSampled:
    def test_rate_bounds(self):
        tid = derive_trace_id(0, 0, 0)
        assert head_sampled(tid, 1.0) is True
        assert head_sampled(tid, 0.0) is False

    def test_pure_function_of_id(self):
        tid = derive_trace_id(9, 9, 9)
        assert head_sampled(tid, 0.3) == head_sampled(tid, 0.3)

    def test_monotone_in_rate(self):
        for seq in range(200):
            tid = derive_trace_id(5, 0, seq)
            if head_sampled(tid, 0.05):
                assert head_sampled(tid, 0.5)

    def test_empirical_fraction_tracks_rate(self):
        n = 4000
        kept = sum(
            head_sampled(derive_trace_id(1, i // 40, i), 0.1)
            for i in range(n)
        )
        assert 0.05 < kept / n < 0.15


class TestSamplingPolicy:
    def test_defaults(self):
        policy = SamplingPolicy()
        assert policy.head_rate == 0.01
        assert policy.keep_statuses == (429, 500)
        assert policy.top_k_latency == 25

    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_head_rate_out_of_range_rejected(self, rate):
        with pytest.raises(ValueError, match="head_rate"):
            SamplingPolicy(head_rate=rate)

    def test_negative_top_k_rejected(self):
        with pytest.raises(ValueError, match="top_k_latency"):
            SamplingPolicy(top_k_latency=-1)

    # Each was accepted; a count must be an integer, and a bool is not.
    @pytest.mark.parametrize("value", [2.5, 25.0, True])
    def test_non_integer_top_k_rejected(self, value):
        with pytest.raises(ValueError, match="^top_k_latency"):
            SamplingPolicy(top_k_latency=value)


def _ctx(seed, user, seq, head_rate=0.0, service_start=math.nan):
    """A context as ``schedule_arrivals`` builds one; ``service_start``
    is set for a request that reached a server."""
    trace_id = derive_trace_id(seed, user, seq)
    return RequestContext(
        trace_id, user, seq, head_sampled(trace_id, head_rate),
        service_start, False,
    )


def _finalize(sampler, rows):
    """Fold ``(ctx, status, arrived, completed, cached)`` rows, given in
    log order, through ``finalize`` as the response log's columns."""
    contexts = [row[0] for row in rows]
    columns = [list(column) for column in zip(*(row[1:] for row in rows))]
    if not columns:
        columns = [[], [], [], []]
    statuses, arrived, completed, cached = columns
    return sampler.finalize(
        contexts, ["submit_tx"] * len(rows), statuses, arrived, completed,
        cached,
    )


def _roots(trace):
    return [
        r for r in trace.records if r.payload.get("name") == REQUEST_ROOT_NAME
    ]


def _stages(trace):
    return {
        r.payload["name"][len(STAGE_PREFIX):]: r.payload
        for r in trace.records
        if r.payload.get("name", "").startswith(STAGE_PREFIX)
    }


class TestRequestTraceSampler:
    def test_head_kept_emitted_immediately(self):
        trace = TraceLog()
        sampler = RequestTraceSampler(
            trace, SamplingPolicy(head_rate=1.0, top_k_latency=0)
        )
        ctx = _ctx(1, 0, 0, head_rate=1.0, service_start=0.0)
        sampler.on_response(ctx, "submit_tx", 200, 0.0, 0.01)
        assert sampler.kept_head == 1
        (root,) = _roots(trace)
        assert root.source == REQUEST_SOURCE
        assert root.payload["attributes"]["kept_by"] == "head"
        # The fold sees the head-sampled row but does not emit it again.
        assert _finalize(sampler, [(ctx, 200, 0.0, 0.01, False)]) == 0
        assert sampler.seen == 1 and sampler.kept == 1
        assert len(_roots(trace)) == 1

    @pytest.mark.parametrize("status", [429, 500])
    def test_page_statuses_always_kept(self, status):
        trace = TraceLog()
        sampler = RequestTraceSampler(
            trace, SamplingPolicy(head_rate=0.0, top_k_latency=0)
        )
        assert _finalize(sampler, [(_ctx(1, 0, 0), status, 0.0, 0.0, False)]) == 1
        assert sampler.kept_status == 1
        (root,) = _roots(trace)
        assert root.payload["attributes"]["kept_by"] == "status"

    def test_ok_response_dropped_without_tail(self):
        trace = TraceLog()
        sampler = RequestTraceSampler(
            trace, SamplingPolicy(head_rate=0.0, top_k_latency=0)
        )
        assert _finalize(sampler, [(_ctx(1, 0, 0), 200, 0.0, 0.01, False)]) == 0
        assert sampler.kept == 0
        assert len(trace) == 0

    def test_tail_keeps_top_k_latencies_in_order(self):
        trace = TraceLog()
        sampler = RequestTraceSampler(
            trace, SamplingPolicy(head_rate=0.0, top_k_latency=3)
        )
        latencies = [0.010, 0.050, 0.020, 0.040, 0.030]
        rows = [
            (_ctx(1, 0, seq), 200, 0.0, latency, False)
            for seq, latency in enumerate(latencies)
        ]
        assert _finalize(sampler, rows) == 3
        assert sampler.kept_tail == 3
        roots = _roots(trace)
        kept_ms = [r.payload["attributes"]["latency_ms"] for r in roots]
        assert kept_ms == [50.0, 40.0, 30.0]  # descending latency
        assert all(
            r.payload["attributes"]["kept_by"] == "tail_latency"
            for r in roots
        )

    def test_tail_ties_at_the_floor_keep_the_larger_trace_ids(self):
        trace = TraceLog()
        sampler = RequestTraceSampler(
            trace, SamplingPolicy(head_rate=0.0, top_k_latency=2)
        )
        contexts = [_ctx(1, 0, seq) for seq in range(4)]
        latencies = [0.020, 0.010, 0.010, 0.010]
        _finalize(sampler, [
            (ctx, 200, 0.0, latency, False)
            for ctx, latency in zip(contexts, latencies)
        ])
        tied = max(ctx.trace_id for ctx in contexts[1:])
        assert [r.payload["trace_id"] for r in _roots(trace)] == [
            contexts[0].trace_id, tied,
        ]

    def test_status_keeps_in_log_order_before_tail_keeps(self):
        trace = TraceLog()
        sampler = RequestTraceSampler(
            trace, SamplingPolicy(head_rate=0.0, top_k_latency=1)
        )
        rows = [
            (_ctx(1, 0, 0), 200, 0.0, 0.5, False),
            (_ctx(1, 0, 1), 500, 0.2, 0.3, False),
            (_ctx(1, 0, 2), 429, 0.1, 0.1, False),
        ]
        assert _finalize(sampler, rows) == 3
        assert [
            (r.payload["attributes"]["seq"], r.payload["attributes"]["kept_by"])
            for r in _roots(trace)
        ] == [(1, "status"), (2, "status"), (0, "tail_latency")]

    def test_seen_counts_every_response_with_a_context(self):
        sampler = RequestTraceSampler(
            TraceLog(), SamplingPolicy(head_rate=0.0, top_k_latency=1)
        )
        rows = [(_ctx(1, 0, seq), 200, 0.0, 0.01, False) for seq in range(10)]
        rows.append((None, 200, 0.0, 0.01, False))
        assert _finalize(sampler, rows) == 1
        assert sampler.seen == 10
        assert sampler.kept == 1

    def test_served_request_splits_into_admission_queue_substrate(self):
        trace = TraceLog()
        sampler = RequestTraceSampler(
            trace, SamplingPolicy(head_rate=1.0, top_k_latency=0)
        )
        ctx = _ctx(1, 0, 0, head_rate=1.0, service_start=2.3)
        sampler.on_response(ctx, "submit_tx", 200, 2.0, 2.5)
        stages = _stages(trace)
        assert set(stages) == {"admission", "queue", "substrate"}
        queue, substrate = stages["queue"], stages["substrate"]
        assert queue["end"] - queue["start"] == pytest.approx(0.3)
        assert substrate["end"] - substrate["start"] == pytest.approx(0.2)

    @pytest.mark.parametrize(
        "status, cached, stage",
        [(200, True, "cache"), (429, False, "admission"),
         (400, False, "validation")],
    )
    def test_unserved_request_is_one_stage(self, status, cached, stage):
        trace = TraceLog()
        sampler = RequestTraceSampler(
            trace, SamplingPolicy(head_rate=1.0, top_k_latency=0)
        )
        ctx = _ctx(1, 0, 0, head_rate=1.0)
        completed = 1.0 if status == 429 else 1.0001
        sampler.on_response(ctx, "submit_tx", status, 1.0, completed, cached)
        stages = _stages(trace)
        assert list(stages) == [stage]
        assert (stages[stage]["start"], stages[stage]["end"]) == (1.0, completed)

    def test_never_double_emits_a_trace(self):
        trace = TraceLog()
        sampler = RequestTraceSampler(
            trace, SamplingPolicy(head_rate=1.0, top_k_latency=0)
        )
        ctx = _ctx(1, 0, 0, head_rate=1.0, service_start=0.0)
        sampler.on_response(ctx, "submit_tx", 200, 0.0, 0.01)
        before = len(trace)
        sampler.on_response(ctx, "submit_tx", 200, 0.0, 0.01)
        assert len(trace) == before
