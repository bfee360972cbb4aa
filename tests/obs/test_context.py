"""Tests for request-scoped trace propagation and deterministic
sampling: trace-id purity, head/tail keep rules, and span emission."""

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


def _ctx(seed, user, seq, head_rate=0.0):
    return RequestContext.for_request(seed, user, seq, head_rate)


def _respond(sampler, ctx, status=200, arrived=0.0, completed=0.01):
    ctx.arrived = arrived
    ctx.service_start = arrived
    sampler.on_response(
        ctx, "submit_tx", status, arrived, completed, None, False
    )


class TestRequestTraceSampler:
    def test_head_kept_emitted_immediately(self):
        trace = TraceLog()
        sampler = RequestTraceSampler(
            trace, SamplingPolicy(head_rate=1.0, top_k_latency=0)
        )
        _respond(sampler, _ctx(1, 0, 0, head_rate=1.0))
        assert sampler.kept_head == 1
        roots = [
            r for r in trace.records
            if r.payload.get("name") == REQUEST_ROOT_NAME
        ]
        assert len(roots) == 1
        assert roots[0].source == REQUEST_SOURCE
        assert roots[0].payload["attributes"]["kept_by"] == "head"

    @pytest.mark.parametrize("status", [429, 500])
    def test_page_statuses_always_kept(self, status):
        trace = TraceLog()
        sampler = RequestTraceSampler(
            trace, SamplingPolicy(head_rate=0.0, top_k_latency=0)
        )
        _respond(sampler, _ctx(1, 0, 0), status=status)
        assert sampler.kept_status == 1

    def test_ok_response_dropped_without_tail(self):
        trace = TraceLog()
        sampler = RequestTraceSampler(
            trace, SamplingPolicy(head_rate=0.0, top_k_latency=0)
        )
        _respond(sampler, _ctx(1, 0, 0))
        assert sampler.kept == 0
        assert len(trace) == 0

    def test_tail_keeps_top_k_latencies_in_order(self):
        trace = TraceLog()
        sampler = RequestTraceSampler(
            trace, SamplingPolicy(head_rate=0.0, top_k_latency=3)
        )
        latencies = [0.010, 0.050, 0.020, 0.040, 0.030]
        for seq, latency in enumerate(latencies):
            _respond(
                sampler, _ctx(1, 0, seq), arrived=0.0, completed=latency
            )
        assert sampler.kept_tail == 0  # buffered until finalize
        assert sampler.finalize() == 3
        roots = [
            r for r in trace.records
            if r.payload.get("name") == REQUEST_ROOT_NAME
        ]
        kept_ms = [r.payload["attributes"]["latency_ms"] for r in roots]
        assert kept_ms == [50.0, 40.0, 30.0]  # descending latency
        assert all(
            r.payload["attributes"]["kept_by"] == "tail_latency"
            for r in roots
        )

    def test_seen_counts_every_response(self):
        sampler = RequestTraceSampler(
            TraceLog(), SamplingPolicy(head_rate=0.0, top_k_latency=1)
        )
        for seq in range(10):
            _respond(sampler, _ctx(1, 0, seq))
        assert sampler.seen == 10
        assert sampler.kept <= 1 + sampler.finalize()

    def test_derived_stage_decomposition_covers_latency(self):
        # stages=None (the served-path marker) must derive the
        # admission/queue/substrate split from the context at emit time.
        trace = TraceLog()
        sampler = RequestTraceSampler(
            trace, SamplingPolicy(head_rate=1.0, top_k_latency=0)
        )
        ctx = _ctx(1, 0, 0, head_rate=1.0)
        ctx.arrived = 2.0
        ctx.service_start = 2.3
        sampler.on_response(ctx, "submit_tx", 200, 2.0, 2.5, None, False)
        stages = {
            r.payload["name"][len(STAGE_PREFIX):]: r
            for r in trace.records
            if r.payload.get("name", "").startswith(STAGE_PREFIX)
        }
        assert set(stages) == {"admission", "queue", "substrate"}
        queue = stages["queue"].payload
        substrate = stages["substrate"].payload
        assert queue["end"] - queue["start"] == pytest.approx(0.3)
        assert substrate["end"] - substrate["start"] == pytest.approx(0.2)

    def test_never_double_emits_a_trace(self):
        trace = TraceLog()
        sampler = RequestTraceSampler(
            trace, SamplingPolicy(head_rate=1.0, top_k_latency=0)
        )
        ctx = _ctx(1, 0, 0, head_rate=1.0)
        _respond(sampler, ctx)
        before = len(trace)
        _respond(sampler, ctx)
        assert len(trace) == before
