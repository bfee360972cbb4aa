"""Tests for the gateway middleware chain on the virtual clock."""

import math

import numpy as np
import pytest

from repro.serving.gateway import (
    _DRAW_BLOCK,
    ServingConfig,
    ServingGateway,
    _exponential_draws,
)
from repro.serving.loop import EventLoop, PRIORITY_ARRIVAL
from repro.serving.repository import ServingRepository
from repro.serving.schemas import (
    Endpoint,
    GetBalanceRequest,
    Status,
    SubmitTxRequest,
)
from repro.sim.metrics import MetricsRegistry

SEED = 99
DEFAULT = ServingConfig()


def build_gateway(config: ServingConfig, n_users: int = 120):
    registry = MetricsRegistry()
    loop = EventLoop()
    repo = ServingRepository(n_users=n_users, seed=SEED)
    gateway = ServingGateway(
        repo, loop, config, registry,
        np.random.default_rng(np.random.SeedSequence(SEED)),
    )
    return gateway, loop, registry


def offer(loop, gateway, time, request):
    loop.schedule(
        time, lambda: gateway.submit(request), priority=PRIORITY_ARRIVAL
    )


class TestRequestPath:
    def test_invalid_request_rejected_without_substrate_work(self):
        gateway, loop, registry = build_gateway(ServingConfig())
        offer(loop, gateway, 0.0, SubmitTxRequest(user=0, recipient=0))  # self
        gateway.start(horizon=1.0)
        loop.run()
        (response,) = [
            r for r in gateway.responses if r.endpoint == Endpoint.SUBMIT_TX
        ]
        assert response.status == Status.INVALID
        assert response.latency == pytest.approx(
            ServingConfig().validation_cost
        )
        assert gateway.repo.chain.mempool.__len__() == 0

    def test_write_then_read_reflects_after_block(self):
        config = ServingConfig(block_interval=1.0)
        gateway, loop, registry = build_gateway(config)
        offer(loop, gateway, 0.1, SubmitTxRequest(user=0, recipient=1, amount=7))
        offer(loop, gateway, 3.0, GetBalanceRequest(user=1))
        gateway.start(horizon=4.0)
        loop.run()
        read = [r for r in gateway.responses if r.endpoint == Endpoint.GET_BALANCE][0]
        assert read.status == Status.OK
        assert read.body["balance"] == 1_000_000 + 7

    def test_cache_hit_skips_service_and_is_fast(self):
        config = ServingConfig(cache_ttl=5.0)
        gateway, loop, registry = build_gateway(config)
        offer(loop, gateway, 0.1, GetBalanceRequest(user=3))
        offer(loop, gateway, 0.2, GetBalanceRequest(user=3))
        gateway.start(horizon=1.0)
        loop.run()
        first, second = [
            r for r in gateway.responses if r.endpoint == Endpoint.GET_BALANCE
        ]
        assert not first.cached and second.cached
        assert second.latency == pytest.approx(config.cache_hit_cost)
        assert second.body == first.body
        assert registry.counters()["serving.cache.hit"] == 1

    def test_version_bump_invalidates_cached_balance(self):
        # Read at t=0.1 caches; a write lands in the t=1.0 block, so a
        # read at t=1.5 (TTL still live) must NOT be served stale.
        config = ServingConfig(cache_ttl=100.0, block_interval=1.0)
        gateway, loop, registry = build_gateway(config)
        offer(loop, gateway, 0.1, GetBalanceRequest(user=1))
        offer(loop, gateway, 0.2, SubmitTxRequest(user=0, recipient=1, amount=5))
        offer(loop, gateway, 1.5, GetBalanceRequest(user=1))
        gateway.start(horizon=2.0)
        loop.run()
        reads = [r for r in gateway.responses if r.endpoint == Endpoint.GET_BALANCE]
        assert not reads[1].cached
        assert reads[1].body["balance"] == 1_000_000 + 5

    def test_rate_limit_sheds_with_429(self):
        config = ServingConfig(
            rate_limits={
                **ServingConfig().rate_limits,
                Endpoint.SUBMIT_TX: (1.0, 2.0),
            }
        )
        gateway, loop, registry = build_gateway(config)
        for i in range(5):
            offer(
                loop, gateway, 0.01 * i,
                SubmitTxRequest(user=i, recipient=i + 1),
            )
        gateway.start(horizon=1.0)
        loop.run()
        statuses = [
            r.status for r in gateway.responses
            if r.endpoint == Endpoint.SUBMIT_TX
        ]
        assert statuses.count(Status.SHED) == 3  # burst of 2 admitted
        assert registry.counters()["serving.shed.rate_limit"] == 3

    def test_queue_overflow_sheds_with_429(self):
        config = ServingConfig(n_servers=1, queue_limit=2)
        gateway, loop, registry = build_gateway(config)
        # 5 simultaneous writes: 1 in service + 2 queued + 2 shed.
        for i in range(5):
            offer(loop, gateway, 0.5, SubmitTxRequest(user=i, recipient=i + 1))
        gateway.start(horizon=1.0)
        loop.run()
        statuses = [
            r.status for r in gateway.responses
            if r.endpoint == Endpoint.SUBMIT_TX
        ]
        assert statuses.count(Status.SHED) == 2
        assert statuses.count(Status.OK) == 3
        assert registry.counters()["serving.shed.queue_full"] == 2

    def test_queued_requests_fifo_and_measure_queue_wait(self):
        config = ServingConfig(n_servers=1, queue_limit=10)
        gateway, loop, registry = build_gateway(config)
        for i in range(4):
            offer(loop, gateway, 0.5, SubmitTxRequest(user=i, recipient=i + 1))
        gateway.start(horizon=1.0)
        loop.run()
        served = [
            r for r in gateway.responses if r.endpoint == Endpoint.SUBMIT_TX
        ]
        assert all(r.status == Status.OK for r in served)
        # Later-queued requests complete strictly later (FIFO drain).
        completions = [r.completed for r in served]
        assert completions == sorted(completions)
        wait_histogram = registry.peek_histogram(
            "serving.queue_wait_ms.submit_tx"
        )
        assert wait_histogram.count == 4
        assert wait_histogram.maximum > 0.0  # someone actually waited

    def test_all_offered_requests_get_exactly_one_response(self):
        gateway, loop, registry = build_gateway(ServingConfig())
        n = 30
        for i in range(n):
            offer(loop, gateway, 0.05 * i, SubmitTxRequest(user=i, recipient=i + 1))
            offer(loop, gateway, 0.05 * i, GetBalanceRequest(user=i))
        gateway.start(horizon=2.0)
        loop.run()
        assert len(gateway.responses) == 2 * n


class TestPlatformTicks:
    def test_ticks_stop_after_drain_window(self):
        config = ServingConfig(drain_window=2.0, block_interval=1.0)
        gateway, loop, registry = build_gateway(config)
        gateway.start(horizon=5.0)
        fired = loop.run()
        assert fired > 0
        assert len(loop) == 0  # heap fully drained; no immortal ticks
        assert loop.now <= 5.0 + config.drain_window

    def test_config_rejects_zero_servers(self):
        with pytest.raises(ValueError):
            build_gateway(ServingConfig(n_servers=0))


def _with(mapping, endpoint, value):
    return {**mapping, endpoint: value}


# Each value was accepted when the config was built.  Run, the zero
# intervals hung the loop, the negative jitter and service time raised
# mid-run, the empty maps raised KeyError at the first request, and
# most of the rest ran to completion on a value out of range or not a
# count.
CONFIG_REJECTED = [
    ("n_servers", 0),
    ("n_servers", 1.5),
    ("n_servers", True),
    ("queue_limit", -1),
    ("queue_limit", 64.0),
    ("cache_capacity", 0),
    ("block_size", 0),
    ("block_size", -3),
    ("block_size", 2.5),
    ("block_interval", 0.0),
    ("block_interval", math.nan),
    ("block_interval", math.inf),
    ("vote_window", 0.0),
    ("vote_window", math.nan),
    ("review_interval", 0.0),
    ("review_interval", math.nan),
    ("cache_ttl", 0.0),
    ("cache_ttl", math.nan),
    ("cache_hit_cost", math.nan),
    ("validation_cost", -1.0),
    ("service_jitter", -5.0),
    ("drain_window", -10.0),
    ("drain_window", math.nan),
    ("rate_limits", {}),
    ("rate_limits",
     _with(DEFAULT.rate_limits, Endpoint.SUBMIT_TX, (math.nan, 120.0))),
    ("rate_limits",
     _with(DEFAULT.rate_limits, Endpoint.GET_TALLY, (2_000.0, math.inf))),
    ("service_times", {}),
    ("service_times", _with(DEFAULT.service_times, Endpoint.CAST_VOTE, -0.002)),
    ("service_times",
     _with(DEFAULT.service_times, Endpoint.GET_BALANCE, math.inf)),
]


class TestConfigChecks:
    @pytest.mark.parametrize(
        "field, value", CONFIG_REJECTED,
        ids=[f"{field}-{i}" for i, (field, _) in enumerate(CONFIG_REJECTED)],
    )
    def test_rejected_at_construction(self, field, value):
        # Refused before any gateway or loop exists.
        with pytest.raises(ValueError, match=f"^{field}"):
            ServingConfig(**{field: value})


class TestServiceDraws:
    """Service times come from blocks of ``exponential(1.0)`` draws; the
    reference is one ``exponential(1.0)`` call per draw."""

    @staticmethod
    def _streams():
        return [np.random.default_rng(np.random.SeedSequence(2022)) for _ in range(2)]

    @pytest.mark.parametrize("block", [_DRAW_BLOCK, 7])
    def test_blocks_equal_per_call_draws(self, block):
        blocked, per_call = self._streams()
        draws = _exponential_draws(blocked, block)
        n = 3 * block + 2  # crosses three block boundaries
        got = [next(draws) for _ in range(n)]
        assert got == [float(per_call.exponential(1.0)) for _ in range(n)]
        # The draw after them opens no new block early: it is the
        # per-call stream's next draw too.
        assert next(draws) == float(per_call.exponential(1.0))

    def test_stream_runs_at_most_one_block_ahead(self):
        blocked, per_call = self._streams()
        draws = _exponential_draws(blocked, 5)
        for _ in range(10):  # exactly two blocks
            next(draws)
            per_call.exponential(1.0)
        assert blocked.random() == per_call.random()

    def test_gateway_service_times_follow_the_per_call_stream(self):
        config = ServingConfig(n_servers=1, queue_limit=50)
        gateway, loop, registry = build_gateway(config)
        for i in range(12):
            offer(loop, gateway, 0.5, SubmitTxRequest(user=i, recipient=i + 1))
        gateway.start(horizon=1.0)
        loop.run()
        served = [r for r in gateway.responses if r.status == Status.OK]
        assert len(served) == 12
        # One server: each service starts when the previous one ends.
        starts = [0.5] + [r.completed for r in served[:-1]]
        reference = np.random.default_rng(np.random.SeedSequence(SEED))
        base = config.service_times[Endpoint.SUBMIT_TX]
        for start, response in zip(starts, served):
            draw = float(reference.exponential(1.0))
            expected = base * (0.75 + config.service_jitter * draw)
            assert response.completed == start + expected
