"""The folds over the response log against the per-request recording
they replace.

The gateway keeps one record per served request, its response log, and
the offered and status counters, the latency histograms, the telemetry
windows and the sampler's status and tail keeps are folded from it after
the loop.  The reference gateway below also runs, per response, a copy
of the recording the gateway, the telemetry and the sampler used to do
on the request path: the counters and histograms observed one response
at a time, the telemetry's row buffer with its window boundary markers
(folded at the end, one batch per marked segment), live queue-depth
samples, and the sampler's keep rules with its bounded tail heap and
floor.  Every fold must reproduce it.
"""

import heapq
import math
from typing import Dict, List

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.context import (
    REQUEST_ROOT_NAME,
    RequestContext,
    RequestTraceSampler,
    SamplingPolicy,
    derive_trace_id,
)
from repro.obs.timeseries import WindowedTelemetry
from repro.serving.gateway import ServingConfig, ServingGateway
from repro.serving.loop import EventLoop
from repro.serving.middleware import BoundedQueue
from repro.serving.repository import ServingRepository
from repro.serving.run import SERVICE_TIME_DOMAIN, fold_telemetry, schedule_arrivals
from repro.serving.schemas import Status
from repro.sim import TraceLog
from repro.sim.metrics import MetricsRegistry
from repro.workloads.traffic import SpikeWindow, TrafficConfig, generate_traffic
from tests.flash_crowd import FLASH_CROWD

WINDOWS = (0.25, 1.0, 2.0)
THRESHOLDS = (1.0, 5.0, 40.0)
KEPT_BY = ("head", "status", "tail_latency")


class _StreamingTelemetry(WindowedTelemetry):
    """Telemetry ingest as it ran per response: one buffered row, and a
    boundary marker whenever the completion leaves the current window."""

    def __init__(self, window, thresholds):
        super().__init__(window, thresholds)
        self._rows = []
        self._boundaries = []  # (start position in _rows, window index)
        self._row_start = math.inf
        self._row_limit = -math.inf

    def record_response(self, endpoint, status, arrived, completed, cached=False):
        if not self._row_start <= completed < self._row_limit:
            index = int(completed // self.window)
            self._boundaries.append((len(self._rows), index))
            self._row_start = index * self.window
            self._row_limit = (index + 1) * self.window
        self._rows.append((endpoint, status, arrived, completed, cached))

    def flush(self):
        rows, boundaries = self._rows, self._boundaries
        for seg, (start, index) in enumerate(boundaries):
            end = boundaries[seg + 1][0] if seg + 1 < len(boundaries) else len(rows)
            endpoints, statuses, arrived, completed, cached = zip(*rows[start:end])
            latencies = [
                (done - began) * 1e3 for began, done in zip(arrived, completed)
            ]
            self._scope(index, "all").record_batch(
                list(statuses), latencies, cached.count(True), self.thresholds
            )
            groups: Dict[str, List[int]] = {}
            for position, endpoint in enumerate(endpoints):
                groups.setdefault(endpoint, []).append(position)
            for endpoint, positions in groups.items():
                self._scope(index, endpoint).record_batch(
                    [statuses[i] for i in positions],
                    [latencies[i] for i in positions],
                    sum(1 for i in positions if cached[i]),
                    self.thresholds,
                )
        self.responses += len(rows)
        self._rows, self._boundaries = [], []
        return self


class _StreamingKeeps:
    """The sampler's keep rules as they ran per response: head and status
    keeps at response time, tail keeps through a bounded min-heap whose
    floor drops almost every response with one compare."""

    def __init__(self, policy: SamplingPolicy):
        self.keep_statuses = frozenset(policy.keep_statuses)
        self.top_k = policy.top_k_latency
        self.kept: Dict[str, List[str]] = {name: [] for name in KEPT_BY}
        self.heap: list = []
        self.floor = -math.inf if self.top_k > 0 else math.inf
        self.seen = 0

    def on_response(self, ctx, status, arrived, completed):
        self.seen += 1
        if ctx.sampled:
            self.kept["head"].append(ctx.trace_id)
            return
        if status in self.keep_statuses:
            self.kept["status"].append(ctx.trace_id)
            return
        latency = completed - arrived
        if latency < self.floor:
            return
        entry = (latency, ctx.trace_id)
        if len(self.heap) >= self.top_k:
            floor = self.heap[0]
            if latency == floor[0] and ctx.trace_id <= floor[1]:
                return
            heapq.heapreplace(self.heap, entry)
        else:
            heapq.heappush(self.heap, entry)
        if len(self.heap) >= self.top_k:
            self.floor = self.heap[0][0]

    def finalize(self) -> Dict[str, List[str]]:
        ordered = sorted(self.heap, key=lambda e: (-e[0], e[1]))
        self.kept["tail_latency"] = [trace_id for _, trace_id in ordered]
        return self.kept


class _ObservedQueue(BoundedQueue):
    """The admission queue, sampling its depth into the reference
    telemetries after every enqueue and dequeue, as the gateway did."""

    def __init__(self, limit, loop, telemetries):
        super().__init__(limit)
        self._loop = loop
        self._telemetries = telemetries

    def offer(self, item):
        taken = super().offer(item)
        if taken:
            self._observe()
        return taken

    def take(self):
        item = super().take()
        self._observe()
        return item

    def _observe(self):
        for telemetry in self._telemetries:
            telemetry.observe_queue_depth(self._loop.now, float(len(self)))


class _ReferenceGateway(ServingGateway):
    def __init__(self, *args, policy, **kwargs):
        super().__init__(*args, **kwargs)
        self.per_request = MetricsRegistry()
        self.telemetries = [_StreamingTelemetry(w, THRESHOLDS) for w in WINDOWS]
        self.keeps = _StreamingKeeps(policy)
        self.queue = _ObservedQueue(self.queue.limit, self.loop, self.telemetries)

    def submit(self, request, ctx=None):
        self.per_request.counter(
            f"serving.offered.{request.endpoint.value}"
        ).inc()
        super().submit(request, ctx)

    def _respond(self, route, status, arrived, completed, cached, body, ctx):
        name, code = route.name, int(status)
        self.per_request.counter(f"serving.status.{name}.{code}").inc()
        if status != Status.SHED:
            latency_ms = (completed - arrived) * 1e3
            self.per_request.histogram(f"serving.latency_ms.{name}").observe(
                latency_ms
            )
            self.per_request.histogram("serving.latency_ms.all").observe(
                latency_ms
            )
        for telemetry in self.telemetries:
            telemetry.record_response(name, code, arrived, completed, cached)
        if ctx is not None:
            self.keeps.on_response(ctx, code, arrived, completed)
        super()._respond(route, status, arrived, completed, cached, body, ctx)


def _run(traffic: TrafficConfig, serving: ServingConfig, policy: SamplingPolicy):
    loop = EventLoop()
    gateway = _ReferenceGateway(
        ServingRepository(n_users=traffic.n_users, seed=traffic.seed),
        loop,
        serving,
        MetricsRegistry(),
        np.random.default_rng(
            np.random.SeedSequence(
                entropy=traffic.seed, spawn_key=(SERVICE_TIME_DOMAIN,)
            )
        ),
        sampler=RequestTraceSampler(TraceLog(), policy),
        policy=policy,
    )
    schedule_arrivals(
        loop, gateway.submit, generate_traffic(traffic), policy.head_rate
    )
    gateway.start(horizon=traffic.horizon)
    loop.run()
    return gateway


def _serving_part(payload):
    return {
        kind: {
            name: value for name, value in instruments.items()
            if name.startswith("serving.")
        }
        for kind, instruments in payload.items()
    }


def _assert_folds_match(gateway: _ReferenceGateway) -> None:
    log = gateway.responses

    # Registry: the live instruments plus the per-request ones.
    live = gateway.registry.as_dict()
    gateway.fold_metrics()
    expected = {
        kind: {**live[kind], **instruments}
        for kind, instruments in gateway.per_request.as_dict().items()
    }
    assert _serving_part(gateway.registry.as_dict()) == _serving_part(expected)

    # Telemetry, at each window width.
    for reference in gateway.telemetries:
        folded = WindowedTelemetry(reference.window, THRESHOLDS)
        folded.record_responses(*log.columns())
        for time, depth in zip(gateway.depth_times, gateway.depths):
            folded.observe_queue_depth(time, depth)
        assert folded.to_json() == reference.flush().to_json(), reference.window
        if reference.window == 1.0:
            assert fold_telemetry(gateway, THRESHOLDS).to_json() == folded.to_json()

    # Sampler: the kept trace ids of each rule, in emission order.
    sampler = gateway._sampler
    sampler.finalize(log.contexts, *log.columns())
    kept: Dict[str, List[str]] = {name: [] for name in KEPT_BY}
    for record in sampler.trace.records:
        if record.payload.get("name") == REQUEST_ROOT_NAME:
            attributes = record.payload["attributes"]
            kept[attributes["kept_by"]].append(record.payload["trace_id"])
    assert kept == gateway.keeps.finalize()
    assert sampler.seen == gateway.keeps.seen == len(log)
    assert (sampler.kept_head, sampler.kept_status, sampler.kept_tail) == tuple(
        len(kept[name]) for name in KEPT_BY
    )


def _step_backs(gateway, window: float) -> int:
    index = np.floor_divide(np.asarray(gateway.responses.columns()[3]), window)
    return int(np.count_nonzero(index[1:] < index[:-1]))


def test_flash_crowd():
    gateway = _run(
        FLASH_CROWD["traffic"], FLASH_CROWD["serving"],
        SamplingPolicy(head_rate=0.05),
    )
    statuses = set(gateway.responses.status_counts())
    assert {200, 400, 409, 429} <= statuses
    assert len(gateway.depths) > 0
    _assert_folds_match(gateway)


def test_step_backs_and_ties_at_the_tail_floor():
    # Invalid writes complete 0.3 s after arrival, so service completions
    # logged after them step back across window boundaries, and windows
    # hold more rows than a sketch buffers, so where a segment is cut
    # shows in the percentiles.  Invalid writes are tail candidates, and
    # their latencies take a few exact values, so the tail's top-k floor
    # falls inside a tie.
    policy = SamplingPolicy(head_rate=0.1, top_k_latency=25)
    gateway = _run(
        TrafficConfig(
            n_users=200, horizon=4.0, rate_per_user=3.0, seed=11,
            invalid_frac=0.3,
        ),
        ServingConfig(n_servers=64, validation_cost=0.3, service_jitter=0.0),
        policy,
    )
    assert all(_step_backs(gateway, window) > 0 for window in WINDOWS)
    log = gateway.responses
    _, statuses, arrived, completed, _ = log.columns()
    candidates = sorted(
        (
            (done - began)
            for ctx, status, began, done in zip(
                log.contexts, statuses, arrived, completed
            )
            if not ctx.sampled and status not in policy.keep_statuses
        ),
        reverse=True,
    )
    k = policy.top_k_latency
    assert len(candidates) > k and candidates[k - 1] == candidates[k]
    _assert_folds_match(gateway)


@st.composite
def _scenarios(draw):
    horizon = draw(st.floats(0.5, 4.0))
    spikes = ()
    if draw(st.booleans()):
        start = draw(st.floats(0.0, 0.9 * horizon))
        spikes = (
            SpikeWindow(start, start + draw(st.floats(0.1, 2.0)),
                        draw(st.floats(1.0, 6.0))),
        )
    traffic = TrafficConfig(
        n_users=draw(st.integers(2, 40)),
        horizon=horizon,
        rate_per_user=draw(st.floats(0.5, 6.0)),
        seed=draw(st.integers(0, 2**16)),
        spikes=spikes,
        invalid_frac=draw(st.sampled_from([0.0, 0.1, 0.4])),
    )
    serving = ServingConfig(
        n_servers=draw(st.integers(1, 3)),
        queue_limit=draw(st.integers(0, 8)),
        cache_ttl=draw(st.sampled_from([0.05, 0.5, 2.0])),
        validation_cost=draw(st.sampled_from([0.0, 0.0001, 0.3])),
        cache_hit_cost=draw(st.sampled_from([0.0, 0.0002, 0.3])),
        service_jitter=draw(st.sampled_from([0.0, 0.25])),
    )
    policy = SamplingPolicy(
        head_rate=draw(st.sampled_from([0.0, 0.05, 0.5, 1.0])),
        keep_statuses=tuple(
            draw(st.sets(st.sampled_from([400, 409, 429, 500])))
        ),
        top_k_latency=draw(st.integers(0, 8)),
    )
    return traffic, serving, policy


@given(scenario=_scenarios())
@settings(max_examples=40, deadline=None)
def test_drawn_scenarios(scenario):
    _assert_folds_match(_run(*scenario))


# --- the column folds alone, on drawn rows --------------------------------

_ROWS = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from([200, 400, 409, 429, 500]),
        st.sampled_from([0.0, 0.001, 0.002, 0.01]),  # latency, ties likely
        st.floats(0.0, 3.0),  # completion
        st.booleans(),
        st.booleans(),  # head-sampled
    ),
    max_size=120,
)


@given(rows=_ROWS)
@settings(max_examples=200, deadline=None)
def test_telemetry_fold_on_drawn_rows(rows):
    # Completions in drawn order step back and forth across windows.
    for window in WINDOWS:
        reference = _StreamingTelemetry(window, THRESHOLDS)
        for endpoint, status, latency, completed, cached, _ in rows:
            arrived = completed if status == 429 else completed - latency
            reference.record_response(endpoint, status, arrived, completed, cached)
        folded = WindowedTelemetry(window, THRESHOLDS)
        folded.record_responses(
            [row[0] for row in rows],
            [row[1] for row in rows],
            [row[3] if row[1] == 429 else row[3] - row[2] for row in rows],
            [row[3] for row in rows],
            [row[4] for row in rows],
        )
        assert folded.to_json() == reference.flush().to_json()


@given(rows=_ROWS, top_k=st.integers(0, 6),
       keep=st.sets(st.sampled_from([200, 400, 409, 429, 500])))
@settings(max_examples=200, deadline=None)
def test_sampler_fold_on_drawn_rows(rows, top_k, keep):
    policy = SamplingPolicy(
        head_rate=0.0, keep_statuses=tuple(keep), top_k_latency=top_k
    )
    keeps = _StreamingKeeps(policy)
    contexts = [
        RequestContext(derive_trace_id(0, 0, seq), 0, seq, row[5], math.nan, False)
        for seq, row in enumerate(rows)
    ]
    arrived = [row[3] - row[2] for row in rows]
    for ctx, row, began in zip(contexts, rows, arrived):
        keeps.on_response(ctx, row[1], began, row[3])
    trace = TraceLog()
    sampler = RequestTraceSampler(trace, policy)
    for ctx, row, began in zip(contexts, rows, arrived):
        if ctx.sampled:
            sampler.on_response(ctx, row[0], row[1], began, row[3])
    sampler.finalize(
        contexts,
        [row[0] for row in rows],
        [row[1] for row in rows],
        arrived,
        [row[3] for row in rows],
        [row[4] for row in rows],
    )
    kept: Dict[str, List[str]] = {name: [] for name in KEPT_BY}
    for record in trace.records:
        if record.payload.get("name") == REQUEST_ROOT_NAME:
            kept[record.payload["attributes"]["kept_by"]].append(
                record.payload["trace_id"]
            )
    assert kept == keeps.finalize()
    assert sampler.seen == keeps.seen == len(rows)
