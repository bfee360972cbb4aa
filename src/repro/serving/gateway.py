"""The serving gateway: middleware chain + virtual-time queueing.

One :class:`ServingGateway` is the in-process equivalent of the API
tier in a service-per-substrate deployment: arrivals enter through
:meth:`submit` (scheduled on the shared
:class:`~repro.serving.loop.EventLoop`), walk the middleware chain
(validation → read cache → token bucket + bounded queue), occupy one of
``n_servers`` simulated workers for a deterministic service time, and
complete with a response stamped entirely in simulated seconds.
Responses land in a :class:`ResponseLog`, one column per
:class:`~repro.serving.schemas.Response` field; rows are built as
``Response`` objects only when read.

Platform work that a batch loop would do per epoch happens here as
*periodic loop events*: block production drains the mempool every
``block_interval``, governance windows roll every ``vote_window``, and
moderation review capacity drains every ``review_interval`` — so the
fronted substrates advance exactly as they would under the epoch
workload, but interleaved with live request traffic.

Per-endpoint latency histograms, queue-wait histograms, queue-depth
gauges, and status counters land in the shared
:class:`~repro.sim.metrics.MetricsRegistry`; with observability wired,
every response and platform tick also emits trace events/spans.  Each
endpoint's instruments, token bucket, repository method, service time
and read surface are resolved once, on the endpoint's first request,
into a route that every later request of the endpoint reads.
"""

from __future__ import annotations

import collections
from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.context import (
    REQUEST_SOURCE,
    STAGE_PREFIX,
    RequestContext,
    RequestTraceSampler,
    request_span_id,
)
from repro.obs.instrument import NULL_OBS, Instrumentation
from repro.obs.timeseries import WindowedTelemetry
from repro.serving.loop import (
    EventLoop,
    PRIORITY_COMPLETION,
    PRIORITY_PLATFORM,
)
from repro.serving.middleware import BoundedQueue, ReadCache, TokenBucket
from repro.serving.repository import ServingRepository
from repro.serving.schemas import Endpoint, Request, Response, Status
from repro.sim.metrics import MetricsRegistry

__all__ = ["ServingConfig", "ServingGateway", "ResponseLog"]


#: Which repository surface (version namespace) each read endpoint
#: fronts — the cache invalidates on that surface's writes.
_READ_SURFACE = {
    Endpoint.GET_BALANCE: "ledger",
    Endpoint.GET_TALLY: "tally",
}

@dataclass(frozen=True)
class ServingConfig:
    """Gateway tuning knobs (all times in simulated seconds).

    The defaults model a small service pod: two workers, millisecond
    substrate calls, a queue that absorbs ~100 ms of burst, and rate
    limits well above the nominal per-surface load so that under
    overload it is queue backpressure (not the buckets) that sheds
    first.  ``service_jitter`` shapes the service-time tail: each
    service draw is ``base * (0.75 + jitter * Exp(1))``, giving mean
    ``base * (0.75 + jitter)`` and an exponential upper tail — the p99
    the bench reports is real queueing-plus-tail, not an artifact.
    """

    n_servers: int = 2
    queue_limit: int = 64
    cache_ttl: float = 0.5
    cache_capacity: int = 4096
    cache_hit_cost: float = 0.0002
    validation_cost: float = 0.0001
    service_jitter: float = 0.25
    block_interval: float = 1.0
    block_size: int = 250
    vote_window: float = 10.0
    review_interval: float = 2.0
    drain_window: float = 5.0
    rate_limits: Dict[Endpoint, Tuple[float, float]] = field(
        default_factory=lambda: {
            Endpoint.SUBMIT_TX: (600.0, 120.0),
            Endpoint.FILE_REPORT: (300.0, 60.0),
            Endpoint.CAST_VOTE: (300.0, 60.0),
            Endpoint.INGEST_FRAME: (600.0, 120.0),
            Endpoint.GET_BALANCE: (2_000.0, 400.0),
            Endpoint.GET_TALLY: (2_000.0, 400.0),
        }
    )
    service_times: Dict[Endpoint, float] = field(
        default_factory=lambda: {
            Endpoint.SUBMIT_TX: 0.0030,
            Endpoint.FILE_REPORT: 0.0025,
            Endpoint.CAST_VOTE: 0.0020,
            Endpoint.INGEST_FRAME: 0.0035,
            Endpoint.GET_BALANCE: 0.0008,
            Endpoint.GET_TALLY: 0.0010,
        }
    )


#: Service-time draws taken from the gateway's stream at a time.
_DRAW_BLOCK = 1024


def _exponential_draws(rng: np.random.Generator, block: int) -> Iterator[float]:
    """Unit exponential draws from ``rng``, taken ``block`` at a time.

    numpy fills ``exponential(1.0, block)`` element by element, so the
    values, in order, are the ones ``exponential(1.0)`` would return one
    call at a time; the stream runs at most one block ahead of them.
    """
    while True:
        yield from rng.exponential(1.0, block).tolist()


class ResponseLog(Sequence[Response]):
    """The gateway's responses, stored as one column per field.

    Appending stores six values and builds no object: the endpoint, the
    integer status code, the arrival and completion times, the cached
    flag and the body.  Reading by index (negative too), slice or
    iteration builds :class:`Response` rows equal to the ones a list of
    responses would hold, and :meth:`status_counts` counts the status
    column without building any.  A log equals another log, or a list
    or tuple of responses, holding the same rows in the same order.
    """

    __slots__ = (
        "_endpoints", "_statuses", "_arrived", "_completed", "_cached",
        "_bodies",
    )

    def __init__(self) -> None:
        self._endpoints: List[Endpoint] = []
        self._statuses = array("H")
        self._arrived = array("d")
        self._completed = array("d")
        self._cached = bytearray()
        self._bodies: List[Dict[str, Any]] = []

    def append(
        self,
        endpoint: Endpoint,
        status: int,
        arrived: float,
        completed: float,
        cached: bool,
        body: Dict[str, Any],
    ) -> None:
        self._endpoints.append(endpoint)
        self._statuses.append(status)
        self._arrived.append(arrived)
        self._completed.append(completed)
        self._cached.append(cached)
        self._bodies.append(body)

    def __len__(self) -> int:
        return len(self._endpoints)

    def _row(self, i: int) -> Response:
        return Response(
            self._endpoints[i],
            Status(self._statuses[i]),
            self._arrived[i],
            self._completed[i],
            bool(self._cached[i]),
            self._bodies[i],
        )

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[Response, List[Response]]:
        if isinstance(index, slice):
            return [self._row(i) for i in range(*index.indices(len(self)))]
        return self._row(index)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (ResponseLog, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def status_counts(self) -> Dict[int, int]:
        """Responses per integer status code, codes in first-seen order."""
        return dict(collections.Counter(self._statuses))


class _Route:
    """One endpoint's request path, resolved on its first request.

    Every request of the endpoint reads its name, ``serving.offered``
    counter, token bucket, repository method, base service time and read
    surface (None for writes).  The queue-wait and latency histograms
    and the per-status counters are resolved when a request first takes
    the path that feeds them, so the registry holds the same instruments
    that lookups by name per request would create.
    """

    __slots__ = (
        "endpoint", "name", "offered", "bucket", "dispatch", "service_time",
        "surface", "queue_wait", "latency", "latency_all", "statuses",
    )

    def __init__(self, gateway: "ServingGateway", endpoint: Endpoint):
        self.endpoint = endpoint
        self.name = name = endpoint.value
        self.offered = gateway.registry.counter(f"serving.offered.{name}")
        self.bucket = gateway._buckets[endpoint]
        self.dispatch = gateway._dispatch[endpoint]
        self.service_time = gateway.config.service_times[endpoint]
        self.surface = _READ_SURFACE.get(endpoint)
        self.queue_wait = self.latency = self.latency_all = None
        self.statuses: Dict[int, Any] = {}  # status code -> its counter


class ServingGateway:
    """Routes requests through middleware into the repository.

    Parameters
    ----------
    repo:
        The substrate repository (owns versions and domain outcomes).
    loop:
        The shared virtual-clock event loop.
    config:
        Queueing/caching/rate knobs.
    registry:
        Metrics sink (latency histograms, queue gauges, status counters).
    service_rng:
        Seeded generator for service-time draws.  The gateway owns it:
        it draws ``exponential(1.0)`` in blocks of ``_DRAW_BLOCK`` and
        consumes the values in service-start order, which the
        deterministic loop fixes.  Each value equals the one a per-call
        draw would give; the stream itself runs up to a block ahead.
    obs:
        Optional observability; responses and ticks emit trace events.
    telemetry:
        Optional :class:`WindowedTelemetry` rollup; every response and
        queue-depth change is windowed on the virtual clock.
    sampler:
        Optional :class:`RequestTraceSampler`; requests arriving with a
        :class:`RequestContext` are offered for trace export under its
        head/status/tail keep rules.

    Responses are kept in :attr:`responses`, a :class:`ResponseLog`.
    """

    def __init__(
        self,
        repo: ServingRepository,
        loop: EventLoop,
        config: ServingConfig,
        registry: MetricsRegistry,
        service_rng: np.random.Generator,
        obs: Optional[Instrumentation] = None,
        telemetry: Optional[WindowedTelemetry] = None,
        sampler: Optional[RequestTraceSampler] = None,
    ):
        if config.n_servers < 1:
            raise ValueError(f"n_servers must be >= 1, got {config.n_servers}")
        self.repo = repo
        self.loop = loop
        self.config = config
        self.registry = registry
        self._draws = _exponential_draws(service_rng, _DRAW_BLOCK)
        self._jitter = config.service_jitter
        self._obs = obs if obs is not None else NULL_OBS
        self._telemetry = telemetry
        self._sampler = sampler
        self.cache = ReadCache(config.cache_ttl, config.cache_capacity)
        self.queue = BoundedQueue(config.queue_limit)
        self._buckets: Dict[Endpoint, TokenBucket] = {
            endpoint: TokenBucket(rate, burst)
            for endpoint, (rate, burst) in config.rate_limits.items()
        }
        self._busy = 0
        self.responses = ResponseLog()
        self._horizon: Optional[float] = None
        self._dispatch = {
            Endpoint.SUBMIT_TX: repo.submit_tx,
            Endpoint.FILE_REPORT: repo.file_report,
            Endpoint.CAST_VOTE: repo.cast_vote,
            Endpoint.INGEST_FRAME: repo.ingest_frame,
            Endpoint.GET_BALANCE: repo.get_balance,
            Endpoint.GET_TALLY: repo.get_tally,
        }
        self._routes: Dict[Endpoint, _Route] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, horizon: float) -> None:
        """Open the first governance window and schedule platform ticks.

        Periodic ticks self-reschedule until ``horizon +
        drain_window``, so in-flight requests admitted near the horizon
        still see blocks produced and reviews drained, after which the
        loop's heap empties and the run ends.
        """
        self._horizon = horizon + self.config.drain_window
        self.repo.roll_proposal(self.loop.now, self.config.vote_window)
        self._schedule_tick(self.config.block_interval, self._block_tick)
        self._schedule_tick(self.config.vote_window, self._vote_tick)
        self._schedule_tick(self.config.review_interval, self._review_tick)

    def _schedule_tick(self, at: float, tick) -> None:
        if self._horizon is not None and at <= self._horizon:
            self.loop.schedule(at, tick, priority=PRIORITY_PLATFORM)

    def _block_tick(self) -> None:
        now = self.loop.now
        with self._obs.span("serving", "tick.blocks", time=now) as span:
            produced = self.repo.produce_blocks(now, self.config.block_size)
            span.set_attribute("blocks", produced)
        if produced:
            self.registry.counter("serving.blocks_produced").inc(produced)
        self._schedule_tick(now + self.config.block_interval, self._block_tick)

    def _vote_tick(self) -> None:
        now = self.loop.now
        with self._obs.span("serving", "tick.proposal", time=now):
            self.repo.roll_proposal(now, self.config.vote_window)
        self.registry.counter("serving.proposal_windows").inc()
        self._schedule_tick(now + self.config.vote_window, self._vote_tick)

    def _review_tick(self) -> None:
        now = self.loop.now
        with self._obs.span("serving", "tick.review", time=now) as span:
            reviewed = self.repo.run_review(now)
            span.set_attribute("reviewed", reviewed)
        if reviewed:
            self.registry.counter("serving.cases_reviewed").inc(reviewed)
        self._schedule_tick(now + self.config.review_interval, self._review_tick)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(
        self, request: Request, ctx: Optional[RequestContext] = None
    ) -> None:
        """Arrival entry point; called as a loop event at arrival time.

        ``ctx`` is the request's trace context (None when request-scoped
        tracing is off — the dark path stays exactly as cheap as before).
        Every terminal outcome hands the sampler a stage decomposition
        ``(name, start, end)`` that covers the response's full latency,
        which is what makes the critical-path attribution ≥ 95% by
        construction.
        """
        now = self.loop.now
        endpoint = request.endpoint
        route = self._routes.get(endpoint)
        if route is None:
            route = self._routes[endpoint] = _Route(self, endpoint)
        route.offered.inc()
        if ctx is not None:
            ctx.arrived = now

        # Stage 1: validation — malformed requests never go further.
        error = request.validate()
        if error is not None:
            completed = now + self.config.validation_cost
            self._respond(
                route, Status.INVALID, now, completed, False,
                {"error": error}, ctx,
                (("validation", now, completed),) if ctx is not None else (),
            )
            return

        # Stage 2: TTL+version read cache.
        key = request.cache_key() if route.surface is not None else None
        if key is not None:
            body = self.cache.lookup(
                key, now, self.repo.version(route.surface)
            )
            if body is not None:
                self.registry.counter("serving.cache.hit").inc()
                completed = now + self.config.cache_hit_cost
                self._respond(
                    route, Status.OK, now, completed, True, body, ctx,
                    (("cache", now, completed),) if ctx is not None else (),
                )
                return
            self.registry.counter("serving.cache.miss").inc()

        # Stage 3: admission — token bucket, then bounded queue.
        if not route.bucket.try_take(now):
            self.registry.counter("serving.shed.rate_limit").inc()
            self._respond(
                route, Status.SHED, now, now, False,
                {"error": "rate limit"}, ctx,
                (("admission", now, now),) if ctx is not None else (),
            )
            return
        if self._busy < self.config.n_servers:
            self._start_service(route, request, now, ctx)
        elif self.queue.offer((route, request, now, ctx)):
            depth = len(self.queue)
            self.registry.gauge("serving.queue.depth").set(float(depth))
            self.registry.histogram("serving.queue.depth_at_enqueue").observe(
                float(depth)
            )
            if self._telemetry is not None:
                self._telemetry.observe_queue_depth(now, float(depth))
        else:
            self.registry.counter("serving.shed.queue_full").inc()
            self._respond(
                route, Status.SHED, now, now, False,
                {"error": "queue full"}, ctx,
                (("admission", now, now),) if ctx is not None else (),
            )

    def _start_service(
        self,
        route: _Route,
        request: Request,
        arrived: float,
        ctx: Optional[RequestContext],
    ) -> None:
        now = self.loop.now
        self._busy += 1
        service_time = route.service_time * (
            0.75 + self._jitter * next(self._draws)
        )
        queue_wait = route.queue_wait
        if queue_wait is None:
            queue_wait = route.queue_wait = self.registry.histogram(
                f"serving.queue_wait_ms.{route.name}"
            )
        queue_wait.observe((now - arrived) * 1e3)
        if ctx is not None:
            ctx.service_start = now
        self.loop.schedule(
            now + service_time,
            partial(self._complete, route, request, arrived, ctx),
            PRIORITY_COMPLETION,
        )

    def _complete(
        self,
        route: _Route,
        request: Request,
        arrived: float,
        ctx: Optional[RequestContext],
    ) -> None:
        now = self.loop.now
        dispatch = route.dispatch
        if ctx is None or not self._obs.enabled:
            try:
                status, body = dispatch(request, now)
            except Exception as exc:  # a healthy run serves zero of these
                status, body = Status.ERROR, {"error": repr(exc)}
        elif ctx.sampled:
            # Head-sampled request: wrap the substrate dispatch in a
            # live span with forced ids, so the substrate's own spans
            # become children of this request's tree.
            ctx.substrate_traced = True
            span = self._obs.tracer.span_in_trace(
                REQUEST_SOURCE,
                f"{STAGE_PREFIX}substrate",
                trace_id=ctx.trace_id,
                span_id=request_span_id(ctx.trace_id, "stage:substrate"),
                parent_id=request_span_id(ctx.trace_id, "root"),
                time=ctx.service_start,
            )
            with span:
                try:
                    status, body = dispatch(request, now)
                except Exception as exc:
                    status, body = Status.ERROR, {"error": repr(exc)}
                    span.set_status("error")
        else:
            # Sampled-out request: sampling gates the tracing *cost*,
            # not just the export — substrate span emission is muted
            # for this dispatch (metrics stay live).  The suppression
            # flag is toggled inline (a context manager's enter/exit
            # would cost two extra method calls per request).
            obs = self._obs
            obs._suppressed += 1
            try:
                status, body = dispatch(request, now)
            except Exception as exc:
                status, body = Status.ERROR, {"error": repr(exc)}
            finally:
                obs._suppressed -= 1
        if status == Status.OK and route.surface is not None:
            key = request.cache_key()
            if key is not None:
                self.cache.store(
                    key, body, now, self.repo.version(route.surface)
                )
        # stages=None is the served-path marker: the sampler derives the
        # standard admission/queue/substrate decomposition lazily, only
        # for traces it actually keeps.
        self._respond(
            route, status, arrived, now, False, body, ctx,
            None if ctx is not None else (),
        )
        self._busy -= 1
        if len(self.queue) > 0:
            queued = self.queue.take()
            depth = len(self.queue)
            self.registry.gauge("serving.queue.depth").set(float(depth))
            if self._telemetry is not None:
                self._telemetry.observe_queue_depth(now, float(depth))
            self._start_service(*queued)

    def _respond(
        self,
        route: _Route,
        status: Status,
        arrived: float,
        completed: float,
        cached: bool,
        body: Optional[Dict],
        ctx: Optional[RequestContext],
        stages: Optional[Tuple[Tuple[str, float, float], ...]],
    ) -> None:
        name = route.name
        status_code = int(status)
        self.responses.append(
            route.endpoint, status_code, arrived, completed, cached,
            body if body is not None else {},
        )
        counter = route.statuses.get(status_code)
        if counter is None:
            counter = route.statuses[status_code] = self.registry.counter(
                f"serving.status.{name}.{status_code}"
            )
        counter.inc()
        if status != Status.SHED:
            latency_ms = (completed - arrived) * 1e3
            if route.latency is None:
                route.latency = self.registry.histogram(
                    f"serving.latency_ms.{name}"
                )
                route.latency_all = self.registry.histogram(
                    "serving.latency_ms.all"
                )
            route.latency.observe(latency_ms)
            route.latency_all.observe(latency_ms)
        if self._telemetry is not None:
            self._telemetry.record_response(
                name, status_code, arrived, completed, cached
            )
        if self._sampler is not None and ctx is not None:
            self._sampler.on_response(
                ctx, name, status_code, arrived, completed, stages, cached,
            )
        if ctx is None or ctx.sampled:
            # With sampling active, per-request trace events follow the
            # head decision — sampled-out requests leave no trace rows.
            self._obs.event(
                "serving",
                "request.served",
                time=completed,
                endpoint=name,
                status=status_code,
                cached=cached,
                arrived=arrived,
            )
