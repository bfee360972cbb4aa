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

The response log is the one record of each served request.  The
queue-wait histogram, the cache and shed counters and the queue-depth
gauge are kept live in the shared
:class:`~repro.sim.metrics.MetricsRegistry`, and the queue depth at each
change is kept as two columns, time and depth; the offered and status
counters and the latency histograms are folded from the log by
:meth:`ServingGateway.fold_metrics` after the loop.  With observability
wired, platform ticks and head-sampled responses also emit trace
events/spans; the sampler's status and tail keeps are folded from the
log too.  Each endpoint's queue-wait histogram, token bucket, repository
method, service time and read surface are resolved once, on the
endpoint's first request, into a route that every later request of the
endpoint reads.
"""

from __future__ import annotations

import collections
import itertools
import math
from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import check_count
from repro.obs.context import (
    REQUEST_SOURCE,
    STAGE_PREFIX,
    RequestContext,
    RequestTraceSampler,
    request_span_id,
)
from repro.obs.instrument import NULL_OBS, Instrumentation
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


#: Each endpoint's name (an enum ``.value`` read costs a descriptor call).
_ENDPOINT_NAMES = {endpoint: endpoint.value for endpoint in Endpoint}

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

    Every field is checked when the config is built, and a bad one
    raises ``ValueError`` naming it: counts are integers (not ``bool``),
    ``n_servers``, ``cache_capacity`` and ``block_size`` at least 1 and
    ``queue_limit`` at least 0; the tick intervals and ``cache_ttl`` are
    finite and positive (a zero interval would reschedule its tick at
    the same instant forever); costs, ``service_jitter`` and
    ``drain_window`` are finite and non-negative; ``rate_limits`` and
    ``service_times`` hold one entry per :class:`Endpoint`, with finite
    positive rates, finite bursts of at least one token and finite
    non-negative service times.
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

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.
        for name, minimum in (
            ("n_servers", 1), ("queue_limit", 0), ("cache_capacity", 1),
            ("block_size", 1),
        ):
            check_count(name, getattr(self, name), minimum)
        for name in ("block_interval", "vote_window", "review_interval",
                     "cache_ttl"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {value}"
                )
        for name in ("cache_hit_cost", "validation_cost", "service_jitter",
                     "drain_window"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(
                    f"{name} must be finite and >= 0, got {value}"
                )
        endpoints = set(Endpoint)
        for name in ("rate_limits", "service_times"):
            keys = set(getattr(self, name))
            if keys != endpoints:
                raise ValueError(
                    f"{name} must have one entry per Endpoint: missing "
                    f"{sorted(e.value for e in endpoints - keys)}, unknown "
                    f"{sorted(map(repr, keys - endpoints))}"
                )
        for endpoint in Endpoint:
            rate, burst = self.rate_limits[endpoint]
            if not (0 < rate < math.inf and 1 <= burst < math.inf):
                raise ValueError(
                    f"rate_limits[{endpoint.value}] needs a finite rate > 0 "
                    f"and a finite burst >= 1, got {(rate, burst)}"
                )
            seconds = self.service_times[endpoint]
            if not 0 <= seconds < math.inf:
                raise ValueError(
                    f"service_times[{endpoint.value}] must be finite and "
                    f">= 0, got {seconds}"
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

    Appending stores seven values and builds no object: the endpoint, the
    integer status code, the arrival and completion times, the cached
    flag, the body and the request's trace context (None when the run
    carries no contexts).  Reading by index (negative too), slice or
    iteration builds :class:`Response` rows equal to the ones a list of
    responses would hold, and :meth:`status_counts` counts the status
    column without building any.  :meth:`columns` and :attr:`contexts`
    hand the columns, in log order, to the folds that run after the loop.
    A log equals another log, or a list or tuple of responses, holding
    the same rows in the same order.
    """

    __slots__ = (
        "_endpoints", "_statuses", "_arrived", "_completed", "_cached",
        "_bodies", "_contexts",
    )

    def __init__(self) -> None:
        self._endpoints: List[Endpoint] = []
        self._statuses = array("H")
        self._arrived = array("d")
        self._completed = array("d")
        self._cached = bytearray()
        self._bodies: List[Dict[str, Any]] = []
        self._contexts: List[Optional[RequestContext]] = []

    def append(
        self,
        endpoint: Endpoint,
        status: int,
        arrived: float,
        completed: float,
        cached: bool,
        body: Dict[str, Any],
        ctx: Optional[RequestContext] = None,
    ) -> None:
        self._endpoints.append(endpoint)
        self._statuses.append(status)
        self._arrived.append(arrived)
        self._completed.append(completed)
        self._cached.append(cached)
        self._bodies.append(body)
        self._contexts.append(ctx)

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

    def columns(self) -> Tuple[List[str], array, array, array, bytearray]:
        """``(endpoint names, status codes, arrival times, completion
        times, cached flags)``, one entry per response in log order.

        These are the arguments of
        :meth:`~repro.obs.timeseries.WindowedTelemetry.record_responses`
        and, after :attr:`contexts`, of
        :meth:`~repro.obs.context.RequestTraceSampler.finalize`.  The
        columns are the log's own; do not mutate them.
        """
        return (
            list(map(_ENDPOINT_NAMES.__getitem__, self._endpoints)),
            self._statuses,
            self._arrived,
            self._completed,
            self._cached,
        )

    @property
    def contexts(self) -> List[Optional[RequestContext]]:
        """Each response's trace context (None without one), in log order."""
        return self._contexts


class _Route:
    """One endpoint's request path, resolved on its first request.

    Every request of the endpoint reads its name, token bucket,
    repository method, base service time and read surface (None for
    writes).  The queue-wait histogram is resolved when a request of the
    endpoint first starts service, so the registry holds the same
    instruments that lookups by name per request would create.
    """

    __slots__ = (
        "endpoint", "name", "bucket", "dispatch", "service_time", "surface",
        "queue_wait",
    )

    def __init__(self, gateway: "ServingGateway", endpoint: Endpoint):
        self.endpoint = endpoint
        self.name = endpoint.value
        self.bucket = gateway._buckets[endpoint]
        self.dispatch = gateway._dispatch[endpoint]
        self.service_time = gateway.config.service_times[endpoint]
        self.surface = _READ_SURFACE.get(endpoint)
        self.queue_wait = None


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
        Metrics sink: queue-wait histograms, queue gauges and the cache
        and shed counters live; the offered and status counters and the
        latency histograms once :meth:`fold_metrics` runs.
    service_rng:
        Seeded generator for service-time draws.  The gateway owns it:
        it draws ``exponential(1.0)`` in blocks of ``_DRAW_BLOCK`` and
        consumes the values in service-start order, which the
        deterministic loop fixes.  Each value equals the one a per-call
        draw would give; the stream itself runs up to a block ahead.
    obs:
        Optional observability; ticks and responses without a context or
        with a head-sampled one emit trace events.
    sampler:
        Optional :class:`RequestTraceSampler`; each head-sampled request
        has its trace exported at response time.  Its status and tail
        keeps are folded from :attr:`responses` after the loop.

    Responses are kept in :attr:`responses`, a :class:`ResponseLog`, and
    the admission queue's depth after each change in the columns
    :attr:`depth_times` and :attr:`depths`.
    """

    def __init__(
        self,
        repo: ServingRepository,
        loop: EventLoop,
        config: ServingConfig,
        registry: MetricsRegistry,
        service_rng: np.random.Generator,
        obs: Optional[Instrumentation] = None,
        sampler: Optional[RequestTraceSampler] = None,
    ):
        self.repo = repo
        self.loop = loop
        self.config = config
        self.registry = registry
        self._draws = _exponential_draws(service_rng, _DRAW_BLOCK)
        self._jitter = config.service_jitter
        self._obs = obs if obs is not None else NULL_OBS
        self._sampler = sampler
        self.cache = ReadCache(config.cache_ttl, config.cache_capacity)
        self.queue = BoundedQueue(config.queue_limit)
        self._buckets: Dict[Endpoint, TokenBucket] = {
            endpoint: TokenBucket(rate, burst)
            for endpoint, (rate, burst) in config.rate_limits.items()
        }
        self._busy = 0
        self.responses = ResponseLog()
        self.depth_times = array("d")
        self.depths = array("d")
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
        Every outcome ends in one :meth:`_respond`, which logs the
        response; the context rides along in the log, and its
        ``service_start`` is set only if the request reached a server.
        """
        now = self.loop.now
        endpoint = request.endpoint
        route = self._routes.get(endpoint)
        if route is None:
            route = self._routes[endpoint] = _Route(self, endpoint)

        # Stage 1: validation — malformed requests never go further.
        error = request.validate()
        if error is not None:
            self._respond(
                route, Status.INVALID, now, now + self.config.validation_cost,
                False, {"error": error}, ctx,
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
                self._respond(
                    route, Status.OK, now, now + self.config.cache_hit_cost,
                    True, body, ctx,
                )
                return
            self.registry.counter("serving.cache.miss").inc()

        # Stage 3: admission — token bucket, then bounded queue.
        if not route.bucket.try_take(now):
            self.registry.counter("serving.shed.rate_limit").inc()
            self._respond(
                route, Status.SHED, now, now, False, {"error": "rate limit"},
                ctx,
            )
            return
        if self._busy < self.config.n_servers:
            self._start_service(route, request, now, ctx)
        elif self.queue.offer((route, request, now, ctx)):
            depth = float(len(self.queue))
            self.registry.gauge("serving.queue.depth").set(depth)
            self.registry.histogram("serving.queue.depth_at_enqueue").observe(
                depth
            )
            self.depth_times.append(now)
            self.depths.append(depth)
        else:
            self.registry.counter("serving.shed.queue_full").inc()
            self._respond(
                route, Status.SHED, now, now, False, {"error": "queue full"},
                ctx,
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
        self._respond(route, status, arrived, now, False, body, ctx)
        self._busy -= 1
        if len(self.queue) > 0:
            queued = self.queue.take()
            depth = float(len(self.queue))
            self.registry.gauge("serving.queue.depth").set(depth)
            self.depth_times.append(now)
            self.depths.append(depth)
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
    ) -> None:
        status_code = int(status)
        self.responses.append(
            route.endpoint, status_code, arrived, completed, cached,
            body if body is not None else {}, ctx,
        )
        if ctx is not None:
            if not ctx.sampled:
                # With sampling active, sampled-out requests leave no
                # trace rows here; the sampler's status and tail keeps
                # are folded from the log after the loop.
                return
            if self._sampler is not None:
                self._sampler.on_response(
                    ctx, route.name, status_code, arrived, completed, cached,
                )
        self._obs.event(
            "serving",
            "request.served",
            time=completed,
            endpoint=route.name,
            status=status_code,
            cached=cached,
            arrived=arrived,
        )

    # ------------------------------------------------------------------
    # Folds over the response log
    # ------------------------------------------------------------------
    def fold_metrics(self) -> None:
        """Fold the response log into the registry; call once, after the
        loop.

        Per endpoint seen, the ``serving.offered.<endpoint>`` counter
        counts its responses (every offered request gets exactly one)
        and ``serving.status.<endpoint>.<code>`` each status code seen.
        The latencies of the non-shed responses, in milliseconds, are
        observed in log order into ``serving.latency_ms.<endpoint>`` and
        ``serving.latency_ms.all`` (the exact histograms' mean is an
        insertion-order sum), and only for endpoints that have one.
        """
        log = self.responses
        counter = self.registry.counter
        for (endpoint, status), count in collections.Counter(
            zip(log._endpoints, log._statuses)
        ).items():
            counter(f"serving.offered.{endpoint.value}").inc(count)
            counter(f"serving.status.{endpoint.value}.{status}").inc(count)
        served = np.asarray(log._statuses) != Status.SHED
        if not served.any():
            return
        # One float per latency, shared by its endpoint's histogram and
        # ``.all`` as when each response observed the same value twice.
        latency_ms = (
            (np.asarray(log._completed) - np.asarray(log._arrived)) * 1e3
        )[served].tolist()
        histogram = self.registry.histogram
        histogram("serving.latency_ms.all").observe_many(latency_ms)
        codes = {endpoint: code for code, endpoint in enumerate(Endpoint)}
        endpoint_codes = np.fromiter(
            map(codes.__getitem__, log._endpoints), np.int8, len(log)
        )[served]
        for endpoint, code in codes.items():
            mine = endpoint_codes == code
            if mine.any():
                histogram(f"serving.latency_ms.{endpoint.value}").observe_many(
                    itertools.compress(latency_ms, mine.tolist())
                )
