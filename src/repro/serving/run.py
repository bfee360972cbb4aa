"""One serving run: traffic in, latency/saturation measurements out.

:func:`run_serving` wires the stack — seeded traffic from
:mod:`repro.workloads.traffic`, the :class:`ServingGateway` middleware
chain, the :class:`ServingRepository` substrates, one
:class:`EventLoop` — runs it to completion on the virtual clock, and
returns a :class:`ServingRunResult` whose numbers are all simulated-time
measurements: same seed, same bytes, on any host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Iterable, Optional, Sequence

import numpy as np

from repro.obs.context import (
    RequestContext,
    RequestTraceSampler,
    SamplingPolicy,
    head_sampled,
)
from repro.obs.exporters import trace_to_jsonl
from repro.obs.instrument import Instrumentation
from repro.obs.slo import SLOEngine, SLOReport, SLOSpec, thresholds_for
from repro.obs.timeseries import WindowedTelemetry
from repro.serving.gateway import ResponseLog, ServingConfig, ServingGateway
from repro.serving.loop import EventLoop, PRIORITY_ARRIVAL
from repro.serving.repository import ServingRepository
from repro.serving.schemas import Endpoint, Status
from repro.sim.heap import FrozenSetup
from repro.sim.metrics import MetricsRegistry
from repro.workloads.traffic import Arrival, TrafficConfig, generate_traffic

__all__ = [
    "ServingRunResult",
    "run_serving",
    "schedule_arrivals",
    "SERVICE_TIME_DOMAIN",
]

#: Spawn-key namespace for the gateway's service-time stream (traffic
#: owns domain 7; see :data:`repro.workloads.traffic.TRAFFIC_DOMAIN`).
SERVICE_TIME_DOMAIN = 8


@dataclass
class ServingRunResult:
    """Everything a seeded serving run measured.

    ``endpoint_stats[endpoint]`` holds offered/status counts plus
    p50/p99 latency in simulated milliseconds; ``status_counts`` is the
    run-wide breakdown keyed by integer status code.  ``metrics`` is the
    full registry payload (the byte-equivalence gates compare its JSON
    dump), ``registry`` the live :class:`MetricsRegistry` behind it (for
    reporting helpers like :func:`repro.obs.latency_report`), and
    ``trace_jsonl`` the JSONL trace export when tracing was requested.

    The observability layer adds, when SLOs are given: ``telemetry``
    (the live rollup in 1 s windows) with its byte-comparable
    ``timeseries_json`` export, and ``slo_report`` (budgets + burn-rate
    alert timeline) with ``alerts_json``; with a sampling policy,
    ``sampling_stats`` (how many request traces each keep rule
    exported).  The registry keeps every latency sample (the
    ``"exact"`` histogram backend).
    """

    seed: int
    horizon: float
    offered: int
    completed: int
    status_counts: Dict[int, int]
    endpoint_stats: Dict[str, Dict[str, float]]
    p50_ms: float
    p99_ms: float
    goodput_rps: float
    shed_rate: float
    cache_hit_rate: float
    blocks_produced: int
    txs_included: int
    cases_reviewed: int
    metrics: Dict[str, Any] = field(repr=False)
    registry: MetricsRegistry = field(repr=False)
    responses: ResponseLog = field(repr=False)
    trace_jsonl: Optional[str] = field(repr=False, default=None)
    telemetry: Optional[WindowedTelemetry] = field(repr=False, default=None)
    timeseries_json: Optional[str] = field(repr=False, default=None)
    slo_report: Optional[SLOReport] = field(repr=False, default=None)
    alerts_json: Optional[str] = field(repr=False, default=None)
    sampling_stats: Optional[Dict[str, int]] = field(repr=False, default=None)


def _percentile(registry: MetricsRegistry, name: str, q: float) -> float:
    histogram = registry.peek_histogram(name)  # absent = no samples
    if histogram is None or histogram.count == 0:
        return 0.0
    return float(histogram.percentile(q))


def schedule_arrivals(
    loop: EventLoop,
    submit: Callable[[Any, Optional[RequestContext]], None],
    arrivals: Iterable[Arrival],
    head_rate: Optional[float] = None,
) -> None:
    """Schedule one ``submit(request, ctx)`` event per arrival.

    ``head_rate=None`` submits without a trace context; otherwise each
    request carries a :class:`RequestContext` whose head decision is
    taken at ``head_rate``.  Events fire in ``(time, priority, seq)``
    order, arrivals in the :data:`PRIORITY_ARRIVAL` band.
    """
    schedule = loop.schedule
    if head_rate is None:
        for arrival in arrivals:
            schedule(
                arrival.time,
                partial(submit, arrival.request, None),
                PRIORITY_ARRIVAL,
            )
        return
    for arrival in arrivals:
        time = arrival.time
        trace_id = arrival.trace_id
        # Positional: trace_id, user, seq, sampled, arrived,
        # service_start, substrate_traced.
        ctx = RequestContext(
            trace_id, arrival.user, arrival.seq,
            head_sampled(trace_id, head_rate), time, time, False,
        )
        schedule(time, partial(submit, arrival.request, ctx), PRIORITY_ARRIVAL)


def run_serving(
    traffic: TrafficConfig,
    serving: Optional[ServingConfig] = None,
    trace: bool = False,
    slos: Optional[Sequence[SLOSpec]] = None,
    sampling: Optional[SamplingPolicy] = None,
) -> ServingRunResult:
    """Run one seeded open-loop scenario against the serving tier.

    The traffic seed also seeds the repository substrates and the
    gateway's service-time stream (distinct spawn-key domains), so one
    ``(TrafficConfig, ServingConfig)`` pair fully determines the run.

    Observability knobs (all off by default — the dark path is the
    PR 6 request path, byte for byte):

    * ``slos`` — declarative :class:`SLOSpec` objectives; implies
      windowed telemetry (1 simulated second per window) and attaches
      an :class:`SLOEngine` evaluation (``slo_report`` /
      ``alerts_json``) to the result.
    * ``sampling`` — a :class:`SamplingPolicy`; implies ``trace`` and
      exports per-request span trees under its head/status/tail rules.

    The result's ``responses`` is the gateway's :class:`ResponseLog`
    (one column per :class:`~repro.serving.schemas.Response` field, rows
    built on read), and ``status_counts`` is counted from its status
    column.

    The cyclic collector is off while the arrival table is built; the
    table is then frozen (``gc.freeze``) until the result, exports
    included, is built.  On return or on an exception the table is
    unfrozen and the caller's collector flag restored.  If the caller
    has frozen objects of its own, nothing is frozen or unfrozen.
    """
    serving = serving if serving is not None else ServingConfig()
    registry = MetricsRegistry()
    loop = EventLoop()
    trace = trace or sampling is not None
    obs: Optional[Instrumentation] = None
    if trace:
        obs = Instrumentation(
            metrics=registry,
            clock=lambda: loop.now,
            run_id=f"serve-{traffic.seed}",
        )
    telemetry: Optional[WindowedTelemetry] = None
    if slos is not None:
        telemetry = WindowedTelemetry(latency_thresholds_ms=thresholds_for(slos))
    sampler: Optional[RequestTraceSampler] = None
    if sampling is not None:
        sampler = RequestTraceSampler(obs.trace, sampling)
    repo = ServingRepository(
        n_users=traffic.n_users, seed=traffic.seed, obs=obs
    )
    service_rng = np.random.default_rng(
        np.random.SeedSequence(
            entropy=traffic.seed, spawn_key=(SERVICE_TIME_DOMAIN,)
        )
    )
    gateway = ServingGateway(
        repo, loop, serving, registry, service_rng, obs=obs,
        telemetry=telemetry, sampler=sampler,
    )

    with FrozenSetup() as setup:
        arrivals = generate_traffic(traffic)
        schedule_arrivals(
            loop,
            gateway.submit,
            arrivals,
            sampling.head_rate if sampling is not None else None,
        )
        gateway.start(horizon=traffic.horizon)
        setup.loaded()
        loop.run()
        if sampler is not None:
            sampler.finalize()  # flush tail keeps before the trace export

        responses = gateway.responses
        status_counts = responses.status_counts()

        counters = registry.counters()
        endpoint_stats: Dict[str, Dict[str, float]] = {}
        for endpoint in Endpoint:
            offered_here = counters.get(f"serving.offered.{endpoint.value}", 0.0)
            if not offered_here:
                continue
            stats: Dict[str, float] = {"offered": offered_here}
            for status in (Status.OK, Status.INVALID, Status.REFUSED, Status.SHED,
                           Status.ERROR):
                stats[status.name.lower()] = counters.get(
                    f"serving.status.{endpoint.value}.{int(status)}", 0.0
                )
            stats["p50_ms"] = _percentile(
                registry, f"serving.latency_ms.{endpoint.value}", 50
            )
            stats["p99_ms"] = _percentile(
                registry, f"serving.latency_ms.{endpoint.value}", 99
            )
            endpoint_stats[endpoint.value] = stats

        ok_count = status_counts.get(int(Status.OK), 0)
        shed_count = status_counts.get(int(Status.SHED), 0)
        offered = len(arrivals)
        cache_hits = gateway.cache.hits
        cache_lookups = cache_hits + gateway.cache.misses

        slo_report: Optional[SLOReport] = None
        if telemetry is not None:
            slo_report = SLOEngine(slos).evaluate(telemetry)
        sampling_stats: Optional[Dict[str, int]] = None
        if sampler is not None:
            sampling_stats = {
                "seen": sampler.seen,
                "kept": sampler.kept,
                "kept_head": sampler.kept_head,
                "kept_status": sampler.kept_status,
                "kept_tail": sampler.kept_tail,
            }

        return ServingRunResult(
            seed=traffic.seed,
            horizon=traffic.horizon,
            offered=offered,
            completed=len(responses),
            status_counts=status_counts,
            endpoint_stats=endpoint_stats,
            p50_ms=_percentile(registry, "serving.latency_ms.all", 50),
            p99_ms=_percentile(registry, "serving.latency_ms.all", 99),
            goodput_rps=ok_count / traffic.horizon,
            shed_rate=(shed_count / offered) if offered else 0.0,
            cache_hit_rate=(cache_hits / cache_lookups) if cache_lookups else 0.0,
            blocks_produced=repo.blocks_produced,
            txs_included=repo.txs_included,
            cases_reviewed=int(counters.get("serving.cases_reviewed", 0.0)),
            metrics=registry.as_dict(),
            registry=registry,
            responses=responses,
            trace_jsonl=trace_to_jsonl(obs.trace) if obs is not None else None,
            telemetry=telemetry,
            timeseries_json=telemetry.to_json() if telemetry is not None else None,
            slo_report=slo_report,
            alerts_json=slo_report.to_json() if slo_report is not None else None,
            sampling_stats=sampling_stats,
        )
