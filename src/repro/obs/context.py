"""Request-scoped trace propagation and deterministic sampling.

The serving tier answers the paper's per-decision accountability bar
(§IV-C) at request granularity: every arrival carries a
:class:`RequestContext` whose ``trace_id`` is a **pure function of
(seed, user, arrival seq)** — the traffic generator derives it, the
gateway threads it through the middleware chain and the event loop's
queue/service phases, and the sampled requests are exported as span
trees that :func:`repro.obs.exporters.span_forest` reconstructs into a
per-request critical path (queue wait vs cache vs admission vs
substrate time).

Sampling is split the way production tracers split it:

* **Head sampling** — :func:`head_sampled` hashes nothing at decision
  time: the trace id *is* the hash, so the decision is a pure function
  of the trace id (and therefore identical across reruns, worker
  counts, and even independent consumers of the exported ids).
* **Tail-based keep rules** — shed (429) and error (500) responses are
  always kept, and the top-``k`` highest-latency requests of the run
  are kept regardless of the head decision (a bounded min-heap; emitted
  deterministically at :meth:`RequestTraceSampler.finalize`).

Span ids inside a request tree are pure functions of the trace id
(``sha256(trace_id : part)``), so two runs of one seed export
byte-identical request forests.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import check_count
from repro.obs.spans import SPAN_KIND
from repro.sim.tracing import TraceLog

__all__ = [
    "RequestContext",
    "SamplingPolicy",
    "RequestTraceSampler",
    "derive_trace_id",
    "derive_trace_ids",
    "request_span_id",
    "head_sampled",
    "REQUEST_SOURCE",
    "REQUEST_ROOT_NAME",
    "STAGE_PREFIX",
]

#: Source tag on every request-scoped span record.
REQUEST_SOURCE = "serving.request"
#: Root span name of a request tree (the critical-path reports key on it).
REQUEST_ROOT_NAME = "request"
#: Stage spans are named ``stage.<name>`` under the request root.
STAGE_PREFIX = "stage."

#: Hex digits kept from the sha256 — matches the tracer's span-id width.
_ID_HEX = 16
#: Hex digits folded into the head-sampling bucket (52 bits: exact as a
#: float, so the decision threshold is platform-independent).
_HEAD_HEX = 13


def derive_trace_id(*parts: Any) -> str:
    """A 16-hex trace id from any tuple of primitive parts.

    Pure function of its inputs — the serving tier uses
    ``(seed, user, seq)``, the parallel workers ``(seed, shard, epoch)``
    — so the id survives reruns, resharding, and worker merges.
    """
    text = "trace:" + ":".join(repr(part) for part in parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:_ID_HEX]


def derive_trace_ids(seed: Any, user: Any, count: int) -> List[str]:
    """``[derive_trace_id(seed, user, seq) for seq in range(count)]``.

    The serving tier's ids for one user's arrivals, hashed from a
    per-user text prefix instead of re-joining every part per id.
    """
    prefix = f"trace:{seed!r}:{user!r}:"
    sha256 = hashlib.sha256
    return [
        sha256((prefix + repr(seq)).encode("utf-8")).hexdigest()[:_ID_HEX]
        for seq in range(count)
    ]


def request_span_id(trace_id: str, part: str) -> str:
    """The deterministic span id for one named part of a request tree."""
    digest = hashlib.sha256(f"{trace_id}:{part}".encode("utf-8")).hexdigest()
    return digest[:_ID_HEX]


def head_sampled(trace_id: str, rate: float) -> bool:
    """The head-sampling decision: a pure function of the trace id.

    The first 52 bits of the id are mapped to ``[0, 1)``; ids below
    ``rate`` are sampled.  No RNG stream is consumed, so sampling can
    never perturb any other seeded draw.
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    bucket = int(trace_id[:_HEAD_HEX], 16) / float(16 ** _HEAD_HEX)
    return bucket < rate


@dataclass
class RequestContext:
    """Per-request causal identity, threaded arrival → response.

    Mutable on purpose: the gateway stamps the phase boundaries
    (``service_start``) as the request crosses them, and the sampler
    reads them back when it assembles the stage spans.
    """

    __slots__ = (
        "trace_id",
        "user",
        "seq",
        "sampled",
        "arrived",
        "service_start",
        "substrate_traced",
    )

    trace_id: str
    user: int
    seq: int
    sampled: bool
    arrived: float
    service_start: float
    substrate_traced: bool

    @classmethod
    def for_request(
        cls, seed: int, user: int, seq: int, head_rate: float
    ) -> "RequestContext":
        trace_id = derive_trace_id(seed, user, seq)
        return cls(
            trace_id=trace_id,
            user=user,
            seq=seq,
            sampled=head_sampled(trace_id, head_rate),
            arrived=0.0,
            service_start=0.0,
            substrate_traced=False,
        )


@dataclass(frozen=True)
class SamplingPolicy:
    """How the serving tier decides which request traces to keep.

    ``head_rate`` drives the pure-function head decision (default 1%,
    the production-style rate the observability-overhead gate in
    ``benchmarks/regression.py`` budgets for); ``keep_statuses`` are
    the tail rules that always keep a trace (429/500 by default —
    exactly the responses an operator pages on); ``top_k_latency``, an
    integer (not a ``bool``) of at least 0, keeps the slowest ``k``
    requests of the run even when neither rule hit.
    """

    head_rate: float = 0.01
    keep_statuses: Tuple[int, ...] = (429, 500)
    top_k_latency: int = 25

    def __post_init__(self) -> None:
        if not 0.0 <= self.head_rate <= 1.0:
            raise ValueError(
                f"head_rate must be in [0, 1], got {self.head_rate}"
            )
        check_count("top_k_latency", self.top_k_latency)


# One buffered tail candidate: orderable by (latency, trace_id) so heap
# ties never compare payload dicts.
_TailEntry = Tuple[float, str, Tuple]


class RequestTraceSampler:
    """Emits sampled request trees into a :class:`TraceLog`.

    Head-kept and status-kept traces are emitted at response time (the
    deterministic completion order of the virtual clock); top-latency
    tail keeps are buffered in a bounded min-heap and emitted at
    :meth:`finalize` in ``(-latency, trace_id)`` order — byte-identical
    across reruns.
    """

    def __init__(
        self, trace: TraceLog, policy: Optional[SamplingPolicy] = None
    ):
        self.trace = trace
        self.policy = policy if policy is not None else SamplingPolicy()
        self._keep_statuses = frozenset(self.policy.keep_statuses)
        # Read once per response — skip the frozen-dataclass attribute
        # walk on the hot drop path.
        self._top_k = self.policy.top_k_latency
        self._tail_heap: List[_TailEntry] = []
        self._tail_floor = self._empty_floor()
        self._emitted_ids: set = set()
        self.kept_head = 0
        self.kept_status = 0
        self.kept_tail = 0
        self.seen = 0

    # ------------------------------------------------------------------
    # Per-response hook (called by the gateway)
    # ------------------------------------------------------------------
    def context(self, seed: int, user: int, seq: int) -> RequestContext:
        """A request context carrying this policy's head decision."""
        return RequestContext.for_request(
            seed, user, seq, self.policy.head_rate
        )

    def on_response(
        self,
        ctx: RequestContext,
        endpoint: str,
        status: int,
        arrived: float,
        completed: float,
        stages: Optional[Tuple[Tuple[str, float, float], ...]],
        cached: bool = False,
    ) -> None:
        """Decide keep/drop for one finished request.

        ``stages`` is the gateway's critical-path decomposition:
        ``(name, start, end)`` triples covering the request's latency —
        or ``None``, the served-path marker, in which case the standard
        admission/queue/substrate decomposition is derived from the
        context at emit time (and only for kept traces, keeping the
        per-response drop path allocation-free).
        """
        self.seen += 1
        if ctx.sampled:
            self.kept_head += 1
            self._emit_tree(
                ctx, endpoint, status, arrived, completed, stages, cached,
                kept_by="head",
            )
            return
        if status in self._keep_statuses:
            self.kept_status += 1
            self._emit_tree(
                ctx, endpoint, status, arrived, completed, stages, cached,
                kept_by="status",
            )
            return
        latency = completed - arrived
        if latency < self._tail_floor:
            # Fast drop: almost every response loses to the current
            # top-k floor — one compare, no payload tuple.
            return
        heap = self._tail_heap
        entry = (
            latency,
            ctx.trace_id,
            (ctx, endpoint, status, arrived, completed, stages, cached),
        )
        if len(heap) >= self._top_k:
            floor = heap[0]
            if latency == floor[0] and ctx.trace_id <= floor[1]:
                return
            heapq.heapreplace(heap, entry)
        else:
            heapq.heappush(heap, entry)
        if len(heap) >= self._top_k:
            self._tail_floor = heap[0][0]

    def _empty_floor(self) -> float:
        """The tail floor of an empty heap: no response enters it when
        ``top_k`` is 0, every response does until it fills."""
        return -math.inf if self._top_k > 0 else math.inf

    def finalize(self) -> int:
        """Emit the buffered top-latency traces; returns how many.

        Ordered by descending latency (trace id breaks exact ties), so
        the emission order — and therefore the exported bytes — is a
        deterministic function of the run.
        """
        ordered = sorted(
            self._tail_heap, key=lambda e: (-e[0], e[1])
        )
        self._tail_heap = []
        self._tail_floor = self._empty_floor()
        for _latency, _tid, payload in ordered:
            self.kept_tail += 1
            self._emit_tree(*payload, kept_by="tail_latency")
        return self.kept_tail

    @property
    def kept(self) -> int:
        return self.kept_head + self.kept_status + self.kept_tail

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _emit_tree(
        self,
        ctx: RequestContext,
        endpoint: str,
        status: int,
        arrived: float,
        completed: float,
        stages: Optional[Tuple[Tuple[str, float, float], ...]],
        cached: bool,
        kept_by: str,
    ) -> None:
        """One request root plus its stage children, ids pure functions
        of the trace id."""
        if stages is None:  # the served-path decomposition, derived late
            service_start = ctx.service_start
            stages = (
                ("admission", arrived, arrived),
                ("queue", arrived, service_start),
                ("substrate", service_start, completed),
            )
        trace_id = ctx.trace_id
        if trace_id in self._emitted_ids:  # defensive: never double-emit
            return
        self._emitted_ids.add(trace_id)
        root_id = request_span_id(trace_id, "root")
        self.trace.emit(
            arrived,
            REQUEST_SOURCE,
            SPAN_KIND,
            span_id=root_id,
            parent_id=None,
            trace_id=trace_id,
            name=REQUEST_ROOT_NAME,
            start=arrived,
            end=completed,
            status="error" if status >= 500 else "ok",
            attributes={
                "endpoint": endpoint,
                "http_status": int(status),
                "cached": bool(cached),
                "user": ctx.user,
                "seq": ctx.seq,
                "latency_ms": (completed - arrived) * 1e3,
                "kept_by": kept_by,
            },
        )
        for name, start, end in stages:
            if name == "substrate" and ctx.substrate_traced:
                # The live wrapper span already carries this stage (and
                # parents the substrate's own spans under it).
                continue
            self.trace.emit(
                start,
                REQUEST_SOURCE,
                SPAN_KIND,
                span_id=request_span_id(trace_id, f"stage:{name}"),
                parent_id=root_id,
                trace_id=trace_id,
                name=f"{STAGE_PREFIX}{name}",
                start=start,
                end=max(end, start),
                status="ok",
                attributes={},
            )
