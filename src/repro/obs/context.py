"""Request-scoped trace propagation and deterministic sampling.

The serving tier answers the paper's per-decision accountability bar
(§IV-C) at request granularity: every arrival carries a
:class:`RequestContext` whose ``trace_id`` is a **pure function of
(seed, user, arrival seq)** — the traffic generator derives it, the
gateway threads it through the middleware chain and the event loop's
queue/service phases and keeps it in its response log, and the sampled
requests are exported as span trees that
:func:`repro.obs.exporters.span_forest` reconstructs into a per-request
critical path (queue wait vs cache vs admission vs substrate time).

Sampling is split the way production tracers split it:

* **Head sampling** — :func:`head_sampled` hashes nothing at decision
  time: the trace id *is* the hash, so the decision is a pure function
  of the trace id (and therefore identical across reruns, worker
  counts, and even independent consumers of the exported ids).
* **Tail-based keep rules** — shed (429) and error (500) responses are
  always kept, and the top-``k`` highest-latency requests of the run
  are kept regardless of the head decision.  Both are folded from the
  serving tier's response log after the run
  (:meth:`RequestTraceSampler.finalize`): status keeps in log order,
  then tail keeps by descending latency — byte-identical across reruns.

Span ids inside a request tree are pure functions of the trace id
(``sha256(trace_id : part)``), so two runs of one seed export
byte-identical request forests.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

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
#: Root span name of a request tree (``request_breakdowns`` keys on it).
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
    """Per-request causal identity, threaded arrival → response and
    kept with the request's row in the gateway's response log, which
    holds its arrival and completion times.

    Mutable on purpose: ``service_start`` is NaN until the gateway
    starts serving the request and stamps it, so a context whose
    ``service_start`` is set belongs to a served request; the sampler
    reads it back when it assembles the stage spans.
    """

    __slots__ = (
        "trace_id",
        "user",
        "seq",
        "sampled",
        "service_start",
        "substrate_traced",
    )

    trace_id: str
    user: int
    seq: int
    sampled: bool
    service_start: float
    substrate_traced: bool


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


class RequestTraceSampler:
    """Emits sampled request trees into a :class:`TraceLog`.

    Head-kept traces are emitted at response time, through
    :meth:`on_response`, so that their live substrate spans and the
    request tree share the run's trace order.  Status and tail keeps
    are folded from the response log's columns by :meth:`finalize`.
    """

    def __init__(
        self, trace: TraceLog, policy: Optional[SamplingPolicy] = None
    ):
        self.trace = trace
        self.policy = policy if policy is not None else SamplingPolicy()
        self._emitted_ids: set = set()
        self.kept_head = 0
        self.kept_status = 0
        self.kept_tail = 0
        self.seen = 0

    def on_response(
        self,
        ctx: RequestContext,
        endpoint: str,
        status: int,
        arrived: float,
        completed: float,
        cached: bool = False,
    ) -> None:
        """Emit one head-sampled request's tree; the gateway calls this
        only for contexts whose head decision kept them."""
        self.kept_head += 1
        self._emit_tree(
            ctx, endpoint, status, arrived, completed, cached, kept_by="head"
        )

    def finalize(
        self,
        contexts: Sequence[Optional[RequestContext]],
        endpoints: Sequence[str],
        statuses: Sequence[int],
        arrived: Sequence[float],
        completed: Sequence[float],
        cached: Sequence[bool],
    ) -> int:
        """Fold the status and tail keeps over a run's response columns,
        in log order; call once, after the run.  Returns how many
        traces it emitted.

        Rows without a context are not seen, and head-sampled rows were
        emitted by :meth:`on_response`.  Of the rest, a row whose status
        is in ``keep_statuses`` is emitted at once, in log order; the
        others compete for the ``top_k_latency`` slowest by ``(latency,
        trace_id)``, emitted after all status keeps by descending
        latency (trace id breaks exact ties) — a deterministic function
        of the run.
        """
        before = self.kept_status + self.kept_tail
        # Per row: 0 without a context, 1 head-sampled, 2 open to the
        # status and tail rules.
        kind = np.fromiter(
            (0 if ctx is None else 1 if ctx.sampled else 2 for ctx in contexts),
            np.int8, len(contexts),
        )
        self.seen += int(np.count_nonzero(kind))
        open_rows = kind == 2
        status_kept = np.isin(np.asarray(statuses), self.policy.keep_statuses)
        for row in np.flatnonzero(open_rows & status_kept).tolist():
            self.kept_status += 1
            self._emit_tree(
                contexts[row], endpoints[row], statuses[row], arrived[row],
                completed[row], cached[row], kept_by="status",
            )
        top_k = self.policy.top_k_latency
        rows = np.flatnonzero(open_rows & ~status_kept)
        if top_k and len(rows):
            latency = (
                np.asarray(completed, dtype=np.float64)[rows]
                - np.asarray(arrived, dtype=np.float64)[rows]
            )
            if len(rows) > top_k:
                # Only rows at or above the k-th largest latency compete
                # (ties at that floor included).
                competing = latency >= np.partition(latency, -top_k)[-top_k]
                rows, latency = rows[competing], latency[competing]
            slowest = heapq.nlargest(
                top_k,
                zip(latency.tolist(), rows.tolist()),
                key=lambda entry: (entry[0], contexts[entry[1]].trace_id),
            )
            slowest.sort(
                key=lambda entry: (-entry[0], contexts[entry[1]].trace_id)
            )
            for _latency, row in slowest:
                self.kept_tail += 1
                self._emit_tree(
                    contexts[row], endpoints[row], statuses[row],
                    arrived[row], completed[row], cached[row],
                    kept_by="tail_latency",
                )
        return self.kept_status + self.kept_tail - before

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
        cached: bool,
        kept_by: str,
    ) -> None:
        """One request root plus its stage children, ids pure functions
        of the trace id.

        The stages cover the request's latency: a served request (its
        context's ``service_start`` is set) splits into admission, queue
        and substrate; otherwise the one stage that answered it is the
        cache if cached, admission if shed and validation if neither.
        """
        service_start = ctx.service_start
        if not math.isnan(service_start):
            stages: Tuple[Tuple[str, float, float], ...] = (
                ("admission", arrived, arrived),
                ("queue", arrived, service_start),
                ("substrate", service_start, completed),
            )
        elif cached:
            stages = (("cache", arrived, completed),)
        elif status == 429:
            stages = (("admission", arrived, completed),)
        else:
            stages = (("validation", arrived, completed),)
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
