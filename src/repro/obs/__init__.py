"""``repro.obs``: the unified observability layer.

Causal spans over the trace log (:mod:`repro.obs.spans`), the
instrumentation facade substrates are wired with
(:mod:`repro.obs.instrument`), request-scoped trace propagation and
deterministic sampling (:mod:`repro.obs.context`), windowed telemetry
on the virtual clock (:mod:`repro.obs.timeseries`), declarative SLOs
with burn-rate alerting (:mod:`repro.obs.slo`), and exporters — JSONL
traces, Prometheus-style metrics text, transparency reports and
per-request critical-path breakdowns (:mod:`repro.obs.exporters`).

The paper's §IV-C requires that "all the active parts of the metaverse
(including code) should be transparent and understandable to any
platform member"; this package is how the reproduction meets that: every
substrate emits spans and metrics through one shared pipeline, every
request carries a deterministic trace id, platform guarantees are
machine-checked SLOs, and every export is deterministic for a seeded
run.
"""

from repro.obs.context import (
    REQUEST_ROOT_NAME,
    REQUEST_SOURCE,
    STAGE_PREFIX,
    RequestContext,
    RequestTraceSampler,
    SamplingPolicy,
    derive_trace_id,
    derive_trace_ids,
    head_sampled,
    request_span_id,
)
from repro.obs.exporters import (
    SpanNode,
    escape_label_value,
    export_trace_jsonl,
    hot_handlers_report,
    latency_report,
    load_trace_jsonl,
    prometheus_text,
    request_breakdowns,
    span_forest,
    trace_to_jsonl,
    transparency_report,
)
from repro.obs.imbalance import ShardImbalance
from repro.obs.instrument import NULL_OBS, Instrumentation, NullInstrumentation
from repro.obs.shipcost import ShipCost
from repro.obs.slo import (
    DEFAULT_SLOS,
    AlertEvent,
    SLOEngine,
    SLOReport,
    SLOSpec,
    thresholds_for,
)
from repro.obs.spans import SPAN_KIND, Span, SpanContext, Tracer
from repro.obs.timeseries import WindowedTelemetry

__all__ = [
    "SPAN_KIND",
    "Span",
    "SpanContext",
    "Tracer",
    "ShardImbalance",
    "ShipCost",
    "Instrumentation",
    "NullInstrumentation",
    "NULL_OBS",
    "SpanNode",
    "span_forest",
    "trace_to_jsonl",
    "export_trace_jsonl",
    "load_trace_jsonl",
    "prometheus_text",
    "escape_label_value",
    "transparency_report",
    "latency_report",
    "hot_handlers_report",
    "request_breakdowns",
    "RequestContext",
    "RequestTraceSampler",
    "SamplingPolicy",
    "derive_trace_id",
    "derive_trace_ids",
    "head_sampled",
    "request_span_id",
    "REQUEST_SOURCE",
    "REQUEST_ROOT_NAME",
    "STAGE_PREFIX",
    "WindowedTelemetry",
    "SLOSpec",
    "SLOEngine",
    "SLOReport",
    "AlertEvent",
    "DEFAULT_SLOS",
    "thresholds_for",
]
