"""Trace and metrics exporters: JSONL, Prometheus text, and reports.

Three consumers, three formats:

* **JSONL traces** — one JSON object per trace record, keys sorted, so a
  seeded scenario exports byte-identical bytes on every run (the
  determinism matrix's committed digests rely on this).
  :func:`load_trace_jsonl` round-trips the export and
  :func:`span_forest` rebuilds the causal span trees from it.
* **Prometheus-style text** — :func:`prometheus_text` renders the
  shared :class:`MetricsRegistry` in the exposition format scrapers
  expect (counters as ``_total``, histogram summaries as quantiles).
* **Transparency report** — :func:`transparency_report` produces the
  per-module activity table the paper's §IV-C transparency requirement
  asks for, on the same :class:`~repro.analysis.tables.ResultTable`
  machinery the experiment harness prints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.analysis.tables import ResultTable
from repro.obs.context import REQUEST_ROOT_NAME, REQUEST_SOURCE, STAGE_PREFIX
from repro.obs.spans import SPAN_KIND
from repro.sim.metrics import MetricsRegistry
from repro.sim.tracing import TraceLog, TraceRecord

__all__ = [
    "trace_to_jsonl",
    "export_trace_jsonl",
    "load_trace_jsonl",
    "SpanNode",
    "span_forest",
    "prometheus_text",
    "escape_label_value",
    "transparency_report",
    "latency_report",
    "request_breakdowns",
    "critical_path_report",
    "hot_handlers_report",
]


# ----------------------------------------------------------------------
# JSONL traces
# ----------------------------------------------------------------------
def _record_to_dict(record: TraceRecord) -> Dict[str, Any]:
    return {
        "time": record.time,
        "source": record.source,
        "kind": record.kind,
        "payload": record.payload,
    }


def trace_to_jsonl(trace: Union[TraceLog, Iterable[TraceRecord]]) -> str:
    """Serialise every record as one sorted-key JSON line.

    Payload values must be JSON-serialisable primitives/containers
    (which is what every built-in instrumentation point emits);
    anything else is stringified via ``default=str`` as a last resort.
    """
    lines = [
        json.dumps(_record_to_dict(r), sort_keys=True, default=str)
        for r in trace
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def export_trace_jsonl(
    trace: Union[TraceLog, Iterable[TraceRecord]], path: Union[str, Path]
) -> int:
    """Write the JSONL export to ``path``; returns the record count."""
    text = trace_to_jsonl(trace)
    Path(path).write_text(text)
    return 0 if not text else text.count("\n")


def load_trace_jsonl(
    source: Union[str, Path, Iterable[str]]
) -> List[TraceRecord]:
    """Parse a JSONL export (a path, the text, or lines) back into
    :class:`TraceRecord` objects."""
    if isinstance(source, Path):
        lines: Iterable[str] = source.read_text().splitlines()
    elif isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = source
    records = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        records.append(
            TraceRecord(
                time=float(obj["time"]),
                source=str(obj["source"]),
                kind=str(obj["kind"]),
                payload=dict(obj.get("payload", {})),
            )
        )
    return records


# ----------------------------------------------------------------------
# Span-tree reconstruction
# ----------------------------------------------------------------------
@dataclass
class SpanNode:
    """One reconstructed span with its children and attached events."""

    span_id: str
    parent_id: Optional[str]
    trace_id: str
    source: str
    name: str
    start: float
    end: float
    status: str
    attributes: Dict[str, Any] = field(default_factory=dict)
    children: List["SpanNode"] = field(default_factory=list)
    events: List[TraceRecord] = field(default_factory=list)

    def walk(self) -> Iterable["SpanNode"]:
        """Yield this node and every descendant (pre-order)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def size(self) -> int:
        return sum(1 for _ in self.walk())


def span_forest(
    records: Iterable[TraceRecord],
) -> Tuple[List[SpanNode], List[SpanNode]]:
    """Rebuild causal trees from exported records.

    Returns ``(roots, orphans)``: roots are spans without a parent;
    orphans claim a parent id that is absent from the record set (a
    healthy export has none — the span-integrity tests assert this).
    Children keep emit order, which equals causal completion order.
    Non-span records carrying a ``span_id`` payload key are attached to
    that span's ``events``.
    """
    nodes: Dict[str, SpanNode] = {}
    span_records: List[TraceRecord] = []
    event_records: List[TraceRecord] = []
    for record in records:
        if record.kind == SPAN_KIND and "span_id" in record.payload:
            span_records.append(record)
        elif "span_id" in record.payload:
            event_records.append(record)
    for record in span_records:
        payload = record.payload
        node = SpanNode(
            span_id=str(payload["span_id"]),
            parent_id=payload.get("parent_id"),
            trace_id=str(payload.get("trace_id", payload["span_id"])),
            source=record.source,
            name=str(payload.get("name", "")),
            start=float(payload.get("start", record.time)),
            end=float(payload.get("end", record.time)),
            status=str(payload.get("status", "ok")),
            attributes=dict(payload.get("attributes", {})),
        )
        nodes[node.span_id] = node
    roots: List[SpanNode] = []
    orphans: List[SpanNode] = []
    for record in span_records:  # preserve emit order deterministically
        node = nodes[str(record.payload["span_id"])]
        if node.parent_id is None:
            roots.append(node)
        elif node.parent_id in nodes:
            nodes[node.parent_id].children.append(node)
        else:
            orphans.append(node)
    for record in event_records:
        owner = nodes.get(str(record.payload.get("span_id")))
        if owner is not None:
            owner.events.append(record)
    return roots, orphans


# ----------------------------------------------------------------------
# Prometheus-style text metrics
# ----------------------------------------------------------------------
def _prom_name(name: str, prefix: str) -> str:
    cleaned = "".join(c if c.isalnum() else "_" for c in name)
    return f"{prefix}_{cleaned}" if prefix else cleaned


def escape_label_value(value: Any) -> str:
    """Escape one label value per the Prometheus exposition format.

    Backslash, double quote, and newline are the three characters the
    format requires escaped inside a quoted label value; raw
    interpolation of any of them produces unparseable exposition text.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _render_labels(labels: Optional[Dict[str, Any]]) -> str:
    """``{k="v",...}`` with escaped values, keys sorted; "" when empty."""
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{escape_label_value(value)}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def prometheus_text(
    metrics: MetricsRegistry,
    prefix: str = "repro",
    labels: Optional[Dict[str, Any]] = None,
) -> str:
    """Render the registry in the Prometheus exposition text format.

    Counters gain the conventional ``_total`` suffix; histograms render
    as summaries (count, sum, and p50/p95 quantile gauges).  Output is
    sorted by metric name, so it is deterministic for a seeded run.
    ``labels`` (e.g. ``{"run": "serve-42"}``) are attached to every
    sample with values escaped per the exposition format.
    """
    base = _render_labels(labels)
    lines: List[str] = []
    for name, value in metrics.counters().items():
        prom = _prom_name(name, prefix) + "_total"
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom}{base} {value:g}")
    for name, value in metrics.gauges().items():
        prom = _prom_name(name, prefix)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom}{base} {value:g}")
    for name, summ in metrics.histograms().items():
        prom = _prom_name(name, prefix)
        quant_50 = _render_labels(dict(labels or {}, quantile="0.5"))
        quant_95 = _render_labels(dict(labels or {}, quantile="0.95"))
        lines.append(f"# TYPE {prom} summary")
        lines.append(f'{prom}{quant_50} {summ["p50"]:g}')
        lines.append(f'{prom}{quant_95} {summ["p95"]:g}')
        lines.append(f"{prom}_count{base} {summ['count']:g}")
        lines.append(f"{prom}_sum{base} {summ['mean'] * summ['count']:g}")
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Transparency report
# ----------------------------------------------------------------------
def transparency_report(
    trace: Union[TraceLog, Iterable[TraceRecord]],
    metrics: Optional[MetricsRegistry] = None,
) -> ResultTable:
    """Per-module activity table: the §IV-C "understandable to any
    platform member" view of what every substrate did.

    One row per trace source: record count, distinct kinds, span count,
    error-span count, and the simulated-time window of activity.  When
    ``metrics`` is given, the module's counter total (counters whose
    name starts with ``source.``) is joined in.
    """
    per_source: Dict[str, Dict[str, Any]] = {}
    for record in trace:
        row = per_source.setdefault(
            record.source,
            {
                "records": 0,
                "kinds": set(),
                "spans": 0,
                "errors": 0,
                "first": record.time,
                "last": record.time,
            },
        )
        row["records"] += 1
        row["kinds"].add(record.kind)
        row["first"] = min(row["first"], record.time)
        row["last"] = max(row["last"], record.time)
        if record.kind == SPAN_KIND:
            row["spans"] += 1
            if record.payload.get("status") != "ok":
                row["errors"] += 1

    counter_totals: Dict[str, float] = {}
    if metrics is not None:
        for name, value in metrics.counters().items():
            module = name.split(".", 1)[0]
            counter_totals[module] = counter_totals.get(module, 0.0) + value

    table = ResultTable(
        "transparency report (per-module activity)",
        columns=[
            "module",
            "records",
            "kinds",
            "spans",
            "error_spans",
            "counter_total",
            "first_time",
            "last_time",
        ],
    )
    for source in sorted(per_source):
        row = per_source[source]
        table.add_row(
            module=source,
            records=row["records"],
            kinds=len(row["kinds"]),
            spans=row["spans"],
            error_spans=row["errors"],
            counter_total=counter_totals.get(source.split(".", 1)[0], 0.0),
            first_time=row["first"],
            last_time=row["last"],
        )
    return table


def latency_report(
    metrics: MetricsRegistry, prefix: str = "serving.latency_ms"
) -> ResultTable:
    """Per-endpoint latency table from the serving gateway's histograms.

    Summarises every ``<prefix>.<endpoint>`` histogram in the registry
    (simulated-time milliseconds for the serving tier, so the table is
    deterministic for a seeded run).  Uses :meth:`peek_histogram` —
    reporting never grows the registry it is summarising.
    """
    table = ResultTable(
        f"latency by endpoint ({prefix})",
        columns=["endpoint", "count", "mean_ms", "p50_ms", "p99_ms", "max_ms"],
    )
    dotted = prefix + "."
    for name in sorted(metrics.histograms()):
        if not name.startswith(dotted):
            continue
        histogram = metrics.peek_histogram(name)
        if histogram is None or histogram.count == 0:
            continue
        table.add_row(
            endpoint=name[len(dotted):],
            count=histogram.count,
            mean_ms=histogram.mean,
            p50_ms=histogram.percentile(50.0),
            p99_ms=histogram.percentile(99.0),
            max_ms=histogram.maximum,
        )
    return table


# ----------------------------------------------------------------------
# Per-request critical paths
# ----------------------------------------------------------------------
#: The named stages a request's latency decomposes into (fixed column
#: order for the report table).
REQUEST_STAGES = ("validation", "cache", "admission", "queue", "substrate")


def request_breakdowns(
    records: Union[TraceLog, Iterable[TraceRecord]],
) -> List[Dict[str, Any]]:
    """Stage-by-stage latency attribution for every sampled request.

    Walks the exported span forest, takes each ``request`` root (see
    :mod:`repro.obs.context`), and sums its direct ``stage.*`` children
    into named buckets.  ``coverage`` is attributed-over-total latency —
    the gateway's decompositions cover the full latency by construction,
    so the determinism matrix asserts coverage ≥ 0.95 for every request.
    Results are sorted by ``(start, trace_id)`` — deterministic for a
    seeded run.
    """
    roots, _orphans = span_forest(records)
    out: List[Dict[str, Any]] = []
    for root in roots:
        if root.source != REQUEST_SOURCE or root.name != REQUEST_ROOT_NAME:
            continue
        latency_ms = (root.end - root.start) * 1e3
        stages_ms: Dict[str, float] = {}
        for child in root.children:
            if not child.name.startswith(STAGE_PREFIX):
                continue
            stage = child.name[len(STAGE_PREFIX):]
            stages_ms[stage] = (
                stages_ms.get(stage, 0.0) + (child.end - child.start) * 1e3
            )
        attributed_ms = sum(stages_ms.values())
        out.append({
            "trace_id": root.trace_id,
            "endpoint": root.attributes.get("endpoint", ""),
            "status": int(root.attributes.get("http_status", 0)),
            "kept_by": root.attributes.get("kept_by", ""),
            "cached": bool(root.attributes.get("cached", False)),
            "start": root.start,
            "latency_ms": latency_ms,
            "stages_ms": stages_ms,
            "attributed_ms": attributed_ms,
            "coverage": (
                attributed_ms / latency_ms if latency_ms > 0 else 1.0
            ),
        })
    out.sort(key=lambda row: (row["start"], row["trace_id"]))
    return out


def critical_path_report(
    records: Union[TraceLog, Iterable[TraceRecord]],
    top_n: Optional[int] = None,
) -> ResultTable:
    """Per-request critical-path table from an exported trace.

    One row per sampled request — where its latency went, stage by
    stage.  ``top_n`` keeps only the slowest ``n`` requests (ties broken
    by trace id), which is the operator's "show me the worst offenders"
    view.
    """
    breakdowns = request_breakdowns(records)
    if top_n is not None:
        breakdowns = sorted(
            breakdowns, key=lambda r: (-r["latency_ms"], r["trace_id"])
        )[:top_n]
    table = ResultTable(
        "per-request critical paths (ms)",
        columns=(
            ["trace_id", "endpoint", "status", "kept_by", "latency_ms"]
            + [f"{stage}_ms" for stage in REQUEST_STAGES]
            + ["coverage"]
        ),
    )
    for row in breakdowns:
        cells = {
            "trace_id": row["trace_id"],
            "endpoint": row["endpoint"],
            "status": row["status"],
            "kept_by": row["kept_by"],
            "latency_ms": row["latency_ms"],
            "coverage": row["coverage"],
        }
        for stage in REQUEST_STAGES:
            cells[f"{stage}_ms"] = row["stages_ms"].get(stage, 0.0)
        table.add_row(**cells)
    return table


def hot_handlers_report(simulator, top_n: int = 10) -> ResultTable:
    """Top-N hottest event handlers from a profiling-enabled simulator.

    Wall-clock measurements — useful for finding hot paths, excluded
    from deterministic exports by construction (they never enter the
    trace log or the shared metrics registry).
    """
    table = ResultTable(
        f"hottest handlers (top {top_n}, wall time)",
        columns=["handler", "calls", "total_ms", "mean_us", "p95_us", "max_us"],
    )
    for entry in simulator.hottest_handlers(top_n):
        table.add_row(
            handler=entry["name"],
            calls=entry["count"],
            total_ms=entry["total_seconds"] * 1e3,
            mean_us=entry["mean_seconds"] * 1e6,
            p95_us=entry["p95_seconds"] * 1e6,
            max_us=entry["max_seconds"] * 1e6,
        )
    return table
