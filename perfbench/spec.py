"""The benchmark's workloads and one measured repetition of each.

A repetition is one call into the program -- ``run_load`` for the society
workloads, ``run_serving`` for serving-flash -- timed from outside through
the wrappers in :mod:`layers`.  :func:`run_rep` returns everything the
repetition measured and checked as a JSON-ready dict; ``rep.py`` runs it in
a fresh interpreter and ``run.py`` aggregates the repetitions of a run.

The seed reaches the program only as ``run_load(seed=)`` or
``TrafficConfig(seed=)``.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import resource
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Tuple

from layers import LayerTrace, Patches, mark_entries

# Layer entry points wrapped in traced runs: (where the caller looks the
# name up, per-layer metric that takes its self time).  One table serves
# every workload; a name a workload never calls reads 0.
SPANS: Tuple[Tuple[str, str], ...] = (
    ("repro.workloads.load:agent_addresses", "workloads.addresses_s"),
    ("repro.workloads.load:AgentTable", "world.agent_table_s"),
    ("repro.workloads.load:warm_caches", "parallel.warm_caches_s"),
    ("repro.parallel.pool:SerialPool.map_ordered", "parallel.execute_s"),
    ("repro.ledger.mempool:Mempool.submit", "ledger.submit_s"),
    ("repro.ledger.chain:Blockchain.propose_block", "ledger.propose_block_s"),
    (
        "repro.reputation.system:ReputationSystem.register_identities",
        "reputation.register_s",
    ),
    ("repro.reputation.system:ReputationSystem.record", "reputation.record_s"),
    (
        "repro.reputation.system:ReputationSystem.global_trust_top",
        "reputation.trust_solve_s",
    ),
    ("repro.privacy.pipeline:PrivacyPipeline.ingest_all", "privacy.ingest_s"),
    ("repro.privacy.pipeline:PrivacyPipeline.ingest", "privacy.ingest_s"),
    ("repro.dao.dao:DAO.cast_ballot", "dao.cast_ballot_s"),
    (
        "repro.governance.moderation:ModerationService.process_prepared",
        "governance.moderation_s",
    ),
    (
        "repro.governance.moderation:ModerationService.file_report",
        "governance.moderation_s",
    ),
    (
        "repro.governance.moderation:ModerationService.run_review",
        "governance.moderation_s",
    ),
    ("repro.serving.run:generate_traffic", "workloads.traffic.generate_s"),
    (
        "repro.serving.gateway:ServingGateway.submit",
        "serving.gateway.submit_s",
    ),
    *(
        (f"repro.serving.repository:ServingRepository.{name}", metric)
        for names, metric in (
            (
                ("submit_tx", "file_report", "cast_vote", "ingest_frame"),
                "serving.repository.write_s",
            ),
            (("get_balance", "get_tally"), "serving.repository.read_s"),
            (
                ("produce_blocks", "roll_proposal", "run_review"),
                "serving.repository.tick_s",
            ),
        )
        for name in names
    ),
    ("repro.serving.loop:EventLoop.run", "serving.loop.self_s"),
    ("repro.obs.context:RequestTraceSampler.on_response", "obs.sampler_s"),
    ("repro.obs.context:RequestTraceSampler.finalize", "obs.sampler_s"),
    (
        "repro.obs.timeseries:WindowedTelemetry.record_response",
        "obs.telemetry_s",
    ),
    (
        "repro.obs.timeseries:WindowedTelemetry.observe_queue_depth",
        "obs.telemetry_s",
    ),
    ("repro.obs.slo:SLOEngine.evaluate", "obs.slo_evaluate_s"),
    ("repro.serving.run:trace_to_jsonl", "obs.export_s"),
    ("repro.obs.timeseries:WindowedTelemetry.to_json", "obs.export_s"),
    ("repro.obs.slo:SLOReport.to_json", "obs.export_s"),
)

# Return values tallied in traced runs: (entry point, count, measure).
TALLIES = (
    ("repro.serving.loop:EventLoop.run", "serving.loop.events", int),
    (
        "repro.serving.run:generate_traffic",
        "workloads.traffic.arrivals",
        len,
    ),
    (
        "repro.serving.run:trace_to_jsonl",
        "obs.trace_bytes",
        lambda text: len(text.encode()),
    ),
    (
        "repro.ledger.chain:Blockchain.propose_block",
        "ledger.blocks",
        lambda block: 1 if block.transactions else 0,
    ),
)


def metrics_digest(metrics: Dict[str, Any]) -> str:
    """sha256 of the run's deterministic ``metrics`` payload."""
    payload = json.dumps(metrics, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def segments_of(
    marks: List[Tuple[int, float]], end: float
) -> Tuple[float, List[float], List[int]]:
    """Split the time from set-up's end to ``end`` at every mark after it.

    Set-up ends at the first mark labelled 0, or at ``end`` if there is
    none.  Returns that time, each segment's duration and the label of
    the mark that opens the segment.
    """
    first = next(
        (i for i, (label, _) in enumerate(marks) if label == 0), len(marks)
    )
    timed = marks[first:]
    times = [t for _, t in timed] + [end]
    return (
        times[0],
        [b - a for a, b in zip(times, times[1:])],
        [label for label, _ in timed],
    )


def steps_of(
    segments: List[float],
    labels: List[int],
    step_label: int,
    last_step_ends_at_return: bool,
) -> List[float]:
    """Step durations: a step opens at each segment labelled
    ``step_label`` and runs to the next one; the last step runs to the
    end of the segments only if ``last_step_ends_at_return``."""
    starts = [i for i, label in enumerate(labels) if label == step_label]
    if last_step_ends_at_return:
        starts.append(len(segments))
    return [sum(segments[a:b]) for a, b in zip(starts, starts[1:])]


@dataclass(frozen=True)
class Society:
    """``run_load(n_agents=..., workers=1)`` with the default op mix.

    ``transport="pickle"``: with one worker no other process reads the
    shared-memory column plane that ``"auto"`` would publish, and the
    plane's segments live outside the working tree and start the
    multiprocessing resource-tracker process.
    """

    name: str
    n_agents: int
    epochs: int
    # Nominal wall seconds of one repetition on the reference host,
    # interpreter start included; sets how many fit in --seconds.
    rep_seconds: float
    # Calls whose entries split a repetition into segments (see
    # ``segments_of``).  The first ends set-up: run_load's first shard
    # dispatch.  Every epoch starts with one, so it also opens each step.
    # The others run a fixed number of times per epoch and cut it into
    # pieces of a few tens of milliseconds: each shard's phases, each
    # block, the DAO, moderation, privacy and trust barriers, and the
    # next epoch's cache warm-up.
    segment_marks = (
        "repro.parallel.pool:SerialPool.map_ordered",
        "repro.workloads.load:run_shard_epoch",
        "repro.ledger.chain:Blockchain.propose_block",
        "repro.dao.dao:DAO.submit_proposal",
        "repro.governance.moderation:ModerationService.process_prepared",
        "repro.privacy.pipeline:PrivacyPipeline.ingest_all",
        "repro.reputation.system:ReputationSystem.global_trust_top",
        "repro.workloads.load:warm_caches",
    )
    step_label = 0
    last_step_ends_at_return = True

    MIX = (
        "txs_per_epoch",
        "ratings_per_epoch",
        "reports_per_epoch",
        "votes_per_epoch",
        "interactions_per_epoch",
        "frames_per_epoch",
    )

    def planned_ops(self) -> int:
        from repro.workloads.load import run_load

        defaults = inspect.signature(run_load).parameters
        return self.epochs * sum(defaults[key].default for key in self.MIX)

    def call(self, seed: int):
        from repro.workloads.load import run_load

        return run_load(
            n_agents=self.n_agents,
            epochs=self.epochs,
            seed=seed,
            workers=1,
            transport="pickle",
        )

    def examine(self, result) -> Tuple[int, int, List[str], Dict[str, Any]]:
        """(ops attempted, ops failed, failed checks, model outputs)."""
        ops = (
            result.txs_submitted
            + result.ratings_recorded
            + result.reports_filed
            + result.votes_cast
            + result.interactions_processed
            + result.frames_offered
        )
        frames_settled = (
            result.frames_released
            + result.frames_blocked_consent
            + result.frames_blocked_budget
        )
        failures = [
            message
            for ok, message in (
                (
                    result.txs_included == result.txs_submitted,
                    f"txs_included {result.txs_included} != txs_submitted "
                    f"{result.txs_submitted}",
                ),
                (
                    result.proposals_closed == self.epochs,
                    f"proposals_closed {result.proposals_closed} != epochs "
                    f"{self.epochs}",
                ),
                (
                    result.frames_offered == frames_settled,
                    f"frames_offered {result.frames_offered} != released + "
                    f"blocked {frames_settled}",
                ),
            )
            if not ok
        ]
        outputs = {
            "ops": ops,
            "chain_height": result.chain_height,
            "frames_released": result.frames_released,
            "cases_reviewed": result.cases_reviewed,
            "cascade_reach": result.cascade_reach,
        }
        return ops, 0, failures, outputs

    def layer_values(
        self, result, trace: LayerTrace, phase_start: float, end: float
    ) -> Dict[str, float]:
        return {
            # The epoch phase's residual: its wall time minus every
            # wrapped layer span inside it.
            "workloads.load.self_s": (
                (end - phase_start) - trace.covered_after(phase_start)
            ),
            "world.table_bytes_per_agent": result.table_bytes_per_agent,
            "parallel.ship_bytes": result.ship_cost["ship_bytes_total"],
            "reputation.sweeps_per_solve": (
                result.trust_sweeps / result.trust_computes
                if result.trust_computes
                else 0.0
            ),
            "privacy.release_ratio": (
                result.frames_released / result.frames_offered
                if result.frames_offered
                else 0.0
            ),
            "governance.cases_reviewed": result.cases_reviewed,
            "serving.cache.hit_ratio": 0.0,
        }


@dataclass(frozen=True)
class Serving:
    """``run_serving`` over seeded open-loop traffic with one flash crowd.

    Observability is on as in ``examples/serving_slo.py``: both SLOs and
    5% head sampling.  The serving configuration is the default one.
    """

    name: str
    n_users: int
    horizon: float
    rate_per_user: float
    rep_seconds: float
    spike_multiplier: float = 3.0
    # Set-up ends when the event loop starts.  One block tick per
    # simulated second: a step is the wall time between two consecutive
    # ticks.  The governance ticks and the result's SLO evaluation and
    # exports cut the run into further segments.
    segment_marks = (
        "repro.serving.loop:EventLoop.run",
        "repro.serving.repository:ServingRepository.produce_blocks",
        "repro.serving.repository:ServingRepository.roll_proposal",
        "repro.serving.repository:ServingRepository.run_review",
        "repro.obs.context:RequestTraceSampler.finalize",
        "repro.obs.slo:SLOEngine.evaluate",
        "repro.serving.run:trace_to_jsonl",
        "repro.obs.timeseries:WindowedTelemetry.to_json",
    )
    step_label = 1
    last_step_ends_at_return = False

    def traffic(self, seed: int):
        from repro.workloads.traffic import SpikeWindow, TrafficConfig

        # The flash crowd covers a tenth of the horizon, mid-run.
        return TrafficConfig(
            n_users=self.n_users,
            horizon=self.horizon,
            rate_per_user=self.rate_per_user,
            seed=seed,
            spikes=(
                SpikeWindow(
                    0.45 * self.horizon,
                    0.55 * self.horizon,
                    self.spike_multiplier,
                ),
            ),
        )

    def planned_ops(self) -> int:
        # Expected arrivals; used only when a repetition raised before
        # its traffic was counted.
        spike_share = 0.1 * (self.spike_multiplier - 1.0)
        return max(
            1,
            round(
                self.n_users * self.rate_per_user * self.horizon
                * (1.0 + spike_share)
            ),
        )

    def call(self, seed: int):
        from repro.obs.context import SamplingPolicy
        from repro.obs.slo import SLOSpec
        from repro.serving.run import run_serving

        slos = (
            SLOSpec(
                name="availability-all",
                sli="availability",
                target=0.99,
                endpoint="all",
                short_windows=2,
                long_windows=10,
                burn_factor=2.0,
            ),
            SLOSpec(
                name="latency-submit_tx-40ms",
                sli="latency",
                target=0.95,
                endpoint="submit_tx",
                threshold_ms=40.0,
                short_windows=2,
                long_windows=10,
                burn_factor=2.0,
            ),
        )
        return run_serving(
            self.traffic(seed),
            slos=slos,
            sampling=SamplingPolicy(head_rate=0.05),
        )

    def examine(self, result) -> Tuple[int, int, List[str], Dict[str, Any]]:
        errors = sum(
            count for code, count in result.status_counts.items()
            if code >= 500
        )
        failures = [
            message
            for ok, message in (
                (
                    result.completed == result.offered,
                    f"completed {result.completed} != offered "
                    f"{result.offered}",
                ),
                (
                    sum(result.status_counts.values()) == result.offered,
                    f"status counts sum to "
                    f"{sum(result.status_counts.values())}, offered "
                    f"{result.offered}",
                ),
                (errors == 0, f"{errors} responses with status >= 500"),
            )
            if not ok
        ]
        failed = errors + max(0, result.offered - result.completed)
        outputs = {
            "offered": result.offered,
            "p50_ms": result.p50_ms,
            "p99_ms": result.p99_ms,
            "shed_rate": result.shed_rate,
            "cache_hit_rate": result.cache_hit_rate,
            "blocks_produced": result.blocks_produced,
        }
        return result.offered, failed, failures, outputs

    def layer_values(
        self, result, trace: LayerTrace, phase_start: float, end: float
    ) -> Dict[str, float]:
        frames = result.endpoint_stats.get("ingest_frame", {})
        settled = frames.get("ok", 0.0) + frames.get("refused", 0.0)
        return {
            "workloads.load.self_s": 0.0,
            "world.table_bytes_per_agent": 0.0,
            "parallel.ship_bytes": 0.0,
            "reputation.sweeps_per_solve": 0.0,
            "privacy.release_ratio": (
                frames.get("ok", 0.0) / settled if settled else 0.0
            ),
            "governance.cases_reviewed": result.cases_reviewed,
            "serving.cache.hit_ratio": result.cache_hit_rate,
        }


WORKLOADS = {
    workload.name: workload
    for workload in (
        Society("society-100k", n_agents=100_000, epochs=20, rep_seconds=7.0),
        Society("society-1m", n_agents=1_000_000, epochs=3, rep_seconds=8.8),
        Serving(
            "serving-flash",
            n_users=300,
            horizon=60.0,
            rate_per_user=1.9,
            rep_seconds=5.6,
        ),
    )
}


def run_rep(workload, seed: int, traced: bool) -> Dict[str, Any]:
    """One repetition: call the program once, time it, check its outputs.

    A repetition that raises or fails a check counts every op it attempted
    as failed.  ``segments`` and ``labels`` split the time after set-up at
    the workload's segment marks; ``layers`` (traced runs only) holds the
    per-layer values.
    """
    marks: List[Tuple[int, float]] = []
    trace = LayerTrace() if traced else None
    patches = Patches()
    rep: Dict[str, Any] = {"traced": traced}
    try:
        for label, path in enumerate(workload.segment_marks):
            patches.replace(
                path,
                lambda fn, label=label: mark_entries(marks, label, fn),
            )
        if trace is not None:
            for path, metric, measure in TALLIES:
                patches.replace(
                    path,
                    lambda fn, m=metric, f=measure: trace.tally(m, f, fn),
                )
            for path, metric in SPANS:
                patches.replace(
                    path, lambda fn, m=metric: trace.span(m, fn)
                )
            trace.start_gc()
        start = perf_counter()
        result = workload.call(seed)
        end = perf_counter()
    except Exception:
        rep.update(
            ok=False,
            error=traceback.format_exc(limit=8),
            attempted=workload.planned_ops(),
        )
        rep["failed"] = rep["attempted"]
        return rep
    finally:
        if trace is not None:
            trace.stop_gc()
        patches.restore()

    attempted, failed, failures, outputs = workload.examine(result)
    setup_end, segments, labels = segments_of(marks, end)
    if not segments:
        failures.append(f"{workload.segment_marks[0]} was never entered")
    rep.update(
        ok=not failures,
        failures=failures,
        attempted=attempted,
        failed=attempted if failures else failed,
        setup_s=setup_end - start,
        wall_s=end - start,
        ops_per_s=(attempted - failed) / max(end - setup_end, 1e-9),
        segments=segments,
        labels=labels,
        steps=steps_of(
            segments,
            labels,
            workload.step_label,
            workload.last_step_ends_at_return,
        ),
        peak_rss_mib=(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
        digest=metrics_digest(result.metrics),
        outputs=outputs,
    )
    if trace is not None:
        layers: Dict[str, float] = {
            metric: trace.busy.get(metric, 0.0) for _, metric in SPANS
        }
        layers.update(
            {metric: trace.tallies.get(metric, 0.0) for _, metric, _ in TALLIES}
        )
        layers["ledger.submit_calls"] = trace.calls.get("ledger.submit_s", 0)
        layers.update(
            workload.layer_values(result, trace, setup_end, end)
        )
        layers["runtime.gc.pause_s"] = trace.gc_pause_s
        layers["runtime.gc.gen2"] = trace.gc_gen2
        rep["layers"] = layers
    return rep
