"""Tests for the benchmark's own code, at toy sizes and in-process."""

import functools
import gc
import io
import json
import time
from contextlib import redirect_stdout

import pytest

import layers
import run
import spec
from repro.serving import ServingConfig

TOY = {
    "society-100k": spec.Society(
        "society-100k", n_agents=2_000, epochs=3, rep_seconds=1.0
    ),
    "society-1m": spec.Society(
        "society-1m", n_agents=3_000, epochs=2, rep_seconds=1.0
    ),
    "serving-flash": spec.Serving(
        "serving-flash",
        n_users=40,
        horizon=6.0,
        rate_per_user=1.0,
        rep_seconds=1.0,
    ),
}


@pytest.fixture
def toy_run(monkeypatch):
    """``run.main`` over the toy workloads, repetitions run in-process."""
    monkeypatch.setattr(run, "WORKLOADS", TOY)
    monkeypatch.setattr(run, "PROBE_LOOPS", 1_000)
    monkeypatch.setattr(
        run,
        "spawn_rep",
        lambda name, seed, traced, deadline: spec.run_rep(
            TOY[name], seed, traced
        ),
    )

    def main(*argv):
        out = io.StringIO()
        with redirect_stdout(out):
            code = run.main(list(argv))
        lines = out.getvalue().splitlines()
        return code, lines, json.loads(lines[-1])

    return main


def declared(section):
    with open(run.os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.mark.parametrize("workload", sorted(TOY))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_declared_metric_is_emitted_with_its_unit(
    toy_run, workload, trace
):
    code, lines, result = toy_run(
        "--workload", workload, "--seconds", "2", "--trace", trace
    )
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = declared("per_layer" if trace == "1" else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(
            line.split()[:1] == [name] and line.endswith(f" {unit}")
            for line in lines
        ), name


def test_every_declared_metric_is_computed():
    """No declared metric falls back to the missing-value default."""
    society, serving = TOY["society-100k"], TOY["serving-flash"]
    for workload in (society, serving):
        reps = [
            spec.run_rep(workload, 5, traced=False),
            spec.run_rep(workload, 5, traced=True),
        ]
        summary = run.verdict(reps)
        assert summary["correct"], summary["problems"]
        plain = run.end_to_end(
            reps, summary["attempted"], summary["failed"], workload
        )
        assert set(declared("end_to_end")) <= set(plain)
        assert set(declared("per_layer")) <= set(run.per_layer(reps))


def test_steps_are_one_per_epoch_and_one_per_simulated_second():
    society = spec.run_rep(TOY["society-100k"], 3, traced=False)
    assert len(society["steps"]) == TOY["society-100k"].epochs
    assert all(step > 0 for step in society["steps"])

    serving = TOY["serving-flash"]
    rep = spec.run_rep(serving, 3, traced=False)
    # Block ticks fire at t = 1, 2, ... through the drain window; a step
    # spans two consecutive ticks.
    ticks = int(serving.horizon + ServingConfig().drain_window)
    assert len(rep["steps"]) == ticks - 1

    setup_end, segments, labels = spec.segments_of(
        [(1, -1.0), (0, 0.0), (2, 0.5), (0, 1.0), (0, 3.0)], 6.0
    )
    assert setup_end == 0.0
    assert segments == [0.5, 0.5, 2.0, 3.0] and labels == [0, 2, 0, 0]
    assert spec.steps_of(segments, labels, 0, True) == [1.0, 2.0, 3.0]
    assert spec.steps_of(segments, labels, 0, False) == [1.0, 2.0]


def test_segments_split_the_time_after_set_up():
    for workload in (TOY["society-100k"], TOY["serving-flash"]):
        rep = spec.run_rep(workload, 3, traced=False)
        assert rep["labels"][0] == 0
        assert len(rep["labels"]) == len(rep["segments"])
        # Every mark splits the run somewhere.
        assert set(rep["labels"]) == set(range(len(workload.segment_marks)))
        assert rep["setup_s"] + sum(rep["segments"]) == pytest.approx(
            rep["wall_s"]
        )


def test_best_segments_take_the_fastest_time_of_each_segment():
    workload = TOY["serving-flash"]
    reps = [
        {"ok": True, "traced": False, "attempted": 10, "failed": 0,
         "setup_s": setup, "peak_rss_mib": 1.0,
         "segments": segments, "labels": [0, 1, 1, 4]}
        for setup, segments in (
            (1.0, [0.5, 2.0, 3.0, 0.2]),
            (3.0, [0.1, 4.0, 1.0, 0.2]),
        )
    ]
    values = run.end_to_end(reps, 20, 0, workload)
    assert values["setup_s"] == 2.0
    assert values["ops_per_s"] == pytest.approx(10 / (0.1 + 2.0 + 1.0 + 0.2))
    assert values["step_s_p50"] == 2.0


def test_repetitions_split_differently_fail_the_run():
    workload = TOY["serving-flash"]
    reps = [spec.run_rep(workload, 4, traced=False) for _ in range(2)]
    assert run.verdict(reps)["correct"]
    reps[1]["labels"] = reps[1]["labels"][:-1] + [2]
    summary = run.verdict(reps)
    assert not summary["correct"]
    assert "segment boundaries differ across repetitions" in summary["problems"]


def test_a_run_that_raises_counts_every_op_as_failed(toy_run, monkeypatch):
    import repro.workloads.load

    @functools.wraps(repro.workloads.load.run_load)
    def broken(**kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(repro.workloads.load, "run_load", broken)
    rep = spec.run_rep(TOY["society-100k"], 1, traced=False)
    assert rep["ok"] is False and "injected failure" in rep["error"]
    assert rep["failed"] == rep["attempted"] == TOY["society-100k"].planned_ops()

    code, lines, result = toy_run(
        "--workload", "society-100k", "--seconds", "1", "--trace", "0"
    )
    assert code == 1 and result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["completed_ratio"]["value"] == 0.0
    assert any(
        line.split()[:2] == ["failed_ratio", "1"] for line in lines
    )


def test_wrappers_are_restored_and_leave_the_digest_unchanged():
    paths = {path for path, _ in spec.SPANS}
    paths |= {path for path, _, _ in spec.TALLIES}
    for workload in TOY.values():
        paths |= set(workload.segment_marks)
    originals = {path: vars(layers.resolve(path)[0])[layers.resolve(path)[1]]
                 for path in paths}
    callbacks = list(gc.callbacks)

    for workload in (TOY["society-100k"], TOY["serving-flash"]):
        plain = spec.run_rep(workload, 11, traced=False)
        traced = spec.run_rep(workload, 11, traced=True)
        assert plain["ok"] and traced["ok"]
        assert plain["digest"] == traced["digest"]
        assert plain["outputs"] == traced["outputs"]
        for path, original in originals.items():
            owner, attr = layers.resolve(path)
            assert vars(owner)[attr] is original, path
        assert gc.callbacks == callbacks


def test_span_self_time_excludes_wrapped_children():
    trace = layers.LayerTrace()
    inner = trace.span("inner", lambda: time.sleep(0.03))

    def outer_body():
        time.sleep(0.02)
        inner()

    outer = trace.span("outer", outer_body)
    before = time.perf_counter()
    outer()
    elapsed = time.perf_counter() - before
    assert trace.calls == {"outer": 1, "inner": 1}
    assert trace.busy["inner"] >= 0.03
    assert 0.02 <= trace.busy["outer"] <= elapsed - trace.busy["inner"]
    assert len(trace.top_spans) == 1
    assert trace.covered_after(before) == pytest.approx(
        trace.busy["outer"] + trace.busy["inner"]
    )
