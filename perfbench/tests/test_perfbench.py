"""Tests of the benchmark itself, on its short mode (tiny inputs, temp output)."""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [p for p in (str(ROOT / "src"), str(ROOT)) if p not in sys.path]

from perfbench import batch, cdc, common, serve  # noqa: E402
from perfbench import run as runner  # noqa: E402
from perfbench.tracer import Tracer, summarize  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _bench(tmp_path_factory, workload: str, trace: int):
    out = tmp_path_factory.mktemp(f"{workload}-t{trace}")
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--short"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, env={**os.environ, "TMPDIR": str(out)},
    )
    lines = completed.stdout.strip().splitlines()
    return completed, json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return {
        (workload, trace): _bench(tmp_path_factory, workload, trace)
        for workload in runner.WORKLOADS
        for trace in (0, 1)
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", runner.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(runs, workload, trace):
    completed, record, result = runs[(workload, trace)]
    assert completed.returncode == 0, completed.stderr[-3000:]
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = common.PER_LAYER_UNITS if trace else common.END_TO_END_UNITS
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], float), name
        assert f"{workload} {name} = " in completed.stdout
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    for field in ("nproc", "python", "git_sha", "source_sha256"):
        assert field in record["environment"]
    assert record["seed"] == 3 and record["load"]


def test_benchmark_json_names_the_runner_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(runner.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def _check_nesting(path: Path, wall: float) -> None:
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert spans
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        assert span["self"] >= -1e-9, span
        parent = by_id.get(span["parent"]) if span["parent"] is not None else None
        if parent is not None:
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"], span
    assert sum(span["self"] for span in spans) <= wall


@pytest.mark.parametrize("workload", ["batch-interactive", "cdc-follow"])
def test_traced_spans_nest(runs, workload):
    _completed, record, result = runs[(workload, 1)]
    wall = record["load"]["traced_wall_s"] if workload == "batch-interactive" else record["load"]["window_s"]
    _check_nesting(Path(record["spans_file"]), wall)
    assert record["load"]["min_self_s"] >= -1e-9
    assert result["metrics"]["trace.coverage"]["value"] <= 1.0


def test_serving_worker_spans_nest(runs):
    _completed, record, _result = runs[("serve-mixed", 1)]
    files = record["load"]["worker_span_files"]
    assert len(files) == serve.CLUSTER_WORKERS
    for path in files:
        spans = [json.loads(line) for line in Path(path).read_text().splitlines()]
        assert any(span["name"] == "store.get" for span in spans)
        assert all(span["self"] >= -1e-9 for span in spans)


def test_tracer_self_time_excludes_children():
    tracer = Tracer(solver_clock=lambda: 0.0)

    class Layer:
        def outer(self):
            self.inner()
            self.inner()

        def inner(self):
            sum(range(1000))

    tracer.wrap(Layer, "outer", "api.outer")
    tracer.wrap(Layer, "inner", "store.inner")
    Layer().outer()
    tracer.restore()
    assert Layer.outer.__name__ == "outer" and not hasattr(Layer.outer, "__wrapped__")
    outer, first, second = tracer.spans
    assert first.parent is outer and second.parent is outer
    assert outer.self_seconds == pytest.approx(outer.duration - first.duration - second.duration)
    summary = summarize(tracer.spans)
    assert summary["names"]["store.inner"][1] == 2
    assert summary["roots"] == pytest.approx(outer.duration)
    assert sum(summary["layers"].values()) == pytest.approx(outer.duration)


def test_speed_meter_scales_by_the_median_sample():
    meter = common.SpeedMeter()
    assert meter.slowdown() == 1.0
    meter.sample(3)
    assert len(meter.samples) == 3 and all(seconds > 0 for seconds in meter.samples)
    assert meter.cpu_s == pytest.approx(sum(meter.samples))
    meter.samples = [common.REFERENCE_SNIPPET_S * factor for factor in (1.0, 3.0, 2.0)]
    assert meter.slowdown() == pytest.approx(2.0)


def test_batch_check_catches_a_tampered_value(tmp_path):
    inputs, host, _seconds = batch.setup(tmp_path, 5, 6)
    host.close()
    inproc = batch.EngineHost()
    try:
        result = batch.run_pass(inputs, inproc, tmp_path, 0, 1)
    finally:
        inproc.close()
    assert batch.check_pass(result, inputs) == []
    assert batch.check_sample(result, inputs, 0, len(result.keys)) == []
    victim = result.results[0]
    attribute = next(iter(victim.resolved_tuple))
    victim.resolved_tuple[attribute] = "tampered"
    assert batch.check_sample(result, inputs, 0, len(result.keys))


def test_serve_check_catches_a_tampered_response():
    workload = serve.Workload(seed=2, rate=10.0, seconds=1.0, hot=3)
    requests = [workload.request(index) for index in range(len(workload.repeat))]
    lines = asyncio.run(serve._reference(workload.builder, requests))
    window = serve.Window()
    window.lines = list(lines)
    window.shed = [False] * len(lines)
    assert serve._check(workload, window, 0, len(lines) * 2) == ([], 0)
    payload = json.loads(lines[0])
    attribute = next(iter(payload["resolved"]))
    payload["resolved"][attribute] = "tampered"
    window.lines[0] = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    problems, _failed = serve._check(workload, window, 0, len(lines) * 2)
    assert problems


def test_cdc_check_catches_a_tampered_store_row(tmp_path):
    follower = cdc.start(tmp_path, 4, 3)
    try:
        cdc.follow(follower, cdc.change_events(follower.dataset, 4, 4), cdc.arrivals(4, 0.004, 4))
        expected = follower.bootstrap_events + 4
        problems, _state = cdc.check(follower, expected)
        assert problems == []
        store = follower.client.store
        row = store.results()[0]
        attribute = next(iter(row.result.resolved_tuple))
        row.result.resolved_tuple[attribute] = "tampered"
        store.put(row.entity_key, row.specification_hash, row.result)
        problems, _state = cdc.check(follower, expected)
        assert problems
    finally:
        follower.close()


def test_cdc_counts_the_records_the_feed_decodes(tmp_path):
    from repro.cdc import JsonlChangeFeed, TupleAdded

    feed = JsonlChangeFeed(tmp_path / "feed.jsonl")
    for index in range(3):
        feed.append(TupleAdded(entity=f"e{index}", row={"name": f"e{index}"}))
    tracer = Tracer(solver_clock=lambda: 0.0)
    decoded = cdc._count_decodes(tracer)
    try:
        assert [record.seq for record in feed.events(after=2)] == [3]
        assert decoded == [3]
    finally:
        tracer.restore()
        feed.close()
    list(JsonlChangeFeed(tmp_path / "feed.jsonl").events())
    assert decoded == [3]


def test_failed_check_exits_non_zero_without_numbers(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(batch, "check_sample", lambda *_args: ["tampered value"])
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    code = runner.main(["--workload", "batch-interactive", "--seed", "1", "--seconds", "1", "--short"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["metrics"] == {}


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cdc-follow", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
