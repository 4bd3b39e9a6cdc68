"""``serve-mixed``: requests into the serving cluster (``serve --cluster``).

One asyncio process sends requests one at a time (closed loop, one request
outstanding) into a ``ServingCluster`` of two worker processes that share
one SQLite result store.  Most requests repeat an entity answered at set-up
(store read hits); the rest are entities never seen before (encode, solve,
store write).  Latency runs from the send to the response.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import os
import random
import shutil
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench import common
from perfbench.tracer import SOLVER_PHASES, merge, summarize

from repro import profiling
from repro.api import RunConfig
from repro.datasets import NBAConfig, generate_nba_dataset
from repro.evaluation.metrics import AccuracyCounts, score_entity
from repro.resolution.framework import ResolverOptions
from repro.serving import (
    ResolutionServer,
    ResolveRequest,
    ServingCluster,
    SpecificationBuilder,
    encode_request,
    serve_jsonl,
)
from repro.serving.wire import decode_response

#: Requests generated per second of the window.  One request outstanding
#: completes about 180-230 per second on the reference host; the pool has
#: room for a host almost twice as fast.  The loop stops at ``--seconds``.
POOL_RATE = 400.0
SHORT_POOL_RATE = 20.0
#: Share of requests that repeat an entity answered at set-up.
REPEAT_SHARE = 0.8
#: Entities answered at set-up (the repeated set).
HOT = 100
SHORT_HOT = 4
#: Cluster worker processes (``serve --cluster 2``).
CLUSTER_WORKERS = 2
#: Responses compared byte for byte against a single ResolutionServer.
SAMPLE = 16
#: Latency percentiles are taken per slice of this many seconds of the
#: window and the median slice is reported, so a burst of CPU steal on the
#: shared host that stalls one slice does not set the run's figure.
SLICE_S = 5.0
SETUPS = 3
#: The speed meter samples the host once per this many requests.
METER_EVERY = 40

OPTIONS = ResolverOptions(max_rounds=0, fallback="none")


class Workload:
    """The seeded request sequence and the entities behind it.

    Requests are built when sent (:meth:`request`), so the pool's size,
    which follows ``--seconds``, costs only an entity index per request.
    """

    def __init__(self, seed: int, rate: float, seconds: float, hot: int) -> None:
        rng = random.Random(seed)
        count = max(1, int(rate * seconds))
        repeats = [rng.random() < REPEAT_SHARE for _ in range(count)]
        fresh = repeats.count(False)
        self.dataset = generate_nba_dataset(NBAConfig(num_players=hot + fresh, seed=seed))
        entities = self.dataset.entities
        self.truth = {entity.name: entity for entity in entities}
        self.hot = [self._request(entity, f"w{index}") for index, entity in enumerate(entities[:hot])]
        newcomers = iter(range(hot, len(entities)))
        self.repeat: List[bool] = repeats
        #: Index into the dataset's entities of each request.
        self.entity_of = [rng.randrange(hot) if repeat else next(newcomers) for repeat in repeats]
        self.builder = SpecificationBuilder(
            self.dataset.schema, self.dataset.currency_constraints, self.dataset.cfds
        )

    def request(self, index: int) -> ResolveRequest:
        return self._request(self.dataset.entities[self.entity_of[index]], f"r{index}")

    @staticmethod
    def _request(entity, request_id: str) -> ResolveRequest:
        return ResolveRequest(entity=entity.name, rows=tuple(dict(row) for row in entity.rows), id=request_id)


async def _start(workload: Workload, store: Path) -> Tuple[ServingCluster, float]:
    """Start the cluster and answer the repeated set; return the answer seconds."""
    cluster = ServingCluster(
        workload.builder,
        RunConfig(options=OPTIONS, workers=1),
        workers=CLUSTER_WORKERS,
        store=str(store),
    )
    await cluster.start()
    start = time.perf_counter()
    responses = await asyncio.gather(*(cluster.resolve_one(request) for request in workload.hot))
    warm = time.perf_counter() - start
    errors = [response.error for response in responses if response.error]
    if errors:
        await cluster.shutdown()
        raise RuntimeError(f"set-up requests failed: {errors[:3]}")
    return cluster, warm


class Window:
    """Outcome of the closed-loop window: one entry per request sent."""

    def __init__(self) -> None:
        self.sent: List[float] = []
        self.done: List[float] = []
        self.lines: List[Optional[str]] = []
        self.shed: List[bool] = []
        self.start = 0.0
        #: Host speed, sampled between requests in the sending process.
        self.meter = common.SpeedMeter()


async def _closed_loop(cluster: ServingCluster, workload: Workload, seconds: float) -> Window:
    """Send the workload's requests one at a time, each after the previous
    response, until *seconds* have passed or the requests run out.

    One request outstanding keeps one process busy at a time on the 2-vCPU
    host.  An open loop at 40 requests/s left the vCPUs idle between
    requests, and a shared host's hypervisor makes an idle vCPU wait to run
    again: its p95 moved with the host's CPU steal by up to 1.8x between
    25-second windows of one run.
    """
    window = Window()
    window.start = time.perf_counter()
    deadline = window.start + seconds
    for index in range(len(workload.repeat)):
        if index % METER_EVERY == 0:
            window.meter.sample()
        request = workload.request(index)
        sent = time.perf_counter()
        if sent >= deadline:
            break
        status, outcome = await cluster.submit_request(request)
        line = outcome if status == "shed" else await outcome
        window.sent.append(sent)
        window.done.append(time.perf_counter())
        window.lines.append(line)
        window.shed.append(status == "shed")
    return window


async def _reference(builder: SpecificationBuilder, requests: List[ResolveRequest]) -> List[str]:
    """Response lines of one in-process ResolutionServer for *requests*."""
    out: List[str] = []
    async with ResolutionServer(builder, options=OPTIONS, workers=1) as server:
        await serve_jsonl(server, [encode_request(request) + "\n" for request in requests], out.append)
    return [line.rstrip("\n") for line in out]


def _check(workload: Workload, window: Window, seed: int, sample: int) -> Tuple[List[str], int]:
    """Problems found and the number of failed requests."""
    problems: List[str] = []
    failed = 0
    for index, line in enumerate(window.lines):
        if line is None:
            problems.append(f"request {index} got no response")
            failed += 1
            continue
        response = decode_response(line)
        request = workload.request(index)
        if response.error or response.failure or window.shed[index]:
            failed += 1
        elif response.entity != request.entity or response.id != request.id:
            problems.append(f"response {index} answers {response.entity}/{response.id}")
    rng = random.Random(seed)
    sent = workload.repeat[: len(window.lines)]
    repeated = [i for i, repeat in enumerate(sent) if repeat]
    fresh = [i for i, repeat in enumerate(sent) if not repeat]
    chosen = sorted(
        rng.sample(repeated, min(sample // 2, len(repeated))) + rng.sample(fresh, min(sample // 2, len(fresh)))
    )
    expected = asyncio.run(_reference(workload.builder, [workload.request(i) for i in chosen]))
    for index, line in zip(chosen, expected):
        if (window.lines[index] or "").rstrip("\n") != line:
            problems.append(f"response {index} differs from a single ResolutionServer")
    return problems, failed


def _f_measure(workload: Workload, window: Window) -> float:
    counts = AccuracyCounts()
    seen = set()
    schema = workload.dataset.schema
    for line in window.lines:
        if line is None:
            continue
        response = decode_response(line)
        if response.error or response.entity in seen:
            continue
        seen.add(response.entity)
        resolved = {k: v for k, v in response.resolved.items() if v is not None}
        counts = counts.merge(score_entity(workload.truth[response.entity], schema, resolved))
    return counts.f_measure


@contextlib.contextmanager
def _one_cpu():
    """Run this process, and the cluster workers it forks, on one vCPU (Linux).

    With one request outstanding only one of them is busy at a time, so
    nothing is lost by sharing a vCPU.  Spread over two, each hand-off
    between the frontdoor and a worker woke an idle vCPU, which a shared
    host's hypervisor makes wait: latency then grew as roughly the fourth
    power of the host's slowdown; pinned, it grows about in proportion.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def run(ctx: common.RunContext) -> common.Outcome:
    with _one_cpu():
        return _run(ctx)


def _run(ctx: common.RunContext) -> common.Outcome:
    rate = SHORT_POOL_RATE if ctx.short else POOL_RATE
    hot = SHORT_HOT if ctx.short else HOT
    outcome = common.Outcome()
    if ctx.trace:
        return _traced(ctx, rate, hot, outcome)

    setup_meter = common.SpeedMeter()

    async def main() -> Tuple[Workload, Window, List[float], float]:
        setups: List[float] = []
        cluster = None
        for attempt in range(1 if ctx.short else SETUPS):
            if cluster is not None:
                await cluster.shutdown()
            store = ctx.workdir / f"store-{attempt}.db"
            start = time.perf_counter()
            workload = Workload(ctx.seed, rate, ctx.seconds, hot)
            cluster, _warm = await _start(workload, store)
            setups.append(time.perf_counter() - start)
            setup_meter.sample(common.SETUP_SAMPLES)
        # Every run starts its timed part from the same collector state.
        gc.collect()
        try:
            before = common.tree_cpu()
            window = await _closed_loop(cluster, workload, ctx.seconds)
            cpu = common.cpu_between(before, common.tree_cpu()) - window.meter.cpu_s
        finally:
            await cluster.shutdown()
        return workload, window, setups, cpu

    workload, window, setups, cpu = asyncio.run(main())
    rss = common.peak_rss_mb()
    outcome.problems, outcome.failed = _check(workload, window, ctx.seed, SAMPLE)
    outcome.attempted = len(window.lines)
    slices: Dict[int, List[float]] = {}
    for i, line in enumerate(window.lines):
        if line is not None and not window.shed[i]:
            slot = int((window.sent[i] - window.start) // SLICE_S)
            slices.setdefault(slot, []).append(window.done[i] - window.sent[i])
    answered = outcome.attempted - outcome.failed
    # Requests answered per CPU second of the frontdoor (which also runs the
    # sender) plus the workers: a shared host's steal stretches wall time,
    # not CPU time.  Throughput and latency are scaled to the reference host
    # speed; the raw figures and the wall rate stay in the record.
    raw = {
        "throughput_per_s": answered / cpu,
        "latency_p50_ms": common.median([common.percentile(v, 0.50) for v in slices.values()]) * 1000.0,
        "latency_p95_ms": common.median([common.percentile(v, 0.95) for v in slices.values()]) * 1000.0,
    }
    slowdown = window.meter.slowdown()
    outcome.metrics = {
        "throughput_per_s": raw["throughput_per_s"] * slowdown,
        "latency_p50_ms": raw["latency_p50_ms"] / slowdown,
        "latency_p95_ms": raw["latency_p95_ms"] / slowdown,
        "setup_s": common.median(setups) / setup_meter.slowdown(),
        "peak_rss_mb": rss,
        "f_measure": _f_measure(workload, window),
    }
    outcome.load = _load(workload, hot, window)
    outcome.load.update(
        setups_s=setups,
        latency_slices=len(slices),
        cluster_cpu_s=cpu,
        answered_per_wall_s=answered / (max(window.done) - window.start),
        slowdown=slowdown,
        unscaled=raw,
        setup_slowdown=setup_meter.slowdown(),
        unscaled_setup_s=common.median(setups),
    )
    return outcome


def _load(workload: Workload, hot: int, window: Window) -> Dict[str, Any]:
    sent = workload.repeat[: len(window.lines)]
    return {
        "dataset": "nba",
        "loop": "closed",
        "outstanding": 1,
        "repeat_share": REPEAT_SHARE,
        "pool_requests": len(workload.repeat),
        "requests": len(sent),
        "repeated_requests": sum(sent),
        "hot_entities": hot,
        "fresh_entities": len(sent) - sum(sent),
        "cluster_workers": CLUSTER_WORKERS,
    }


# -- traced run ----------------------------------------------------------------


def _install_worker_flush(ctx: common.RunContext, directory: Path) -> None:
    """Make every cluster worker write its span totals when asked for stats.

    Cluster workers are forked from this process, so they inherit the layer
    wrappers; their spans stay in their own memory.  The cluster's public
    ``stats()`` asks each worker's ``ResolutionServer.stats()`` over the
    control channel; the patched method writes the worker's span summary
    and solver phase totals to *directory* before it answers.
    """
    tracer = ctx.tracer
    original = ResolutionServer.stats

    def stats(server):
        snapshot = original(server)
        summary = summarize(tracer.local_spans())
        summary["solver"] = common.solver_phases()
        target = directory / f"worker-{os.getpid()}.json"
        temporary = target.with_suffix(".tmp")
        temporary.write_text(json.dumps(summary))
        os.replace(temporary, target)
        tracer.write_spans(str(directory / f"spans-{os.getpid()}.jsonl"))
        return snapshot

    tracer.patch(ResolutionServer, "stats", stats)


async def _snapshot(cluster: ServingCluster, directory: Path) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Cluster stats plus the per-worker span summaries they triggered."""
    stats = await cluster.stats()
    summaries = {}
    for path in directory.glob("worker-*.json"):
        summaries[path.stem] = json.loads(path.read_text())
    return stats, summaries


def _collect_worker_spans(ctx: common.RunContext, directory: Path) -> List[str]:
    """Move the workers' span files next to this run's record."""
    records = ctx.outdir / "records"
    records.mkdir(parents=True, exist_ok=True)
    moved = []
    for path in sorted(directory.glob("spans-*.jsonl")):
        target = records / f"{ctx.label}.worker-{path.stem.split('-', 1)[1]}.spans.jsonl"
        shutil.move(str(path), target)
        moved.append(str(target))
    return moved


def _worker_totals(stats: Dict[str, Any]) -> Dict[str, float]:
    totals = {"requests": 0.0, "queue": 0.0, "resolve": 0.0, "hits": 0.0, "misses": 0.0,
              "busy": 0.0, "idle": 0.0, "chunks": 0.0, "retries": 0.0}
    routed = []
    for shard in stats["shards"]:
        routed.append(float(shard.get("entities", 0)))
        server = shard.get("server") or {}
        store = server.get("store", {})
        engine = server.get("engine", {})
        totals["requests"] += server.get("requests", 0)
        totals["queue"] += server.get("queue_seconds", 0.0)
        totals["resolve"] += server.get("resolve_seconds", 0.0)
        totals["hits"] += store.get("hits", 0)
        totals["misses"] += store.get("misses", 0)
        totals["busy"] += engine.get("busy_seconds", 0.0)
        totals["idle"] += engine.get("idle_seconds", 0.0)
        totals["chunks"] += engine.get("chunks", 0.0)
        totals["retries"] += engine.get("chunk_retries", 0.0)
    totals["routed"] = routed
    return totals


def _traced(ctx: common.RunContext, rate: float, hot: int, outcome: common.Outcome) -> common.Outcome:
    """Per-layer split from the frontdoor's timings and the workers' spans.

    ``trace.overhead`` compares the set-up's closed-loop answering of the
    repeated set (all misses: encode, solve, store write) on a cluster
    started without wrappers and on one started with them.
    """
    tracer = ctx.tracer
    assert tracer is not None
    flush_dir = ctx.workdir / "workers"
    flush_dir.mkdir(parents=True, exist_ok=True)

    async def main():
        workload = Workload(ctx.seed, rate, ctx.seconds, hot)
        plain, plain_warm = await _start(workload, ctx.workdir / "store-plain.db")
        await plain.shutdown()
        common.install_layers(tracer)
        _install_worker_flush(ctx, flush_dir)
        profiling.enable(True)
        try:
            cluster, traced_warm = await _start(workload, ctx.workdir / "store-traced.db")
            try:
                before = await _snapshot(cluster, flush_dir)
                window = await _closed_loop(cluster, workload, ctx.seconds)
                after = await _snapshot(cluster, flush_dir)
            finally:
                await cluster.shutdown()
        finally:
            profiling.enable(False)
            tracer.restore()
        return workload, window, before, after, plain_warm, traced_warm

    workload, window, before, after, plain_warm, traced_warm = asyncio.run(main())
    outcome.problems, outcome.failed = _check(workload, window, ctx.seed, SAMPLE)
    outcome.attempted = len(window.lines)

    stats0, workers0 = before
    stats1, workers1 = after
    if set(workers0) != set(workers1) or len(workers1) != CLUSTER_WORKERS:
        outcome.problems.append(f"worker span summaries missing: {sorted(workers0)} -> {sorted(workers1)}")
        return outcome
    summary = merge([merge([workers1[name], workers0[name]], [1, -1]) for name in sorted(workers1)])
    solver_before = {phase: sum(workers0[n]["solver"][phase] for n in workers0) for phase in SOLVER_PHASES}
    solver_after = {phase: sum(workers1[n]["solver"][phase] for n in workers1) for phase in SOLVER_PHASES}
    t0, t1 = _worker_totals(stats0), _worker_totals(stats1)
    requests = t1["requests"] - t0["requests"]
    queue = t1["queue"] - t0["queue"]
    resolve = t1["resolve"] - t0["resolve"]
    routed = [b - a for a, b in zip(t0["routed"], t1["routed"])]
    lookups = (t1["hits"] - t0["hits"]) + (t1["misses"] - t0["misses"])
    answered = [i for i, line in enumerate(window.lines) if line is not None and not window.shed[i]]
    service = [window.done[i] - window.sent[i] for i in answered]

    metrics = common.zero_per_layer()
    metrics.update(common.layer_metrics(summary))
    metrics.update(common.solver_metrics(solver_before, solver_after))
    metrics.update(common.split_metrics(summary, resolve))
    metrics.update(common.engine_metrics(t0, t1))
    per_request = 1000.0 / requests if requests else 0.0
    metrics.update({
        "store.hit_ratio": (t1["hits"] - t0["hits"]) / lookups if lookups else 0.0,
        "serving.frontdoor_ms_per_req": common.mean(service) * 1000.0 - (queue + resolve) * per_request,
        "serving.queue_ms_per_req": queue * per_request,
        "serving.resolve_ms_per_req": resolve * per_request,
        "serving.route_skew": max(routed) / common.mean(routed) if sum(routed) else 0.0,
        "bench.failed_share": outcome.failed / max(1, outcome.attempted),
        "trace.overhead": traced_warm / plain_warm - 1.0,
    })
    outcome.metrics = metrics
    outcome.load = _load(workload, hot, window)
    outcome.load.update(
        routed_per_worker=routed,
        worker_requests=requests,
        plain_setup_answer_s=plain_warm,
        traced_setup_answer_s=traced_warm,
        min_self_s=summary["min_self"],
        worker_span_files=_collect_worker_spans(ctx, flush_dir),
    )
    return outcome
