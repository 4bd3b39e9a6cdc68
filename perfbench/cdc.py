"""``cdc-follow``: a change feed followed as ``serve --follow`` does.

Open loop, one thread.  Set-up writes 300 seeded NBA entities to a
JSONL change feed as ``tuple_added`` events and consumes them into a SQLite
result store with a cursor file (the ``serve --follow`` configuration).  The
registry is larger than the consumer's 256-encoder cache.  The timed part
appends seeded ``mutate_rows`` changes at seeded random arrival times and calls
``ChangeConsumer.consume()`` every 0.2 s in the same thread; an event's
latency runs from its scheduled append to the end of the poll that stored
it.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple

from perfbench import common
from perfbench.tracer import summarize

from repro import profiling
from repro.api import MemoryResultStore, ResolutionClient, RunConfig
from repro.cdc import ChangeConsumer, JsonlChangeFeed, RegistryState, TupleAdded, TupleRetracted
from repro.datasets import NBAConfig, generate_nba_dataset, mutate_rows
from repro.datasets.base import GeneratedEntity
from repro.evaluation.metrics import AccuracyCounts, score_entity
from repro.resolution.framework import ResolverOptions

PLAYERS = 300
SHORT_PLAYERS = 8
#: Seasons of history per player: about four rows per entity, so the
#: bootstrap feed holds about 1.2k events.
SEASONS = 3
#: Offered change rate, events per second.  The full garbage collections
#: the encoder cache provokes take tenths of a second each; at higher rates
#: they delay over 5% of the events, and the p95 would measure where those
#: pauses land rather than the consume path.
RATE = 10.0
#: Seconds from the start of one poll to the start of the next.
POLL_INTERVAL = 0.2
#: Least seconds between two samples of the speed meter, and least idle time
#: before the next due append or poll for a sample to be taken.
METER_INTERVAL = 0.1
METER_ROOM = 0.01
#: Pool processes of the batch re-resolution the final store is checked against.
CHECK_WORKERS = 2

OPTIONS = ResolverOptions(max_rounds=0, fallback="none")


@dataclass
class Follower:
    dataset: Any
    feed_path: Path
    producer: JsonlChangeFeed
    client: ResolutionClient
    consumer: ChangeConsumer
    bootstrap_events: int
    bootstrap_consume_s: float

    def close(self) -> None:
        self.consumer.close()
        self.client.close()
        self.producer.close()


def start(directory: Path, seed: int, players: int) -> Follower:
    """Write the bootstrap feed and consume it into a fresh store."""
    directory.mkdir(parents=True, exist_ok=True)
    dataset = generate_nba_dataset(NBAConfig(num_players=players, seasons=SEASONS, seed=seed))
    feed_path = directory / "feed.jsonl"
    producer = JsonlChangeFeed(feed_path)
    for entity in dataset.entities:
        for row in entity.rows:
            producer.append(TupleAdded(entity=entity.name, row=dict(row)))
    client = ResolutionClient(RunConfig(options=OPTIONS, workers=1, store=str(directory / "store.db")))
    consumer = ChangeConsumer(
        str(feed_path),
        client,
        dataset.schema,
        sigma=tuple(dataset.currency_constraints),
        gamma=tuple(dataset.cfds),
        cursor=str(directory / "cursor.json"),
    )
    begin = time.perf_counter()
    report = consumer.consume()
    consumed = time.perf_counter() - begin
    # Every run starts its timed part from the same collector state; the
    # collections the timed part's own allocations trigger still happen.
    gc.collect()
    return Follower(dataset, feed_path, producer, client, consumer, report.applied, consumed)


def change_events(dataset, count: int, seed: int) -> List[Any]:
    events = []
    for mutation in mutate_rows(dataset, count, seed=seed):
        kind = TupleRetracted if mutation.kind == "retract" else TupleAdded
        events.append(kind(entity=mutation.entity, row=dict(mutation.row)))
    return events


@dataclass
class Window:
    start: float
    end: float
    latencies: List[float]
    late: List[float]
    polls: int
    #: Events the polls applied, and the wall and CPU seconds spent inside them.
    applied: int
    busy: float
    busy_cpu: float
    backlog_max: int
    #: Host slowdown while following (see ``common.SpeedMeter``).
    slowdown: float


def arrivals(count: int, seconds: float, seed: int) -> List[float]:
    """Seeded arrival offsets of *count* events spread at random over *seconds*.

    This is a Poisson process conditioned on its count: independent
    producers arrive at random, while the window, and so the number of
    polls, is the same for every seed.  A periodic schedule would lock into
    phase with the poll interval and make the median wait depend on that
    phase.
    """
    rng = random.Random(f"arrivals-{seed}")
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


def follow(follower: Follower, events: List[Any], offsets: List[float], tracer=None) -> Window:
    """Append *events* at their *offsets*; poll the consumer every ``POLL_INTERVAL``.

    One thread does both, as a follower with a poll interval would: between
    polls it sleeps until the next append or poll is due; a poll that
    overruns the interval is followed at once by the next one.  While it
    waits, the thread samples the host's speed now and then, when the next
    append or poll is far enough off.
    """
    idle = tracer.span if tracer is not None else (lambda *_a, **_k: contextlib.nullcontext())
    producer, consumer = follower.producer, follower.consumer
    pending: collections.deque = collections.deque()
    latencies: List[float] = []
    late: List[float] = []
    polls = applied = backlog_max = 0
    busy = busy_cpu = 0.0
    meter = common.SpeedMeter()
    metered = 0.0
    start = time.perf_counter() + 0.005
    end = next_poll = start
    sent = 0
    while sent < len(events) or pending:
        now = time.perf_counter()
        while sent < len(events) and start + offsets[sent] <= now:
            due = start + offsets[sent]
            sequence = producer.append(events[sent])
            late.append(time.perf_counter() - due)
            pending.append((sequence, due))
            sent += 1
        if now >= next_poll:
            backlog_max = max(backlog_max, producer.last_sequence() - consumer.position)
            next_poll = now + POLL_INTERVAL
            polled, polled_cpu = time.perf_counter(), time.process_time()
            report = consumer.consume()
            end = time.perf_counter()
            busy += end - polled
            busy_cpu += time.process_time() - polled_cpu
            applied += report.applied
            polls += 1
            while pending and pending[0][0] <= report.position:
                latencies.append(end - pending.popleft()[1])
            continue
        wake = next_poll if sent >= len(events) else min(next_poll, start + offsets[sent])
        if tracer is None and now - metered >= METER_INTERVAL and wake - now >= METER_ROOM:
            meter.sample()
            metered = now
        with idle("idle.wait"):
            time.sleep(max(0.0, wake - time.perf_counter()))
    return Window(start, end, latencies, late, polls, applied, busy, busy_cpu, backlog_max,
                  meter.slowdown())


def _canonical(store) -> Dict:
    """Stored results without timings or solver telemetry."""
    return {
        (row.entity_key, row.specification_hash): (
            row.result.valid,
            row.result.complete,
            repr(sorted(row.result.resolved_tuple.items())),
            repr(sorted(row.result.true_values.values.items())),
            row.result.failure,
            row.result.attempts,
        )
        for row in store.results()
    }


def check(follower: Follower, expected_events: int) -> Tuple[List[str], RegistryState]:
    """The cursor is at the feed's end and the store equals a batch re-run."""
    problems = []
    position = follower.consumer.position
    if position != expected_events or follower.producer.last_sequence() != expected_events:
        problems.append(f"cursor at {position}, feed at {follower.producer.last_sequence()}, "
                        f"expected {expected_events}")
    dataset = follower.dataset
    state = RegistryState(dataset.schema, dataset.currency_constraints, dataset.cfds)
    for record in follower.producer.events():
        state.apply(record.event)
    batch = MemoryResultStore()
    with ResolutionClient(RunConfig(options=OPTIONS, workers=CHECK_WORKERS, store=batch)) as client:
        for _ in client.resolve_stream(state.specification(entity) for entity in state.entities()):
            pass
    live = _canonical(follower.client.store)
    if live != _canonical(batch):
        differing = sorted({key[0] for key in set(live) ^ set(_canonical(batch))})
        problems.append(f"store differs from a batch re-resolution (entities {differing[:5]} ...)")
    return problems, state


def accuracy(follower: Follower, state: RegistryState) -> Tuple[float, int]:
    """F-measure of the stored deduced values and the quarantined count."""
    counts = AccuracyCounts()
    failed = 0
    truth = {entity.name: entity.true_values for entity in follower.dataset.entities}
    for row in follower.client.store.results():
        result = row.result
        failed += 1 if result.failure else 0
        entity = GeneratedEntity(row.entity_key, state.rows[row.entity_key], truth[row.entity_key])
        counts = counts.merge(score_entity(entity, follower.dataset.schema, result.resolved_tuple,
                                           claimed_attributes=result.deduced_attributes))
    return counts.f_measure, failed


def run(ctx: common.RunContext) -> common.Outcome:
    players = SHORT_PLAYERS if ctx.short else PLAYERS
    count = max(1, int(RATE * ctx.seconds))
    outcome = common.Outcome()
    if ctx.trace:
        return _traced(ctx, players, count, outcome)

    begin = time.perf_counter()
    follower = start(ctx.workdir / "follow", ctx.seed, players)
    setup = time.perf_counter() - begin
    try:
        events = change_events(follower.dataset, count, ctx.seed)
        window = follow(follower, events, arrivals(count, ctx.seconds, ctx.seed))
        rss = common.peak_rss_mb()
        outcome.problems, state = check(follower, follower.bootstrap_events + count)
        f_measure, outcome.failed = accuracy(follower, state)
    finally:
        follower.close()
    outcome.attempted = count
    outcome.metrics = {
        # The arrival schedule sets the wall rate; the follower's own speed
        # shows in the events it applies per CPU second spent polling (CPU
        # time, because a shared host's steal stretches wall time), scaled to
        # the reference host speed.  Latency is not scaled: it is mostly the
        # wait for the next poll, which host speed does not stretch.
        "throughput_per_s": window.applied / window.busy_cpu * window.slowdown,
        "latency_p50_ms": common.percentile(window.latencies, 0.50) * 1000.0,
        "latency_p95_ms": common.percentile(window.latencies, 0.95) * 1000.0,
        # Not scaled: snippet samples around the one long set-up did not
        # track it (ten-run spread 0.455 scaled against 0.171 unscaled).
        "setup_s": setup,
        "peak_rss_mb": rss,
        "f_measure": f_measure,
    }
    outcome.load = _load(follower, players, count, window)
    return outcome


def _load(follower: Follower, players: int, count: int, window: Window) -> Dict[str, Any]:
    return {
        "dataset": "nba",
        "loop": "open",
        "threads": 1,
        "players": players,
        "bootstrap_events": follower.bootstrap_events,
        "bootstrap_consume_s": follower.bootstrap_consume_s,
        "offered_rate_per_s": RATE,
        "change_events": count,
        "polls": window.polls,
        "poll_busy_s": window.busy,
        "poll_busy_cpu_s": window.busy_cpu,
        "slowdown": window.slowdown,
        "unscaled_throughput_per_s": window.applied / window.busy_cpu,
        "applied_per_wall_s": window.applied / (window.end - window.start),
        "feed": "jsonl",
        "store": "sqlite",
        "encoder_cache": 256,
        "generator_late_p95_ms": common.percentile(window.late, 0.95) * 1000.0,
        "generator_late_max_ms": max(window.late) * 1000.0 if window.late else 0.0,
    }


def _count_decodes(tracer) -> List[int]:
    """Count the feed records the program decodes, until ``tracer.restore()``.

    ``JsonlChangeFeed`` decodes each line it reads with the feed module's
    ``_decode_envelope``; the returned one-item list holds the running count.
    """
    import repro.cdc.feed as feed_module

    count = [0]
    original = feed_module._decode_envelope

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    tracer.patch(feed_module, "_decode_envelope", counted)
    return count


def _traced(ctx: common.RunContext, players: int, count: int,
            outcome: common.Outcome) -> common.Outcome:
    """Per-layer split of the timed part.

    ``trace.overhead`` compares the bootstrap consume (a fixed closed batch
    of events) of an untraced set-up with that of a traced one; the timed
    part then runs on the traced follower.
    """
    tracer = ctx.tracer
    assert tracer is not None
    plain = start(ctx.workdir / "plain", ctx.seed, players)
    plain.close()
    common.install_layers(tracer)
    decoded = _count_decodes(tracer)
    profiling.enable(True)
    try:
        follower = start(ctx.workdir / "follow", ctx.seed, players)
        try:
            events = change_events(follower.dataset, count, ctx.seed)
            engine_before = common.engine_counters(follower.client.engine.statistics)
            store_before = follower.client.store.statistics()
            solver_before = common.solver_phases()
            decoded_before = decoded[0]
            mark = time.perf_counter()
            window = follow(follower, events, arrivals(count, ctx.seconds, ctx.seed), tracer)
            decoded_in_window = decoded[0] - decoded_before
            solver_after = common.solver_phases()
            engine_after = common.engine_counters(follower.client.engine.statistics)
            store_after = follower.client.store.statistics()
        finally:
            profiling.enable(False)
            tracer.restore()
        outcome.problems, state = check(follower, follower.bootstrap_events + count)
        _f, outcome.failed = accuracy(follower, state)
    finally:
        follower.close()
    outcome.attempted = count

    summary = summarize(tracer.spans, since=mark)
    metrics = common.zero_per_layer()
    metrics.update(common.layer_metrics(summary))
    metrics.update(common.solver_metrics(solver_before, solver_after))
    metrics.update(common.split_metrics(summary, window.end - mark))
    metrics.update(common.engine_metrics(engine_before, engine_after))
    hits = store_after["hits"] - store_before["hits"]
    lookups = hits + store_after["misses"] - store_before["misses"]
    metrics.update({
        "store.hit_ratio": hits / lookups if lookups else 0.0,
        "cdc.records_read_per_applied": decoded_in_window / window.applied if window.applied else 0.0,
        "cdc.backlog_max": float(window.backlog_max),
        "bench.generator_late_ms": common.percentile(window.late, 0.95) * 1000.0,
        "bench.failed_share": outcome.failed / max(1, outcome.attempted),
        "trace.overhead": follower.bootstrap_consume_s / plain.bootstrap_consume_s - 1.0,
    })
    outcome.metrics = metrics
    outcome.load = _load(follower, players, count, window)
    outcome.load.update(
        plain_bootstrap_consume_s=plain.bootstrap_consume_s,
        window_s=window.end - mark,
        min_self_s=summary["min_self"],
    )
    outcome.trace_since = mark
    return outcome
