"""``batch-interactive``: the calls ``repro resolve`` makes, with a simulated user.

Closed loop, offline.  Set-up writes seeded Person entities to a CSV file and
a rules file and warms an in-process engine.  Each timed pass then does
what the ``resolve`` command does: ``read_entity_rows`` and
``load_constraint_file``, one specification per entity,
``ResolutionClient.resolve_stream`` into a fresh SQLite result store, and
``write_resolved_tuples``.  A simulated user (``ReluctantOracle``) answers at
most two suggestion rounds per entity.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench import common
from perfbench.tracer import summarize

from repro import profiling
from repro.api import ResolutionClient, RunConfig
from repro.core.cfd import ConstantCFD
from repro.core.instance import TemporalInstance
from repro.core.specification import Specification
from repro.datasets import PersonConfig, generate_person_dataset
from repro.datasets.base import GeneratedEntity
from repro.evaluation.interaction import ReluctantOracle
from repro.evaluation.metrics import AccuracyCounts, score_entity
from repro.io import dump_constraints, load_constraint_file, read_entity_rows, write_resolved_tuples
from repro.io.csv_io import parse_cell
from repro.resolution.framework import ConflictResolver, ResolverOptions
from repro.serving.host import EngineHost

ENTITIES = 400
SHORT_ENTITIES = 12
#: Engine processes of the timed passes: the engine runs in this process
#: (``repro resolve --workers 1``).  With a pool of two, three busy processes
#: shared the 2 vCPUs and throughput moved with where the host placed them:
#: a mid-run shift of the host sped it up 30% while the single-process
#: workloads moved 10%.
WORKERS = 1
#: Pool processes of the traced run's pool pass (``EngineStatistics``).
POOL_WORKERS = 2
#: Suggestion rounds the simulated user answers per entity.
USER_ROUNDS = 2
#: Entities re-resolved by a sequential ConflictResolver as the reference.
SAMPLE = 6
#: Set-ups per run; ``setup_s`` is their median.  A set-up takes about
#: 0.15 s, so a run makes enough of them for a steady median.
SETUPS = 11
#: The speed meter samples the host once per this many entities of a pass.
METER_EVERY = 10

OPTIONS = ResolverOptions(max_rounds=USER_ROUNDS, fallback="none")


def _typed(value: Any) -> Any:
    """The value a CSV round trip gives back (``'212'`` is read as ``212``)."""
    return parse_cell(value) if isinstance(value, str) else value


@dataclass
class Inputs:
    csv: Path
    rules: Path
    #: Ground truth per entity key, in the types the CSV reader produces.
    truth: Dict[str, GeneratedEntity]


def make_inputs(directory: Path, seed: int, entities: int) -> Inputs:
    """Write the seeded Person CSV and rules file; return their truth."""
    directory.mkdir(parents=True, exist_ok=True)
    dataset = generate_person_dataset(PersonConfig(num_entities=entities, seed=seed))
    truth = {
        entity.name: GeneratedEntity(
            entity.name,
            [{k: _typed(v) for k, v in row.items()} for row in entity.rows],
            {k: _typed(v) for k, v in entity.true_values.items()},
        )
        for entity in dataset.entities
    }
    columns = list(dataset.schema.attribute_names)
    data = directory / "people.csv"
    with data.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        for entity in truth.values():
            for row in entity.rows:
                writer.writerow({k: "" if v is None else v for k, v in row.items()})
    # CFD constants must carry the CSV's types, or the rules never match.
    gamma = [
        ConstantCFD({a: _typed(v) for a, v in cfd.lhs}, cfd.rhs_attribute, _typed(cfd.rhs_value), cfd.name)
        for cfd in dataset.cfds
    ]
    rules = directory / "rules.txt"
    rules.write_text(dump_constraints(dataset.currency_constraints, gamma))
    return Inputs(data, rules, truth)


class UserFactory:
    """The simulated user of one entity (answers from the generator's truth)."""

    def __init__(self, truth: Dict[str, GeneratedEntity]) -> None:
        self.truth = truth

    def __call__(self, key: str, _spec: Specification) -> ReluctantOracle:
        return ReluctantOracle(self.truth[key], USER_ROUNDS)


@dataclass
class PassResult:
    wall: float
    #: CPU seconds of this process and of the engine's pool processes, if any.
    cpu: float
    keys: List[str]
    results: List[Any]
    latencies: List[float]
    written: List[str]
    store_stats: Dict[str, int]
    schema: Any
    #: Host slowdown during the pass (1.0 when no meter ran).
    slowdown: float = 1.0


def run_pass(inputs: Inputs, host: EngineHost, directory: Path, index: int,
             workers: int, tracer=None, meter: Optional[common.SpeedMeter] = None) -> PassResult:
    """One ``repro resolve`` over the inputs; times it end to end.

    A *meter* samples the host's speed between entities, before an entity
    is pulled, so the samples fall outside every entity's latency; their CPU
    time is left out of the pass's.
    """
    span = tracer.span if tracer is not None else (lambda *_a, **_k: contextlib.nullcontext())
    store = directory / f"store-{index}.db"
    output = directory / f"resolved-{index}.csv"
    for stale in (store, output):
        if stale.exists():
            stale.unlink()
    pulled: Dict[str, float] = {}
    results: List[Any] = []
    latencies: List[float] = []
    cpu_before = common.tree_cpu()
    start = time.perf_counter()
    with span("io.read_rows"):
        schema, instances = read_entity_rows(inputs.csv, "name")
    with span("io.read_rules"):
        sigma, gamma = load_constraint_file(inputs.rules)
    with span("io.build_specs"):
        ordered = [
            (key, Specification(TemporalInstance(instances[key]), sigma, gamma, name=key))
            for key in sorted(instances)
        ]

    def entities():
        for position, (key, spec) in enumerate(ordered):
            if meter is not None and position % METER_EVERY == 0:
                meter.sample()
            pulled[key] = time.perf_counter()
            yield key, spec

    config = RunConfig(options=OPTIONS, workers=workers, store=str(store))
    with ResolutionClient(config, host=host) as client:
        for result in client.resolve_stream(entities(), oracle_factory=UserFactory(inputs.truth)):
            latencies.append(time.perf_counter() - pulled.get(result.name, start))
            results.append(result)
        store_stats = client.store.statistics()
    keys = [key for key, _ in ordered]
    with span("io.write"):
        write_resolved_tuples(
            output,
            schema,
            {key: result.resolved_tuple for key, result in zip(keys, results)},
            extra_columns={
                "__complete__": {key: r.complete for key, r in zip(keys, results)},
                "__rounds__": {key: r.interaction_rounds for key, r in zip(keys, results)},
            },
        )
    wall = time.perf_counter() - start
    cpu = common.cpu_between(cpu_before, common.tree_cpu()) - (meter.cpu_s if meter else 0.0)
    with output.open(newline="") as handle:
        written = [row["__entity__"] for row in csv.DictReader(handle)]
    return PassResult(wall, cpu, keys, results, latencies, written, store_stats, schema,
                      meter.slowdown() if meter else 1.0)


def check_pass(run: PassResult, inputs: Inputs) -> List[str]:
    """Every entity answered once, in input order, and written once."""
    problems = []
    names = [result.name for result in run.results]
    if names != run.keys:
        problems.append(f"results out of order or missing: {len(names)} results for {len(run.keys)} entities")
    if run.written != run.keys:
        problems.append("written CSV does not hold one row per entity in key order")
    if sorted(run.keys) != sorted(inputs.truth):
        problems.append("CSV round trip lost or invented entities")
    return problems


def check_sample(run: PassResult, inputs: Inputs, seed: int, size: int) -> List[str]:
    """A seeded sample must match a sequential in-process ConflictResolver."""
    problems = []
    _schema, instances = read_entity_rows(inputs.csv, "name")
    sigma, gamma = load_constraint_file(inputs.rules)
    resolver = ConflictResolver(OPTIONS)
    by_key = dict(zip(run.keys, run.results))
    for key in random.Random(seed).sample(run.keys, min(size, len(run.keys))):
        spec = Specification(TemporalInstance(instances[key]), sigma, gamma, name=key)
        expected = resolver.resolve(spec, ReluctantOracle(inputs.truth[key], USER_ROUNDS))
        if common.canonical_result(by_key[key]) != common.canonical_result(expected):
            problems.append(f"entity {key} differs from the sequential resolver")
    return problems


def accuracy(run: PassResult, inputs: Inputs) -> Tuple[float, float]:
    """(f-measure of deduced values, user answers per entity) of one pass."""
    counts = AccuracyCounts()
    answers = 0
    for key, result in zip(run.keys, run.results):
        counts = counts.merge(
            score_entity(inputs.truth[key], run.schema, result.resolved_tuple,
                         claimed_attributes=result.deduced_attributes)
        )
        answers += sum(len(round_report.answers) for round_report in result.rounds)
    return counts.f_measure, answers / max(1, len(run.keys))


def setup(directory: Path, seed: int, entities: int,
          workers: int = WORKERS) -> Tuple[Inputs, EngineHost, float]:
    """Generate the inputs and start a warm engine; return the seconds."""
    start = time.perf_counter()
    inputs = make_inputs(directory, seed, entities)
    host = EngineHost()
    host.lease(OPTIONS, workers=workers).release()
    seconds = time.perf_counter() - start
    # Every run starts its timed part from the same collector state.
    gc.collect()
    return inputs, host, seconds


def run(ctx: common.RunContext) -> common.Outcome:
    entities = SHORT_ENTITIES if ctx.short else ENTITIES
    outcome = common.Outcome()
    outcome.load = {
        "dataset": "person",
        "entities": entities,
        "workers": WORKERS,
        "user_rounds": USER_ROUNDS,
        "loop": "closed",
        "sample": SAMPLE,
    }
    if ctx.trace:
        return _traced(ctx, entities, outcome)

    setups: List[float] = []
    setup_meter = common.SpeedMeter()
    host = None
    for attempt in range(1 if ctx.short else SETUPS):
        if host is not None:
            host.close()
        directory = ctx.workdir / f"setup-{attempt}"
        if directory.exists():
            shutil.rmtree(directory)
        inputs, host, seconds = setup(directory, ctx.seed, entities)
        setups.append(seconds)
        setup_meter.sample(common.SETUP_SAMPLES)
    assert host is not None
    passes: List[PassResult] = []
    try:
        begin = time.perf_counter()
        while True:
            passes.append(run_pass(inputs, host, directory, len(passes), WORKERS, meter=common.SpeedMeter()))
            elapsed = time.perf_counter() - begin
            typical = common.median([p.wall for p in passes])
            if ctx.short or elapsed + typical > ctx.seconds:
                break
    finally:
        host.close()
    rss = common.peak_rss_mb()

    first = passes[0]
    for run_result in passes:
        outcome.problems += check_pass(run_result, inputs)
        outcome.attempted += len(run_result.keys)
        outcome.failed += sum(1 for r in run_result.results if getattr(r, "failure", ""))
        if [common.canonical_result(r) for r in run_result.results] != [
            common.canonical_result(r) for r in first.results
        ]:
            outcome.problems.append("passes over the same input disagree")
    outcome.problems += check_sample(first, inputs, ctx.seed, SAMPLE)
    f_measure, _answers = accuracy(first, inputs)
    # Medians over passes, so one pass stalled by CPU steal on a shared host
    # does not set the run's figures.  Throughput counts entities per CPU
    # second: a shared host's steal stretches wall time, not CPU time.  Both
    # are scaled to the reference host speed by each pass's slowdown; the
    # raw figures and the wall rate stay in the record.
    raw = {
        "throughput_per_s": [len(p.keys) / p.cpu for p in passes],
        "latency_p50_ms": [common.percentile(p.latencies, 0.50) * 1000.0 for p in passes],
        "latency_p95_ms": [common.percentile(p.latencies, 0.95) * 1000.0 for p in passes],
    }
    slowdowns = [p.slowdown for p in passes]
    outcome.metrics = {
        "throughput_per_s": common.median([v * f for v, f in zip(raw["throughput_per_s"], slowdowns)]),
        "latency_p50_ms": common.median([v / f for v, f in zip(raw["latency_p50_ms"], slowdowns)]),
        "latency_p95_ms": common.median([v / f for v, f in zip(raw["latency_p95_ms"], slowdowns)]),
        "setup_s": common.median(setups) / setup_meter.slowdown(),
        "peak_rss_mb": rss,
        "f_measure": f_measure,
    }
    outcome.load.update(
        passes=len(passes),
        pass_walls_s=[p.wall for p in passes],
        pass_cpu_s=[p.cpu for p in passes],
        pass_slowdowns=slowdowns,
        unscaled={name: common.median(values) for name, values in raw.items()},
        setup_slowdown=setup_meter.slowdown(),
        unscaled_setup_s=common.median(setups),
        entities_per_wall_s=common.median([len(p.keys) / p.wall for p in passes]),
        setups_s=setups,
        latency_samples=sum(len(p.latencies) for p in passes),
    )
    return outcome


def _traced(ctx: common.RunContext, entities: int, outcome: common.Outcome) -> common.Outcome:
    """Per-layer split.

    The traced pass runs in-process (``workers=1``), as the timed passes do.
    Its overhead is measured directly: the same pass runs untraced first on
    the same warm in-process engine, and ``trace.overhead`` is traced wall /
    untraced wall - 1.  The pool's busy/idle split comes from
    ``EngineStatistics`` of one untraced ``workers=2`` pass; pool workers
    are separate processes, which the wrappers do not reach.
    """
    directory = ctx.workdir / "setup-0"
    inputs, host, _seconds = setup(directory, ctx.seed, entities, POOL_WORKERS)
    try:
        lease = host.lease(OPTIONS, workers=POOL_WORKERS)
        before = common.engine_counters(lease.engine.statistics)
        pool_pass = run_pass(inputs, host, directory, 0, POOL_WORKERS)
        after = common.engine_counters(lease.engine.statistics)
        lease.release()
    finally:
        host.close()
    inproc = EngineHost()
    tracer = ctx.tracer
    assert tracer is not None
    try:
        reference = run_pass(inputs, inproc, directory, 1, 1)
        common.install_layers(tracer)
        profiling.enable(True)
        solver_before = common.solver_phases()
        mark = time.perf_counter()
        traced = run_pass(inputs, inproc, directory, 2, 1, tracer)
        solver_after = common.solver_phases()
    finally:
        profiling.enable(False)
        tracer.restore()
        inproc.close()

    for run_result in (pool_pass, reference, traced):
        outcome.problems += check_pass(run_result, inputs)
        outcome.attempted += len(run_result.keys)
        outcome.failed += sum(1 for r in run_result.results if getattr(r, "failure", ""))
    if [common.canonical_result(r) for r in traced.results] != [
        common.canonical_result(r) for r in pool_pass.results
    ]:
        outcome.problems.append("traced in-process pass disagrees with the pool pass")
    outcome.problems += check_sample(traced, inputs, ctx.seed, SAMPLE)

    summary = summarize(tracer.spans, since=mark)
    metrics = common.zero_per_layer()
    metrics.update(common.layer_metrics(summary))
    metrics.update(common.solver_metrics(solver_before, solver_after))
    metrics.update(common.split_metrics(summary, traced.wall))
    metrics.update(common.engine_metrics(before, after))
    _f, answers = accuracy(traced, inputs)
    lookups = traced.store_stats.get("hits", 0) + traced.store_stats.get("misses", 0)
    metrics.update({
        "resolution.answers_per_entity": answers,
        "store.hit_ratio": traced.store_stats.get("hits", 0) / lookups if lookups else 0.0,
        "trace.overhead": traced.wall / reference.wall - 1.0,
        "bench.failed_share": outcome.failed / max(1, outcome.attempted),
    })
    outcome.metrics = metrics
    outcome.load.update(
        traced_wall_s=traced.wall,
        untraced_inprocess_wall_s=reference.wall,
        pool_workers=POOL_WORKERS,
        pool_pass_wall_s=pool_pass.wall,
        min_self_s=summary["min_self"],
        spans=len(tracer.spans),
    )
    outcome.trace_since = mark
    return outcome
