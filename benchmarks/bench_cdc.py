"""Change-data-capture: incremental re-resolution vs full re-run, feed lag.

The CDC subsystem's pitch is that a change feed makes keeping resolved
results *live* cheap: one row arriving should cost one entity's (mostly
warm-encoder) re-resolution, not a batch re-run of the whole registry.
This benchmark puts numbers on that claim:

* **Per-change latency** — a follower consumes a seeded
  :func:`~repro.datasets.mutate_rows` change tail appended after the
  dataset's bootstrap events; the wall-clock per applied event is compared
  against the *full re-run baseline*: resolving every live entity of the
  final registry state from scratch, which is what each change would cost
  without the feed.  The speedup per change is the headline number.  The
  equivalence contract is asserted on every run: the incremental store must
  be semantically identical (timings and solver telemetry excluded) to the
  batch store.
* **Feed lag vs change rate** — a producer appends events between consumer
  polls at a sweep of per-poll rates bracketing the consumer's service
  chunk.  Below the service rate the feed drains to zero lag; above it the
  ``behind`` gauge grows linearly.  The trajectory per rate lands in the
  JSON report, the same numbers ``stats()``' ``cdc`` block exposes in the
  serving cluster.

Both experiments run the ``serve --follow`` configuration: the consumer
follows a JSONL feed opened by path while a separate producer handle appends
to it, so every poll reads the file through the consumer's own handle.  The
lag sweep asserts that the lag read through that handle matches the
producer's.

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI) shrinks the dataset and
the sweep: it proves the append → consume → re-resolve → report path
end-to-end without burning CI minutes.  Standalone::

    REPRO_BENCH_SMOKE=1 PYTHONPATH=src python benchmarks/bench_cdc.py
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence

from _harness import report, report_json
from repro.api import MemoryResultStore, ResolutionClient, RunConfig
from repro.cdc import (
    ChangeConsumer,
    JsonlChangeFeed,
    TupleAdded,
    TupleRetracted,
    feed_status,
)
from repro.cdc.impact import RegistryState
from repro.datasets import NBAConfig, generate_nba_dataset, mutate_rows
from repro.evaluation import format_table
from repro.resolution.framework import ResolverOptions

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Dataset size: enough entities that invalidation selectivity matters.
PLAYERS = 4 if _SMOKE else 10
SEASONS = 2 if _SMOKE else 3
#: Change-tail length for the latency measurement.
CHANGES = 6 if _SMOKE else 40
#: Events the consumer services per poll in the lag experiment.
SERVICE_CHUNK = 4
#: Events appended per poll: one rate below the service chunk, one above.
OFFERED_RATES = (2, 8)
LAG_POLLS = 4 if _SMOKE else 8


def _options() -> ResolverOptions:
    return ResolverOptions(max_rounds=0, fallback="none")


def _config(store) -> RunConfig:
    return RunConfig(options=_options(), store=store)


def _dataset():
    return generate_nba_dataset(
        NBAConfig(num_players=PLAYERS, seasons=SEASONS, seed=7)
    )


def _bootstrap_events(dataset) -> List:
    return [
        TupleAdded(entity=entity.name, row=dict(row))
        for entity in dataset.entities
        for row in entity.rows
    ]


def _change_events(dataset, changes: int, seed: int) -> List:
    events = []
    for mutation in mutate_rows(dataset, changes, seed=seed):
        kind = TupleRetracted if mutation.kind == "retract" else TupleAdded
        events.append(kind(entity=mutation.entity, row=dict(mutation.row)))
    return events


def _canonical(store) -> Dict:
    """Semantic projection: no timings, no solver telemetry (those legitimately
    differ between a warm delta re-encode and a cold batch run)."""
    return {
        (row.entity_key, row.specification_hash): (
            row.result.valid,
            row.result.complete,
            dict(row.result.resolved_tuple),
            dict(row.result.true_values.values),
            row.result.failure,
            row.result.attempts,
        )
        for row in store.results()
    }


@contextlib.contextmanager
def _follow(dataset, store, events):
    """A producer handle and a consumer following one JSONL feed by path.

    This is the ``serve --follow`` configuration: the consumer reads the
    file through its own handle.  The feed starts with *events*.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "feed.jsonl"
        with JsonlChangeFeed(path) as producer, ResolutionClient(
            _config(store)
        ) as client:
            for event in events:
                producer.append(event)
            with ChangeConsumer(
                str(path),
                client,
                dataset.schema,
                sigma=tuple(dataset.currency_constraints),
                gamma=tuple(dataset.cfds),
            ) as consumer:
                yield producer, consumer


def incremental_vs_full(dataset) -> Dict:
    """Consume a change tail incrementally; compare per-event cost against a
    from-scratch batch re-run of the final registry state."""
    sigma = tuple(dataset.currency_constraints)
    gamma = tuple(dataset.cfds)
    bootstrap = _bootstrap_events(dataset)
    changes = _change_events(dataset, CHANGES, seed=13)

    store = MemoryResultStore()
    with _follow(dataset, store, bootstrap) as (producer, consumer):
        consumer.consume()  # warm, not timed
        for event in changes:
            producer.append(event)
        start = time.perf_counter()
        tail = consumer.consume()
        incremental_wall = time.perf_counter() - start
    assert tail.applied == len(changes)
    per_event = incremental_wall / len(changes)

    state = RegistryState(dataset.schema, sigma, gamma)
    for event in bootstrap + changes:
        state.apply(event)
    batch_store = MemoryResultStore()
    with ResolutionClient(_config(batch_store)) as client:
        entities = list(state.entities())
        start = time.perf_counter()
        for entity in entities:
            client.resolve(state.specification(entity))
        full_wall = time.perf_counter() - start

    equivalent = _canonical(store) == _canonical(batch_store)
    return {
        "bootstrap_events": float(len(bootstrap)),
        "change_events": float(len(changes)),
        "live_entities": float(len(entities)),
        "incremental": {
            "wall_seconds": incremental_wall,
            "per_event_ms": per_event * 1000.0,
            "re_resolved": float(tail.re_resolved),
            "delta_reuses": float(tail.delta_reuses),
            "full_encodes": float(tail.full_encodes),
            "invalidated": float(tail.invalidated),
        },
        "full_rerun": {
            "wall_seconds": full_wall,
            "per_change_ms": full_wall * 1000.0,
        },
        "speedup_per_change": full_wall / per_event if per_event > 0 else 0.0,
        "equivalent_to_full_rerun": equivalent,
    }


def lag_sweep(dataset) -> List[Dict]:
    """Append events between polls at rates bracketing the service chunk and
    record the ``behind`` gauge after every poll."""
    bootstrap = _bootstrap_events(dataset)
    runs: List[Dict] = []
    for offered in OFFERED_RATES:
        stream = iter(
            _change_events(dataset, offered * LAG_POLLS, seed=17 + offered)
        )
        with _follow(dataset, MemoryResultStore(), bootstrap) as (producer, consumer):
            consumer.consume()  # drain the bootstrap
            behind: List[int] = []
            start = time.perf_counter()
            applied = 0
            for _ in range(LAG_POLLS):
                for _ in range(offered):
                    producer.append(next(stream))
                applied += consumer.consume(max_events=SERVICE_CHUNK).applied
                lag = consumer.status()["behind"]
                expected = feed_status(producer, consumer.position)["behind"]
                assert lag == expected, (
                    f"consumer handle reads lag {lag}, producer {expected}"
                )
                behind.append(lag)
            wall = time.perf_counter() - start
        runs.append(
            {
                "offered_per_poll": float(offered),
                "service_chunk": float(SERVICE_CHUNK),
                "polls": float(LAG_POLLS),
                "applied": float(applied),
                "behind_after_each_poll": [float(b) for b in behind],
                "final_behind": float(behind[-1]),
                "max_behind": float(max(behind)),
                "consumed_events_per_second": applied / wall if wall > 0 else 0.0,
            }
        )
    return runs


def _render(payload: Dict) -> str:
    latency = payload["latency"]
    rows = [
        [
            "incremental consume",
            latency["incremental"]["wall_seconds"],
            latency["incremental"]["per_event_ms"],
        ],
        [
            "full re-run (per change)",
            latency["full_rerun"]["wall_seconds"],
            latency["full_rerun"]["per_change_ms"],
        ],
    ]
    table = format_table(
        ["strategy", "wall (s)", "per change (ms)"],
        rows,
        title=(
            f"CDC — {payload['dataset']} ({latency['live_entities']:.0f} live"
            f" entities, {latency['change_events']:.0f} changes)"
        ),
    )
    table += (
        f"\nspeedup per change: {latency['speedup_per_change']:.1f}x"
        f"  (delta reuses {latency['incremental']['delta_reuses']:.0f}"
        f" / re-resolved {latency['incremental']['re_resolved']:.0f})"
    )
    for run in payload["lag"]:
        table += (
            f"\nlag @ {run['offered_per_poll']:.0f}/poll offered,"
            f" {run['service_chunk']:.0f}/poll serviced:"
            f" behind {[int(b) for b in run['behind_after_each_poll']]}"
        )
    if not payload["latency"]["equivalent_to_full_rerun"]:  # pragma: no cover
        table += "\nWARNING: incremental store diverged from the full re-run!"
    return table


def run_cdc() -> Dict:
    """Execute the benchmark (honouring smoke mode) and persist its reports."""
    dataset = _dataset()
    payload = {
        "dataset": dataset.name,
        "smoke": _SMOKE,
        "latency": incremental_vs_full(dataset),
        "lag": lag_sweep(dataset),
    }
    report_json("cdc", payload)
    report("cdc", _render(payload))
    return payload


def bench_cdc(benchmark) -> None:
    """Incremental consume vs full re-run on the seeded NBA change tail."""
    payload = run_cdc()
    assert payload["latency"]["equivalent_to_full_rerun"]
    assert payload["latency"]["speedup_per_change"] > 1.0
    dataset = _dataset()
    benchmark(lambda: incremental_vs_full(dataset))


if __name__ == "__main__":
    payload = run_cdc()
    assert payload["latency"]["equivalent_to_full_rerun"], "equivalence violated"
