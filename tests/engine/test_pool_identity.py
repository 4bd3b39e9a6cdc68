"""Engine pool contract: determinism, sharing, and the failure model.

The engine pool (``RunConfig(workers=N)``) is the one in-process way to
spread entities across CPUs, so it carries the load-bearing guarantee of
*byte-identity*: a parallel run must produce exactly the stream a
sequential run produces — same results, same order — for every worker
count and chunking, every dataset, cold or populated stores, with
interactive rounds, and with a worker killed or an entity poisoned mid-run
(the survivors' results must not move).  Comparisons use a canonical
projection that drops only per-round wall-clock timings, which are the one
nondeterministic field and are excluded from every serialized output
format.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.api import ResolutionClient, RunConfig
from repro.api.store import open_result_store
from repro.evaluation.interaction import ReluctantOracle
from repro.faults import ENV_VAR, FaultPlan
from repro.pipeline.checkpoint import Checkpoint
from repro.serving.host import EngineHost

#: ``(workers, chunk_size)`` pool shapes; ``None`` is adaptive chunking.
POOL_SHAPES = ((2, 1), (2, 2), (3, 1), (3, None))


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    faults.clear()
    yield
    faults.clear()


def canon(result):
    """Everything a result asserts, minus per-round wall-clock timings."""
    return (
        result.name,
        result.valid,
        result.complete,
        dict(result.true_values.values),
        result.resolved_tuple,
        result.fallback_attributes,
        result.user_validated_attributes,
        result.failure,
        result.attempts,
        [
            (
                report.round_index,
                report.valid,
                report.deduced_attributes,
                report.suggestion,
                report.answers,
            )
            for report in result.rounds
        ],
    )


def dataset_pairs(dataset, limit=6):
    """``(key, specification)`` pairs of the dataset's first *limit* entities."""
    return [
        (entity.name, spec)
        for entity, spec in dataset.specifications(limit=limit)
    ]


@pytest.fixture(scope="module")
def shared_host():
    host = EngineHost()
    yield host
    host.close()


@pytest.fixture(scope="module", params=["nba", "career", "person"])
def dataset(request):
    return request.getfixturevalue(f"small_{request.param}_dataset")


@pytest.fixture(scope="module")
def pairs_and_baseline(dataset, shared_host):
    """Per-dataset entity pairs plus the sequential reference stream."""
    pairs = dataset_pairs(dataset)
    with ResolutionClient(RunConfig(), host=shared_host) as client:
        baseline = [canon(result) for result in client.resolve_stream(list(pairs))]
    return pairs, baseline


class TestDeterministicOrderedMerge:
    @pytest.mark.parametrize(
        "workers, chunk_size", POOL_SHAPES, ids=[f"w{w}-c{c}" for w, c in POOL_SHAPES]
    )
    def test_parallel_stream_identical_to_sequential(
        self, pairs_and_baseline, shared_host, workers, chunk_size
    ):
        pairs, baseline = pairs_and_baseline
        config = RunConfig(workers=workers, chunk_size=chunk_size)
        with ResolutionClient(config, host=shared_host) as client:
            merged = [canon(result) for result in client.resolve_stream(list(pairs))]
        assert merged == baseline

    def test_clients_share_one_warm_pool(self, pairs_and_baseline, shared_host):
        pairs, _ = pairs_and_baseline
        config = RunConfig(workers=2, chunk_size=2)
        with ResolutionClient(config, host=shared_host) as client:
            list(client.resolve_stream(list(pairs)))
        with ResolutionClient(config, host=shared_host) as client:
            list(client.resolve_stream(list(pairs)))
            stats = client.stats()
        assert stats.entities == stats.resolved == len(pairs)
        # The second client found the pool warm: one shared pool, not two.
        assert stats.lease["reused"]
        assert stats.lease["build_seconds"] == 0.0
        assert stats.engine["workers"] == 2

    def test_parallel_over_populated_store_skips_engine(
        self, pairs_and_baseline, shared_host
    ):
        pairs, baseline = pairs_and_baseline
        store = open_result_store(":memory:")
        try:
            with ResolutionClient(RunConfig(store=store), host=shared_host) as client:
                list(client.resolve_stream(list(pairs)))
            config = RunConfig(workers=2, chunk_size=1, store=store)
            with ResolutionClient(config, host=shared_host) as client:
                list(client.resolve_stream([]))  # lease the shared pool
                engine_before = client.engine.statistics.entities
                merged = [canon(r) for r in client.resolve_stream(list(pairs))]
                stats = client.stats()
                engine_after = client.engine.statistics.entities
            assert merged == baseline
            # Every entity was a store hit; the pool resolved nothing.
            assert stats.store_hits == len(pairs)
            assert stats.resolved == 0
            assert engine_after == engine_before
        finally:
            store.close()

    def test_interactive_rounds_identical_in_parallel(self, dataset, shared_host):
        entities = {entity.name: entity for entity, _spec in dataset.specifications(limit=4)}
        pairs = dataset_pairs(dataset, limit=4)

        def oracle_factory(key, _spec):
            return ReluctantOracle(entities[key], max_rounds=2)

        def run(config):
            with ResolutionClient(config, host=shared_host) as client:
                return [
                    canon(r)
                    for r in client.resolve_stream(
                        list(pairs), oracle_factory=oracle_factory
                    )
                ]

        sequential = run(RunConfig())
        assert run(RunConfig(workers=2, chunk_size=1)) == sequential

    def test_early_close_leaves_the_pool_usable(self, small_nba_dataset, shared_host):
        pairs = dataset_pairs(small_nba_dataset)
        config = RunConfig(workers=2, chunk_size=1)
        with ResolutionClient(config, host=shared_host) as client:
            stream = client.resolve_stream(list(pairs))
            first = next(stream)
            assert first.name == pairs[0][1].name
            stream.close()  # must abandon the in-flight chunks, not hang
            again = [canon(r) for r in client.resolve_stream(list(pairs))]
        with ResolutionClient(RunConfig(), host=shared_host) as client:
            assert again == [canon(r) for r in client.resolve_stream(list(pairs))]

    def test_input_is_pulled_lazily(self, small_nba_dataset, shared_host):
        pairs = dataset_pairs(small_nba_dataset)
        pulled = []

        def source():
            for pair in pairs:
                pulled.append(pair[0])
                yield pair

        config = RunConfig(workers=2, chunk_size=1, max_inflight_chunks=2)
        with ResolutionClient(config, host=shared_host) as client:
            stream = client.resolve_stream(source())
            next(stream)
            # The bounded in-flight window gates the pull: no full drain.
            assert len(pulled) < len(pairs)
            rest = list(stream)
        assert len(rest) == len(pairs) - 1
        assert pulled == [key for key, _spec in pairs]


class TestPoolFailureModel:
    def test_poisoned_entity_quarantined_survivors_identical(
        self, pairs_and_baseline, shared_host, monkeypatch
    ):
        pairs, baseline = pairs_and_baseline
        poison = pairs[1][1].name
        # The environment reaches the workers of a fresh, client-owned pool.
        monkeypatch.setenv(ENV_VAR, FaultPlan(raise_in_resolver=poison).encode())
        config = RunConfig(workers=2, chunk_size=2)
        with ResolutionClient(config) as client:
            merged = list(client.resolve_stream(list(pairs)))
            stats = client.stats()
        # The merged stream is complete: one result per input, input order.
        assert [r.name for r in merged] == [spec.name for _k, spec in pairs]
        by_name = {c[0]: c for c in baseline}
        for result in merged:
            if result.name == poison:
                assert result.failure == "injected"
                assert not result.valid
            else:
                # Survivors are untouched by the poisoned entity.
                assert canon(result) == by_name[result.name]
        assert stats.quarantined == 1

    def test_killed_worker_recovers_to_identical_stream(
        self, pairs_and_baseline, monkeypatch
    ):
        pairs, baseline = pairs_and_baseline
        monkeypatch.setenv(ENV_VAR, FaultPlan(kill_worker_on_chunk=1).encode())
        config = RunConfig(workers=2, chunk_size=2)
        with ResolutionClient(config) as client:
            merged = [canon(r) for r in client.resolve_stream(list(pairs))]
            stats = client.stats()
        assert merged == baseline
        assert stats.quarantined == 0

    def test_exactly_once_resume_after_quarantine(
        self, small_nba_dataset, shared_host, monkeypatch, tmp_path
    ):
        """A quarantined entity is the *only* one a retrying re-run resolves."""
        pairs = dataset_pairs(small_nba_dataset)
        poison = pairs[2][1].name
        store = open_result_store(":memory:")
        checkpoint = Checkpoint(tmp_path / "resume.json")
        try:
            with ResolutionClient(RunConfig(), host=shared_host) as client:
                baseline = [canon(r) for r in client.resolve_stream(list(pairs))]
            monkeypatch.setenv(ENV_VAR, FaultPlan(raise_in_resolver=poison).encode())
            config = RunConfig(workers=2, chunk_size=2, store=store)
            with ResolutionClient(config) as client:
                first = list(client.resolve_stream(list(pairs)))
                checkpoint.save(
                    len(first),
                    quarantine=[
                        {"entity": r.name, "failure": r.failure}
                        for r in first if r.failure
                    ],
                )
            monkeypatch.delenv(ENV_VAR)
            saved = checkpoint.load()
            assert saved["processed"] == len(pairs)
            assert [q["entity"] for q in saved["quarantine"]] == [poison]
            # The dead letter was stored; only retry_quarantined re-resolves
            # it, and every survivor comes from the store.
            retrying = RunConfig(
                workers=2, chunk_size=2, store=store, retry_quarantined=True
            )
            with ResolutionClient(retrying, host=shared_host) as client:
                second = [canon(r) for r in client.resolve_stream(list(pairs))]
                stats = client.stats()
            assert second == baseline
            assert stats.store_hits == len(pairs) - 1
            assert stats.resolved == 1
        finally:
            store.close()
