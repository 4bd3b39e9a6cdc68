"""Crash-resume: a run killed mid-pipeline resumes with exactly-once output.

The crash is injected deterministically (:mod:`repro.faults`): a chosen
entity raises an unannounced hard error inside the resolver, which the
sequential path deliberately propagates — the closest reproducible stand-in
for the process dying.  The resumed run must deliver every entity exactly
once and byte-match a run that never crashed.
"""

import csv
import json

import pytest

from repro import faults
from repro.cli import main
from repro.datasets import stable_key_shard
from repro.faults import ENV_VAR, FaultPlan, InjectedCrash


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    faults.clear()
    yield
    faults.clear()


ENTITIES = [f"e{index:02d}" for index in range(8)]


@pytest.fixture
def entities_csv(tmp_path):
    path = tmp_path / "entities.csv"
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=["name", "status", "city"])
        writer.writeheader()
        for name in ENTITIES:
            writer.writerow({"name": name, "status": "working", "city": "NY"})
            writer.writerow({"name": name, "status": "retired", "city": "LA"})
    return path


def pipeline_args(entities_csv, output, checkpoint):
    return [
        "pipeline",
        str(entities_csv),
        "--entity-key",
        "name",
        "--output",
        str(output),
        "--checkpoint",
        str(checkpoint),
        "--checkpoint-every",
        "2",
        "--quiet",
    ]


def read_entities(path):
    return [json.loads(line)["entity"] for line in path.read_text().splitlines()]


class TestCrashResume:
    def test_resume_after_crash_is_exactly_once(self, entities_csv, tmp_path, monkeypatch):
        output = tmp_path / "out.jsonl"
        checkpoint = tmp_path / "state.json"

        # A run that never crashes — the equivalence anchor.
        reference = tmp_path / "reference.jsonl"
        assert main(pipeline_args(entities_csv, reference, tmp_path / "ref.json")) == 0
        assert read_entities(reference) == ENTITIES

        # First run: the resolver hard-crashes on the sixth entity.
        monkeypatch.setenv(ENV_VAR, FaultPlan(crash_entity="e05").encode())
        with pytest.raises(InjectedCrash):
            main(pipeline_args(entities_csv, output, checkpoint))

        # The checkpoint holds a consistent prefix; the JSONL may run ahead
        # of it (records flush per entity) but never behind.
        from repro.pipeline import Checkpoint

        saved = Checkpoint(checkpoint).load()
        assert saved is not None
        assert 0 < saved["processed"] < len(ENTITIES)
        flushed = read_entities(output)
        assert len(flushed) >= saved["processed"]
        assert flushed == ENTITIES[: len(flushed)]

        # Second run: fault gone, resume from the checkpoint.
        monkeypatch.delenv(ENV_VAR)
        assert main([*pipeline_args(entities_csv, output, checkpoint), "--resume"]) == 0

        # Exactly once, in order, and byte-identical to the uncrashed run.
        assert read_entities(output) == ENTITIES
        assert output.read_bytes() == reference.read_bytes()

    def test_resume_of_completed_run_adds_nothing(self, entities_csv, tmp_path):
        output = tmp_path / "out.jsonl"
        checkpoint = tmp_path / "state.json"
        assert main(pipeline_args(entities_csv, output, checkpoint)) == 0
        first = output.read_bytes()
        assert main([*pipeline_args(entities_csv, output, checkpoint), "--resume"]) == 0
        assert output.read_bytes() == first

    def test_quarantined_entity_lands_in_output_and_checkpoint(
        self, entities_csv, tmp_path, monkeypatch
    ):
        # A *retryable* poison entity must not crash the run at all: it is
        # quarantined in place, the record carries the failure marker, and
        # the checkpoint persists the dead-letter entry.
        output = tmp_path / "out.jsonl"
        checkpoint = tmp_path / "state.json"
        monkeypatch.setenv(ENV_VAR, FaultPlan(raise_in_resolver="e03").encode())
        assert main(pipeline_args(entities_csv, output, checkpoint)) == 0

        records = [json.loads(line) for line in output.read_text().splitlines()]
        assert [r["entity"] for r in records] == ENTITIES
        flagged = [r for r in records if "failure" in r]
        assert [(r["entity"], r["failure"], r["attempts"]) for r in flagged] == [
            ("e03", "injected", 3)
        ]
        # Healthy records keep the exact legacy key set.
        healthy = [r for r in records if "failure" not in r]
        assert all(
            sorted(r) == ["complete", "entity", "resolved", "rounds", "valid"]
            for r in healthy
        )

        from repro.pipeline import Checkpoint

        saved = Checkpoint(checkpoint).load()
        assert saved["processed"] == len(ENTITIES)
        assert [(q["entity"], q["reason"]) for q in saved["quarantine"]] == [
            ("e03", "injected")
        ]

    def test_checkpoint_from_sharded_run_resumes_exactly_once(self, entities_csv, tmp_path):
        # Checkpoints written by the former shard-parallel pipeline carry
        # per-shard merged positions in ``state`` and ``"shard:N"`` dead
        # letters; only ``processed`` drives the resume, so they keep working.
        reference = tmp_path / "reference.jsonl"
        assert main(pipeline_args(entities_csv, reference, tmp_path / "ref.json")) == 0
        lines = reference.read_bytes().splitlines(keepends=True)

        processed = 4
        positions = {"0": 0, "1": 0}
        for name in ENTITIES[:processed]:
            positions[str(stable_key_shard(name, 2))] += 1
        checkpoint = tmp_path / "state.json"
        checkpoint.write_text(json.dumps({
            "processed": processed,
            "quarantine": [{
                "attempts": 3,
                "entity": "shard:1",
                "error": "injected shard failure",
                "reason": "injected",
            }],
            "state": {"shard_positions": positions},
        }, indent=2, sort_keys=True) + "\n")
        # The crashed run's JSONL ran one record ahead of its checkpoint.
        output = tmp_path / "out.jsonl"
        output.write_bytes(b"".join(lines[: processed + 1]))

        assert main([*pipeline_args(entities_csv, output, checkpoint), "--resume"]) == 0
        assert read_entities(output) == ENTITIES
        assert output.read_bytes() == reference.read_bytes()

        from repro.pipeline import Checkpoint

        assert Checkpoint(checkpoint).load()["processed"] == len(ENTITIES)
