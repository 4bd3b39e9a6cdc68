"""CLI fault-tolerance flags: validation, budgets and quarantine surfacing."""

import csv
import json

import pytest

from repro.cli import main

from tests.conftest import EDITH_ROWS, GEORGE_ROWS


@pytest.fixture
def people_csv(tmp_path):
    path = tmp_path / "people.csv"
    fieldnames = ["name", "status", "job", "kids", "city", "AC", "zip", "county"]
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for row in EDITH_ROWS + GEORGE_ROWS:
            writer.writerow(
                {key: "" if value is None else value for key, value in row.items()}
            )
    return path


class TestUsageErrors:
    @pytest.mark.parametrize("command", ["resolve", "pipeline"])
    def test_zero_max_attempts_rejected(self, command, people_csv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [command, str(people_csv), "--entity-key", "name",
                 "--max-attempts", "0"]
            )
        assert excinfo.value.code == 2
        assert "--max-attempts must be >= 1" in capsys.readouterr().err

    # nan would pass a "<= 0" check and silently run without a deadline.
    @pytest.mark.parametrize("value", ["0", "-1.5", "nan", "inf"])
    def test_non_positive_entity_timeout_rejected(self, value, people_csv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["resolve", str(people_csv), "--entity-key", "name",
                 "--entity-timeout", value]
            )
        assert excinfo.value.code == 2
        assert "--entity-timeout must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["resolve", "pipeline"])
    def test_entity_timeout_with_dpll_backend_rejected(self, command, people_csv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [command, str(people_csv), "--entity-key", "name",
                 "--solver-backend", "dpll", "--entity-timeout", "5"]
            )
        assert excinfo.value.code == 2
        assert "the dpll backend does not support solver budgets" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["resolve", "pipeline"])
    def test_negative_max_rounds_rejected(self, command, people_csv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(people_csv), "--entity-key", "name", "--max-rounds", "-1"])
        assert excinfo.value.code == 2
        assert "--max-rounds must be >= 0" in capsys.readouterr().err

    def test_retry_quarantined_requires_a_store(self, people_csv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["resolve", str(people_csv), "--entity-key", "name",
                 "--retry-quarantined"]
            )
        assert excinfo.value.code == 2
        assert "--retry-quarantined requires --store" in capsys.readouterr().err


class TestEntityTimeout:
    def test_impossible_timeout_quarantines_every_entity(
        self, people_csv, tmp_path, capsys
    ):
        # A sub-microsecond wall budget cannot be met; every entity must be
        # reported as budget_exceeded — as data, with exit code 0, not as a
        # crash.
        output = tmp_path / "out.jsonl"
        assert main(
            ["pipeline", str(people_csv), "--entity-key", "name",
             "--output", str(output), "--entity-timeout", "0.0000001", "--quiet"]
        ) == 0
        records = [json.loads(line) for line in output.read_text().splitlines()]
        assert len(records) == 2
        assert all(r["failure"] == "budget_exceeded" for r in records)
        assert all(r["attempts"] == 1 for r in records)

    def test_generous_timeout_changes_nothing(self, people_csv, tmp_path):
        plain = tmp_path / "plain.jsonl"
        timed = tmp_path / "timed.jsonl"
        assert main(
            ["pipeline", str(people_csv), "--entity-key", "name",
             "--output", str(plain), "--quiet"]
        ) == 0
        assert main(
            ["pipeline", str(people_csv), "--entity-key", "name",
             "--output", str(timed), "--entity-timeout", "30", "--quiet"]
        ) == 0
        assert timed.read_bytes() == plain.read_bytes()
