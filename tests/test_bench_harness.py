"""The benchmark harness keeps smoke runs away from the committed records."""

import importlib.util
import tempfile
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def harness():
    spec = importlib.util.spec_from_file_location("_harness", BENCHMARKS / "_harness.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_smoke_reports_leave_committed_results_untouched(harness, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    before = _snapshot(harness.RESULTS_DIR)
    assert "cdc.json" in before  # a committed record a smoke run would clobber

    path = harness.report_json("cdc", {"smoke": True})
    harness.report("cdc", "smoke table")

    assert _snapshot(harness.RESULTS_DIR) == before
    assert path.parent == tmp_path / "repro-bench-smoke"
    assert path.read_text() == '{\n  "smoke": true\n}\n'
    assert (path.parent / "cdc.txt").read_text() == "smoke table\n"

