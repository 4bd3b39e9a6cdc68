"""Tests for the flat clause-arena solver: its pool and its pinned search.

The resolution round reports surface the solver's counters, so the search
itself — not just the verdicts — is part of the recorded output.
``data/cdcl_search.json`` pins it on a fixed corpus: ~100 interleaved
add-clause/assumption-solve scenarios, near-threshold random 3-CNFs that force
restarts and learned-clause database reduction, pigeonhole formulas and the
Φ(S_e) of a few Person and NBA entities (validity solve plus refutation
probes).  For every solve it records the verdict, the model, decisions,
conflicts, propagations and restarts, and per scenario the cumulative
counters; the replay below must match exactly.
"""

import json
from pathlib import Path

import pytest

from repro.core import SolverError
from repro.solvers import CNF, ArenaSolver
from repro.solvers.arena import acquire_solver, release_solver

PINNED_SEARCH = json.loads((Path(__file__).parent / "data" / "cdcl_search.json").read_text())


class TestBasics:
    def test_zero_assumption_rejected(self):
        with pytest.raises(SolverError):
            ArenaSolver(CNF([[1]])).solve(assumptions=[0])

    def test_reusable_across_assumption_calls(self):
        solver = ArenaSolver(CNF([[1, 2], [-1, 2]]))
        assert solver.solve(assumptions=[-2]).satisfiable is False
        assert solver.solve(assumptions=[2]).satisfiable is True
        assert solver.solve().satisfiable is True


class TestSolverPool:
    def test_acquire_release_recycles(self):
        solver = acquire_solver()
        solver.add_clause([1])
        assert solver.solve().satisfiable
        release_solver(solver)
        recycled = acquire_solver()
        try:
            # Pool membership is LIFO; whether we got the same object back or
            # a fresh one, the state must be clean.
            assert recycled.num_problem_clauses == 0
            assert recycled.solve().satisfiable
        finally:
            release_solver(recycled)

    def test_reset_drops_unsat_state(self):
        solver = ArenaSolver(CNF([[1], [-1]]))
        assert not solver.solve().satisfiable
        solver.reset()
        solver.add_clause([1])
        assert solver.solve().satisfiable


# -- the pinned search ---------------------------------------------------------


def _record(result):
    model = None
    if result.model is not None:
        model = "".join("1" if result.model[v] else "0" for v in sorted(result.model))
    return {
        "satisfiable": result.satisfiable,
        "model": model,
        "decisions": result.decisions,
        "conflicts": result.conflicts,
        "propagations": result.propagations,
        "restarts": result.restarts,
    }


def _totals(solver):
    return {
        "solve_calls": solver.solve_calls,
        "decisions": solver.total_decisions,
        "conflicts": solver.total_conflicts,
        "propagations": solver.total_propagations,
        "restarts": solver.total_restarts,
        "learned_clauses": solver.num_learned_clauses,
        "db_reductions": solver.db_reductions,
        "clauses_deleted": solver.clauses_deleted,
    }


@pytest.mark.parametrize(
    "scenario", PINNED_SEARCH["scenarios"], ids=lambda scenario: scenario["name"]
)
def test_arena_replays_pinned_search(scenario):
    """Same clause/solve sequence → same verdicts, models and counters.

    The replay runs twice on one solver with a :meth:`ArenaSolver.reset` in
    between, so a pooled (recycled) solver must search exactly like a fresh one.
    """
    solver = ArenaSolver()
    for _ in range(2):
        solver.ensure_variables(scenario["num_variables"])
        if scenario.get("max_learned") is not None:
            # A tiny learned-clause budget drives the search through DB reduction.
            solver._max_learned = scenario["max_learned"]
        for index, step in enumerate(scenario["rounds"]):
            solver.add_clauses(step["clauses"])
            assert _record(solver.solve(step["assumptions"])) == step["expect"], index
        assert _totals(solver) == scenario["totals"]
        solver.reset()

