"""COR2 — Corollary 2: fixed-parameter tractability via optimize-then-
evaluate.

For ``p ∈ M(WB(k))`` the paper's pipeline pays ``f(|p|)`` once to build a
``WB(k)`` substitute and then answers PARTIAL/MAX-EVAL in
``O(|D|^c · 2^{t(|p|)})``.  We reproduce the claim: as the database grows,
(one-off optimization + cheap queries on the witness) beats querying the
original tree, and the per-query cost on the witness scales polynomially.
"""

import importlib

import pytest

from repro.benchharness import Series, format_series_table, time_callable
from repro.core.atoms import atom
from repro.core.mappings import Mapping
from repro.cqalgs.naive import satisfiable
from repro.wdpt.approximation import find_wb_equivalent
from repro.wdpt.classes import WB_TW, is_in_wb
from repro.wdpt.max_eval import max_eval
from repro.wdpt.partial_eval import partial_eval
from repro.wdpt.wdpt import wdpt_from_nested
from repro.workloads.datasets import company_directory

pytestmark = pytest.mark.paper_artifact("Corollary 2 (FPT via M(WB(k)))")


def _member_tree():
    """In M(WB(1)) only via pruning: the query drags a cyclic existential
    pattern in a free-variable-less branch."""
    return wdpt_from_nested(
        (
            [atom("works_in", "?e", "?d")],
            [
                ([atom("phone", "?e", "?p")], []),
                (
                    [
                        atom("reports_to", "?u", "?v"),
                        atom("reports_to", "?v", "?w"),
                        atom("reports_to", "?w", "?u"),
                        atom("works_in", "?u", "?d"),
                    ],
                    [],
                ),
            ],
        ),
        free_variables=["?e", "?d", "?p"],
    )


def test_witness_exists_and_is_tractable():
    p = _member_tree()
    assert not is_in_wb(p, 1, WB_TW)
    witness = find_wb_equivalent(p, 1, WB_TW)
    assert witness is not None and is_in_wb(witness, 1, WB_TW)
    print("\nCOR2: witness tree has %d nodes (original %d)" % (len(witness.tree), len(p.tree)))


def test_fpt_pipeline_scales_in_data(monkeypatch):
    searched = []

    def counted(atoms, db, h):
        searched.append(atoms)
        return satisfiable(atoms, db, h)

    # The package re-exports the function under the module's name.  A
    # planner-less check of a compiled program is this search.
    module = importlib.import_module("repro.wdpt.partial_eval")
    monkeypatch.setattr(module, "satisfiable", counted)
    p = _member_tree()
    witness = find_wb_equivalent(p, 1, WB_TW)
    assert witness is not None
    direct = Series("PARTIAL-EVAL on p")
    optimized = Series("PARTIAL-EVAL on WB(1) witness")
    for employees in (4, 8, 16, 32):
        db = company_directory(n_departments=4, employees_per_department=employees, seed=9)
        h = Mapping({"?e": "emp_0_0"})
        searched.clear()
        assert partial_eval(p, db, h) == partial_eval(witness, db, h)
        direct_atoms, witness_atoms = searched
        # The witness never touches the cyclic branch: per query it searches
        # no more atoms than the original, and none of that branch.
        assert len(witness_atoms) <= len(direct_atoms)
        assert not any(a.relation == "reports_to" for a in witness_atoms)
        direct.add(4 * employees, time_callable(lambda: partial_eval(p, db, h), repeats=3))
        optimized.add(
            4 * employees, time_callable(lambda: partial_eval(witness, db, h), repeats=3)
        )
    print()
    print(format_series_table([direct, optimized], parameter_name="employees"))
    slope = optimized.loglog_slope()
    assert slope is not None and slope < 2.0


def test_max_eval_on_witness_agrees():
    p = _member_tree()
    witness = find_wb_equivalent(p, 1, WB_TW)
    db = company_directory(n_departments=2, employees_per_department=4, seed=9)
    from repro.wdpt.evaluation import evaluate_max

    assert evaluate_max(p, db) == evaluate_max(witness, db)
    some = sorted(evaluate_max(p, db), key=repr)[0]
    assert max_eval(witness, db, some)


def test_bench_optimization_phase(benchmark):
    p = _member_tree()
    witness = benchmark(lambda: find_wb_equivalent(p, 1, WB_TW))
    assert witness is not None


def test_bench_query_phase_on_witness(benchmark):
    p = _member_tree()
    witness = find_wb_equivalent(p, 1, WB_TW)
    db = company_directory(n_departments=4, employees_per_department=16, seed=9)
    assert benchmark(lambda: partial_eval(witness, db, Mapping({"?e": "emp_0_0"})))
