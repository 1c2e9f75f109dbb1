"""ABLATION — per-node CQ backends and streaming vs materialized answers.

Design choices DESIGN.md calls out, measured:

1. the Theorem 6/8 algorithms run their per-node CQ checks as the
   backtracking search (no planner: the ``naive`` series) or routed
   through a ``planner=`` (the ``auto`` series).  On the small
   node labels typical of WDPTs, backtracking wins by constant factors —
   the LOGCFL-grade engines only pay off on pathological node CQs, which
   we exhibit with a wide acyclic node;
2. streaming enumeration vs materializing ``q(D)`` when only a few
   answers are needed.
"""

import pytest

from repro.benchharness import (
    Series,
    format_planner_stats,
    format_series_table,
    stage_breakdown,
    time_callable,
)
from repro.core.atoms import Atom, atom
from repro.core.cq import ConjunctiveQuery
from repro.core.database import Database
from repro.core.mappings import Mapping
from repro.cqalgs.enumeration import enumerate_answers
from repro.cqalgs.naive import evaluate_naive
from repro.planner import Planner
from repro.wdpt.partial_eval import partial_eval
from repro.wdpt.wdpt import wdpt_from_nested
from repro.workloads.datasets import company_directory

pytestmark = pytest.mark.paper_artifact("Ablations (backends, streaming)")


def _query():
    return wdpt_from_nested(
        (
            [atom("works_in", "?e", "?d")],
            [([atom("phone", "?e", "?p")], []), ([atom("office", "?e", "?o")], [])],
        ),
        free_variables=["?e", "?d", "?p", "?o"],
    )


def test_backend_ablation_on_typical_nodes():
    query = _query()
    planner = Planner()
    naive = Series("partial-eval, naive backend")
    auto = Series("partial-eval, auto backend")
    h = Mapping({"?e": "emp_0_0"})
    for employees in (8, 16, 32):
        db = company_directory(n_departments=4, employees_per_department=employees, seed=2)
        naive.add(employees, time_callable(lambda: partial_eval(query, db, h), repeats=3))
        auto.add(
            employees,
            time_callable(
                lambda: partial_eval(query, db, h, planner=planner),
                repeats=3,
            ),
        )
        assert partial_eval(query, db, h) == partial_eval(
            query, db, h, planner=planner
        )
    stages = stage_breakdown(
        lambda: partial_eval(query, db, h, planner=planner)
    )
    print()
    print(
        format_series_table(
            [naive, auto],
            parameter_name="employees/dept",
            cache_hit_rates={auto.name: planner.cache_hit_rate()},
            stage_seconds={auto.name: stages},
        )
    )
    print(format_planner_stats(planner.stats(), title="planner (auto backend)"))
    # One analysis of the query shape served every auto call.
    assert planner.cache_hit_rate() > 0
    # Both are flat; on tiny node CQs the constant factor favours naive.
    for s in (naive, auto):
        slope = s.loglog_slope()
        assert slope is None or slope < 1.5


def test_streaming_vs_materialization():
    """First-answer latency: enumeration returns the first tuple of a big
    cartesian product immediately; the set engine pays for everything."""
    db = Database(
        [Atom("A", (i,)) for i in range(60)] + [Atom("B", (i,)) for i in range(60)]
    )
    q = ConjunctiveQuery(["?x", "?y"], [atom("A", "?x"), atom("B", "?y")])

    def first_streamed():
        return next(iter(enumerate_answers(q, db)))

    def first_materialized():
        return sorted(evaluate_naive(q, db), key=repr)[0]

    streamed = time_callable(first_streamed, repeats=3)
    materialized = time_callable(first_materialized, repeats=3)
    print("\nABLATION: first answer — streamed %.2gms vs materialized %.2gms"
          % (streamed * 1e3, materialized * 1e3))
    assert streamed * 5 < materialized


def test_tree_vs_compositional_semantics():
    """Pattern-tree evaluation vs the compositional Pérez et al. semantics
    (both correct on well-designed patterns; the tree evaluator's
    product decomposition avoids materializing intermediate joins)."""
    from repro.rdf.algebra_eval import evaluate_pattern
    from repro.rdf.parser import parse_pattern
    from repro.rdf.translate import pattern_to_wdpt
    from repro.wdpt.evaluation import evaluate
    from repro.workloads.datasets import social_network

    pattern = parse_pattern(
        "((?a, knows, ?b) OPT (?b, age, ?x)) OPT (?b, city, ?y)"
    )
    tree = pattern_to_wdpt(pattern)
    tree_series = Series("pattern-tree evaluator")
    comp_series = Series("compositional ⟦·⟧")
    for people in (20, 40, 80):
        graph = social_network(n_people=people, avg_degree=4, seed=5)
        db = graph.to_database()
        assert evaluate(tree, db) == evaluate_pattern(pattern, graph)
        tree_series.add(people, time_callable(lambda: evaluate(tree, db), repeats=2))
        comp_series.add(
            people, time_callable(lambda: evaluate_pattern(pattern, graph), repeats=2)
        )
    print()
    print(format_series_table([tree_series, comp_series], parameter_name="people"))
    # Same answers; the tree evaluator must not be asymptotically worse.
    assert (tree_series.loglog_slope() or 0) <= (comp_series.loglog_slope() or 0) + 0.5


def test_bench_streamed_first_answer(benchmark):
    db = Database(
        [Atom("A", (i,)) for i in range(60)] + [Atom("B", (i,)) for i in range(60)]
    )
    q = ConjunctiveQuery(["?x", "?y"], [atom("A", "?x"), atom("B", "?y")])
    answer = benchmark(lambda: next(iter(enumerate_answers(q, db))))
    assert len(answer) == 2


def test_bench_partial_eval_auto(benchmark):
    query = _query()
    db = company_directory(n_departments=4, employees_per_department=16, seed=2)
    planner = Planner()
    assert benchmark(
        lambda: partial_eval(query, db, Mapping({"?e": "emp_0_0"}), planner=planner)
    )
