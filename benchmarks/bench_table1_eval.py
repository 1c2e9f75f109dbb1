"""T1-EVAL — Table 1, row EVAL: Σ₂ᵖ / NP / NP / LOGCFL.

Three measurements reproduce the row's shape:

1. **Tractable column** (``ℓ-TW(k) ∩ BI(c)``): the Theorem 6 dynamic
   program scales polynomially in the database size on bounded-interface
   trees (low log–log slope).
2. **Hard column** (``g-TW(1)``, Proposition 3): exact EVAL on the
   3-colorability reduction blows up with the query (number of graph
   vertices) even though the data is three facts — the per-step growth
   ratio stays ≫ 1.
3. **Crossover**: on bounded-interface instances the DP beats full
   enumeration as data grows.
"""

import pytest

from repro.benchharness import (
    Series,
    format_series_table,
    stage_breakdown,
    time_callable,
)
from repro.core.mappings import Mapping
from repro.planner import Planner
from repro.wdpt.eval_tractable import eval_tractable
from repro.wdpt.evaluation import eval_check, evaluate
from repro.workloads.datasets import company_directory
from repro.workloads.families import three_colorability_instance
from repro.wdpt.wdpt import wdpt_from_nested
from repro.core.atoms import atom

pytestmark = pytest.mark.paper_artifact("Table 1, row EVAL")


def _bounded_interface_query():
    """ℓ-TW(1) ∩ BI(1): the company query with nested optional branches."""
    return wdpt_from_nested(
        (
            [atom("works_in", "?e", "?d")],
            [
                ([atom("phone", "?e", "?p")], []),
                ([atom("reports_to", "?e", "?m")],
                 [([atom("office", "?m", "?o")], [])]),
            ],
        ),
        free_variables=["?e", "?d", "?p", "?m", "?o"],
    )


def _answer_for(db, query):
    answers = sorted(evaluate(query, db), key=lambda m: (-len(m), repr(m)))
    return answers[0]


def _hard_graph(n):
    """Odd wheel-ish graphs: 3-colorable but with no easy pruning."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, (i + 2) % n) for i in range(n)]
    return edges


def test_tractable_column_polynomial_in_data():
    query = _bounded_interface_query()
    series = Series("EVAL DP (ℓ-TW(1)∩BI(1))")
    for employees in (4, 8, 16, 32):
        db = company_directory(n_departments=4, employees_per_department=employees, seed=1)
        h = _answer_for(db, query)
        series.add(4 * employees, time_callable(lambda: eval_tractable(query, db, h), repeats=3))
    stages = stage_breakdown(
        lambda: eval_tractable(query, db, h, planner=Planner())
    )
    print()
    print(
        format_series_table(
            [series],
            parameter_name="employees",
            stage_seconds={series.name: stages},
        )
    )
    slope = series.loglog_slope()
    assert slope is not None and slope < 2.5, "DP must scale polynomially (got slope %r)" % slope


def test_hard_column_blows_up_with_query():
    series = Series("EVAL (g-TW(1), Prop. 3)")
    for n in (4, 5, 6, 7, 8):
        db, p, h = three_colorability_instance(n, _hard_graph(n))
        series.add(n, time_callable(lambda: eval_tractable(p, db, h), repeats=1))
    print()
    print(format_series_table([series], parameter_name="graph vertices"))
    ratio = series.growth_ratio()
    assert ratio is not None and ratio > 1.5, (
        "exact EVAL under global tractability alone must grow exponentially "
        "(got step ratio %r)" % ratio
    )


def test_crossover_dp_vs_enumeration():
    query = _bounded_interface_query()
    dp = Series("Theorem 6 DP")
    enum = Series("full enumeration")
    for employees in (2, 4, 8):
        db = company_directory(n_departments=3, employees_per_department=employees, seed=2)
        h = _answer_for(db, query)
        dp.add(employees, time_callable(lambda: eval_tractable(query, db, h), repeats=2))
        enum.add(employees, time_callable(lambda: eval_check(query, db, h), repeats=2))
    print()
    print(format_series_table([dp, enum], parameter_name="employees/dept"))
    # Shape: the DP wins at the largest size.
    assert dp.seconds()[-1] <= enum.seconds()[-1] * 1.5


def test_bench_eval_dp(benchmark):
    query = _bounded_interface_query()
    db = company_directory(n_departments=4, employees_per_department=8, seed=1)
    h = _answer_for(db, query)
    assert benchmark(lambda: eval_tractable(query, db, h))


def test_bench_eval_enumeration(benchmark):
    query = _bounded_interface_query()
    db = company_directory(n_departments=4, employees_per_department=8, seed=1)
    h = _answer_for(db, query)
    assert benchmark(lambda: eval_check(query, db, h))
