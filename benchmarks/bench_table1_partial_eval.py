"""T1-PEVAL — Table 1, row P-EVAL: NP in general, LOGCFL under g-C(k).

The decisive contrast of Section 3.3: on Proposition 3's instances (which
are ``g-TW(1)``), *exact* evaluation solves 3-colorability while *partial*
evaluation stays polynomial — the Theorem 8 algorithm only checks one
substituted subtree CQ.  A second sweep shows PARTIAL-EVAL scaling
polynomially in database size on realistic optional-matching queries.
"""

import pytest

from repro.benchharness import (
    Series,
    format_planner_stats,
    format_series_table,
    stage_breakdown,
    time_callable,
)
from repro.core.atoms import atom
from repro.core.mappings import Mapping
from repro.planner import Planner
from repro.wdpt.eval_tractable import eval_tractable
from repro.wdpt.partial_eval import partial_eval
from repro.wdpt.wdpt import wdpt_from_nested
from repro.workloads.datasets import company_directory
from repro.workloads.families import three_colorability_instance

pytestmark = pytest.mark.paper_artifact("Table 1, row P-EVAL")


def _hard_graph(n):
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, (i + 2) % n) for i in range(n)]
    return edges


def test_partial_easy_exact_hard_on_same_instances():
    """Same g-TW(1) inputs: EVAL explodes with query size, PARTIAL-EVAL
    doesn't (Theorem 8 vs Proposition 3)."""
    exact = Series("EVAL (exact)")
    partial = Series("PARTIAL-EVAL (Thm 8)")
    for n in (4, 5, 6, 7):
        db, p, h = three_colorability_instance(n, _hard_graph(n))
        exact.add(n, time_callable(lambda: eval_tractable(p, db, h), repeats=1))
        partial.add(n, time_callable(lambda: partial_eval(p, db, h), repeats=3))
    print()
    print(format_series_table([exact, partial], parameter_name="graph vertices"))
    assert exact.seconds()[-1] > partial.seconds()[-1] * 10, "partial must be far cheaper"
    assert (exact.growth_ratio() or 1) > (partial.growth_ratio() or 1)


def _company_query():
    return wdpt_from_nested(
        (
            [atom("works_in", "?e", "?d")],
            [
                ([atom("phone", "?e", "?p")], []),
                ([atom("reports_to", "?e", "?m")],
                 [([atom("phone", "?m", "?mp")], [])]),
            ],
        ),
        free_variables=["?e", "?d", "?p", "?m", "?mp"],
    )


def test_partial_eval_polynomial_in_data():
    query = _company_query()
    planner = Planner()
    series = Series("PARTIAL-EVAL")
    auto_series = Series("PARTIAL-EVAL (auto, planned)")
    for employees in (8, 16, 32, 64):
        db = company_directory(n_departments=4, employees_per_department=employees, seed=3)
        h = Mapping({"?e": "emp_0_0"})
        series.add(4 * employees, time_callable(lambda: partial_eval(query, db, h), repeats=3))
        auto_series.add(
            4 * employees,
            time_callable(
                lambda: partial_eval(query, db, h, planner=planner),
                repeats=3,
            ),
        )
    stages = stage_breakdown(
        lambda: partial_eval(query, db, h, planner=planner)
    )
    print()
    print(
        format_series_table(
            [series, auto_series],
            parameter_name="employees",
            cache_hit_rates={auto_series.name: planner.cache_hit_rate()},
            stage_seconds={auto_series.name: stages},
        )
    )
    print(format_planner_stats(planner.stats(), title="planner (auto runs)"))
    # The planner analysed the query shape once and reused it (acceptance:
    # auto is no slower than a cold analysis per call would be, and the
    # cache-hit rate is reported and non-zero).
    assert planner.cache_hit_rate() > 0
    assert planner.stats()["subtree_profiles"]["hits"] > 0
    slope = series.loglog_slope()
    assert slope is not None and slope < 2.0


def test_bench_partial_eval(benchmark):
    query = _company_query()
    db = company_directory(n_departments=4, employees_per_department=16, seed=3)
    assert benchmark(lambda: partial_eval(query, db, Mapping({"?e": "emp_0_0"})))


def test_bench_partial_eval_structured_backend(benchmark):
    query = _company_query()
    db = company_directory(n_departments=4, employees_per_department=16, seed=3)
    planner = Planner()
    assert benchmark(
        lambda: partial_eval(query, db, Mapping({"?e": "emp_0_0"}), planner=planner)
    )
