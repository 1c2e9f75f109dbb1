"""Tests for the plan-quality insight layer.

* the cardinality estimator: AGM-tagged estimates are genuine upper
  bounds on the homomorphism count (property-based), independence
  estimates are sane, empty/ground corner cases;
* EXPLAIN ANALYZE surfaces estimated vs. actual rows with the per-node
  q-error across engines and both kernel paths;
* the per-query-shape :class:`QueryStatsStore`: recording, LRU bound,
  deterministic merge, JSON persistence, and the planner's historical
  kernel preference built on top;
* trace correlation: one ``trace_id`` stitches spans, obslog records,
  and resource accounting together — including across process workers.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.atoms import atom
from repro.core.database import Database
from repro.cqalgs.naive import count_homomorphisms
from repro.engine import Session
from repro.exceptions import ResourceBudgetExceeded
from repro.planner.planner import Planner
from repro.planner.profile import StructuralProfile
from repro.relalg.config import (
    KERNEL_COLUMNAR,
    KERNEL_SQL,
    MODE_AUTO,
    force_kernels,
)
from repro.telemetry.insight import (
    QueryStatsStore,
    STATS_SCHEMA,
    CardinalityEstimate,
    estimate_profile,
    q_error,
)
from repro.telemetry.obslog import QueryLog
from repro.telemetry.resources import ResourceBudget
from repro.telemetry.tracer import Tracer, tracing
from repro.wdpt.wdpt import wdpt_from_nested
from repro.workloads.datasets import company_directory
from repro.workloads.families import FIGURE1_QUERY_TEXT, example2_graph

EXAMPLE2_QUERY = "SELECT ?x ?y ?z ?z2 WHERE " + FIGURE1_QUERY_TEXT

COMMON = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _company_query():
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


# ---------------------------------------------------------------------------
# q_error
# ---------------------------------------------------------------------------
def test_q_error_symmetric_and_clamped():
    assert q_error(100, 10) == q_error(10, 100) == 10.0
    assert q_error(7, 7) == 1.0
    assert q_error(0, 0) == 1.0          # both clamp to 1
    assert q_error(0.25, 1) == 1.0       # sub-1 estimates clamp too


@given(st.floats(0, 1e6), st.floats(0, 1e6))
@COMMON
def test_q_error_always_at_least_one(a, b):
    assert q_error(a, b) >= 1.0
    assert q_error(a, b) == q_error(b, a)


# ---------------------------------------------------------------------------
# The estimator
# ---------------------------------------------------------------------------
@st.composite
def db_and_atoms(draw):
    rng = random.Random(draw(st.integers(0, 10**6)))
    n = draw(st.integers(1, 7))
    predicates = ["r", "s", "t"]
    facts = [
        atom(rng.choice(predicates), rng.randrange(n), rng.randrange(n))
        for _ in range(draw(st.integers(1, 30)))
    ]
    variables = ["?a", "?b", "?c", "?d"]
    atoms = [
        atom(rng.choice(predicates), rng.choice(variables), rng.choice(variables))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return Database(facts), atoms


@given(db_and_atoms())
@COMMON
def test_agm_estimates_are_upper_bounds(pair):
    """method == "agm" is a *guarantee*: the estimate dominates the true
    homomorphism count (the AGM bound, Atserias–Grohe–Marx)."""
    db, atoms = pair
    estimate = estimate_profile(StructuralProfile(atoms), db)
    assert isinstance(estimate, CardinalityEstimate)
    assert estimate.estimated_rows >= 0
    if estimate.method == "agm":
        actual = count_homomorphisms(atoms, db)
        # 1e-9 relative slack for float pow round-off only.
        assert estimate.estimated_rows * (1 + 1e-9) >= actual


def test_estimator_exact_on_a_single_atom():
    db = Database([atom("E", 1, 2), atom("E", 2, 3), atom("F", 1, 1)])
    estimate = estimate_profile(StructuralProfile([atom("E", "?x", "?y")]), db)
    assert estimate.relation_rows == (2,)
    assert estimate.estimated_rows == 2.0
    assert estimate.method == "agm"   # a single atom covers itself


def test_estimator_trivial_and_empty_relation_cases():
    db = Database([atom("E", 1, 2)])
    trivial = estimate_profile(StructuralProfile([]), db)
    assert trivial.method == "trivial" and trivial.estimated_rows == 1.0
    empty = estimate_profile(StructuralProfile([atom("nope", "?x", "?y")]), db)
    assert empty.estimated_rows == 0.0


def test_estimates_memoized_per_data_version():
    db = Database([atom("E", 1, 2), atom("E", 2, 3)])
    planner = Planner()
    profile = planner.profile_cq_atoms = StructuralProfile([atom("E", "?x", "?y")])
    first = planner.estimate_for_profile(profile, db)
    assert planner.estimate_for_profile(profile, db) is first  # cache hit
    db.add(atom("E", 3, 4))  # bumps data_version
    second = planner.estimate_for_profile(profile, db)
    assert second is not first
    assert second.estimated_rows == 3.0


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE: estimated vs. actual rows, all kernels and engines
# ---------------------------------------------------------------------------
def _assert_estimates_in_report(report):
    assert all(row.get("est_rows") is not None for row in report.rows)
    assert all(
        row["q_error"] >= 1.0
        for row in report.rows
        if row.get("q_error") is not None
    )
    text = str(report)
    assert "est rows" in text and "q-err" in text
    summary = report.q_error_summary()
    assert summary["count"] >= 1
    assert summary["max"] >= summary["p95"] >= summary["p50"] >= 1.0


@pytest.mark.parametrize("kernel", [KERNEL_COLUMNAR])
def test_analyze_shows_estimates_under_forced_kernels(kernel):
    with force_kernels(kernel):
        session = Session(example2_graph())
        report = session.analyze(EXAMPLE2_QUERY)
    _assert_estimates_in_report(report)
    assert any(row.get("kernel") == kernel for row in report.rows)


def test_analyze_shows_estimates_on_the_sql_pushdown_path():
    session = Session(example2_graph(), backend="sqlite")
    with force_kernels(MODE_AUTO):  # the only mode that picks the pushdown
        report = session.analyze(EXAMPLE2_QUERY)
    _assert_estimates_in_report(report)
    assert any(row.get("kernel") == KERNEL_SQL for row in report.rows)


def test_analyze_shows_estimates_across_modes():
    session = Session(company_directory(
        n_departments=3, employees_per_department=4, seed=1
    ))
    p = _company_query()
    _assert_estimates_in_report(session.analyze(p))
    _assert_estimates_in_report(session.analyze(p, maximal=True))
    h = max(session.query(p).answers, key=lambda m: (len(m), repr(m)))
    dp_report = session.analyze(p, candidate=h)
    assert all(row.get("est_rows") is not None for row in dp_report.rows)


def test_agm_rows_dominate_measured_candidates():
    """Where analyze tags a node "agm", the estimate upper-bounds the
    measured candidate count (candidates are path-CQ homomorphisms)."""
    session = Session(example2_graph())
    report = session.analyze(EXAMPLE2_QUERY)
    agm_rows = [r for r in report.rows if r.get("est_method") == "agm"]
    assert agm_rows, "expected at least one AGM-tagged node"
    for row in agm_rows:
        assert row["est_rows"] * (1 + 1e-9) >= row["candidates"]


def test_misestimate_event_fires_above_threshold():
    log = QueryLog(slow_threshold=0.0, misestimate_threshold=0.5)
    with Session(example2_graph(), obslog=log) as session:
        session.query(EXAMPLE2_QUERY)
    (record,) = log.events("misestimate.detected")
    assert record["max_q_error"] > 0.5
    assert record["est_method"] in ("agm", "independence", "trivial")
    assert record["actual_rows"] >= 0 and record["est_rows"] >= 0
    assert record["trace_id"]


# ---------------------------------------------------------------------------
# QueryStatsStore
# ---------------------------------------------------------------------------
def test_stats_store_records_and_snapshots():
    store = QueryStatsStore()
    store.record("q1", wall_seconds=0.5, rows=10, engine="yannakakis",
                 kernel="columnar", cache_hit=False, max_q_error=2.0)
    store.record("q1", wall_seconds=0.1, rows=10, cache_hit=True)
    entry = store.snapshot("q1")
    assert entry["executions"] == 2
    assert entry["wall_seconds"] == pytest.approx(0.6)
    assert entry["max_wall_seconds"] == 0.5
    assert entry["rows"] == 20 and entry["last_rows"] == 10
    assert entry["cache_hits"] == 1 and entry["cache_misses"] == 1
    assert entry["engines"] == {"yannakakis": 1}
    assert entry["kernels"]["columnar"]["count"] == 1
    assert entry["q_error"] == {"count": 1, "total": 2.0, "max": 2.0, "last": 2.0}
    assert store.snapshot("missing") is None


def test_stats_store_is_lru_bounded():
    store = QueryStatsStore(maxsize=2)
    for qid in ("a", "b", "c"):
        store.record(qid)
    assert len(store) == 2
    assert store.snapshot("a") is None and store.snapshot("c") is not None
    with pytest.raises(ValueError):
        QueryStatsStore(maxsize=0)


def test_stats_store_merge_equals_direct_recording():
    direct, left, right = QueryStatsStore(), QueryStatsStore(), QueryStatsStore()
    samples = [
        ("q1", 0.2, 4, "yannakakis", "columnar"),
        ("q1", 0.3, 4, "yannakakis", "sql"),
        ("q2", 0.1, 1, "naive", None),
    ]
    for i, (qid, wall, rows, engine, kernel) in enumerate(samples):
        direct.record(qid, wall_seconds=wall, rows=rows, engine=engine,
                      kernel=kernel)
        (left if i % 2 == 0 else right).record(
            qid, wall_seconds=wall, rows=rows, engine=engine, kernel=kernel
        )
    merged = QueryStatsStore()
    merged.merge_dump(left.dump())
    merged.merge_dump(right.dump())
    for qid in ("q1", "q2"):
        d, m = direct.snapshot(qid), merged.snapshot(qid)
        for key in ("executions", "wall_seconds", "rows", "engines", "kernels"):
            assert d[key] == m[key], key


def test_stats_store_rejects_foreign_schema():
    store = QueryStatsStore()
    with pytest.raises(ValueError):
        store.merge_dump({"schema": STATS_SCHEMA + 1, "queries": {}})


def test_stats_store_persists_and_reloads(tmp_path):
    store = QueryStatsStore()
    store.record("q1", wall_seconds=0.25, rows=3, kernel="columnar",
                 max_q_error=4.0)
    path = str(tmp_path / "stats.json")
    store.save(path)
    reloaded = QueryStatsStore.load(path)
    assert reloaded.dump() == store.dump()
    assert reloaded.dump()["schema"] == STATS_SCHEMA


def test_session_feeds_the_stats_store():
    store = QueryStatsStore()
    with Session(example2_graph(), stats_store=store) as session:
        session.query(EXAMPLE2_QUERY)
        session.query(EXAMPLE2_QUERY)
    (query_id,) = store.dump()["queries"].keys()
    entry = store.snapshot(query_id)
    assert entry["executions"] == 2
    assert entry["cache_hits"] == 1 and entry["cache_misses"] == 1
    assert entry["rows"] > 0
    assert sum(k["count"] for k in entry["kernels"].values()) >= 1


# ---------------------------------------------------------------------------
# Trace correlation
# ---------------------------------------------------------------------------
def _walk(spans):
    for span in spans:
        yield span
        for child in _walk(span.children):
            yield child


def test_single_query_shares_one_trace_id_everywhere():
    log = QueryLog()
    with Session(example2_graph(), obslog=log, track_resources=True) as session:
        result = session.query(EXAMPLE2_QUERY)
    trace_ids = {r["trace_id"] for r in log.recent()}
    assert len(trace_ids) == 1
    assert result.resources.trace_id == trace_ids.pop()


def test_budget_kill_carries_the_trace_id():
    log = QueryLog()
    budget = ResourceBudget(hard_intermediate_rows=1)
    with Session(
        company_directory(n_departments=3, employees_per_department=4, seed=1),
        obslog=log, budgets=budget,
    ) as session:
        with pytest.raises(ResourceBudgetExceeded) as info:
            session.query(_company_query())
    assert info.value.trace_id
    assert "[trace %s]" % info.value.trace_id in str(info.value)
    assert any(r["trace_id"] == info.value.trace_id for r in log.recent())


def test_thread_batch_stitches_under_one_trace_id():
    log = QueryLog()
    with Session(example2_graph(), obslog=log) as session:
        with tracing(Tracer()) as tracer:
            session.run_batch([EXAMPLE2_QUERY] * 3, jobs=2)
    batch_ids = {r["trace_id"] for r in log.events("batch.start")}
    assert len(batch_ids) == 1
    trace_id = batch_ids.pop()
    assert all(r["trace_id"] == trace_id for r in log.events("query.complete"))
    batch_spans = [s for s in _walk(tracer.roots) if s.name == "parallel.run_batch"]
    assert batch_spans and batch_spans[0].attrs["trace_id"] == trace_id


def test_process_batch_stitches_under_one_trace_id():
    """The acceptance scenario: a query fanned across *process* workers
    produces spans and obslog events that share one trace_id."""
    log = QueryLog()
    db = company_directory(n_departments=2, employees_per_department=4, seed=1)
    with Session(db, obslog=log, cache=False) as session:
        with tracing(Tracer()) as tracer:
            session.run_batch([_company_query()] * 3, jobs=2, executor="process")
    trace_ids = {r["trace_id"] for r in log.recent()}
    assert len(trace_ids) == 1, "all events (incl. worker-side) share the trace"
    trace_id = trace_ids.pop()
    # Worker-side query lifecycle events made it back into the parent log.
    completes = log.events("query.complete")
    assert len(completes) == 3
    assert all(r.get("worker", "").startswith("p") for r in completes)
    # Worker spans were grafted under the parent's run_batch span.
    spans = list(_walk(tracer.roots))
    batch_span = next(s for s in spans if s.name == "parallel.run_batch")
    assert batch_span.attrs["trace_id"] == trace_id
    task_spans = [s for s in spans if s.name == "parallel.task"]
    assert len(task_spans) == 3
    assert all(s.attrs["trace_id"] == trace_id for s in task_spans)
    assert {s.attrs["index"] for s in task_spans} == {0, 1, 2}
    assert all(s.attrs["worker"].startswith("p") for s in task_spans)


def test_process_batch_merges_worker_stats_store():
    store = QueryStatsStore()
    db = company_directory(n_departments=2, employees_per_department=4, seed=1)
    with Session(db, stats_store=store, cache=False) as session:
        session.run_batch([_company_query()] * 4, jobs=2, executor="process")
    (query_id,) = store.dump()["queries"].keys()
    assert store.snapshot(query_id)["executions"] == 4
