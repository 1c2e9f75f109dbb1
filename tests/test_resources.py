"""Tests for per-query resource accounting: monitors, budgets, the
engine accounting hooks, and the disabled-path overhead gate."""

import time

import pytest

from repro.core.atoms import atom
from repro.engine import Session
from repro.exceptions import ResourceBudgetExceeded
from repro.planner.planner import Planner
from repro.telemetry import resources
from repro.telemetry.resources import (
    ResourceBudget,
    ResourceMonitor,
    account_rows,
    account_subquery,
    current_monitor,
)
from repro.wdpt.eval_tractable import eval_tractable
from repro.wdpt.evaluation import evaluate
from repro.wdpt.wdpt import wdpt_from_nested
from repro.workloads.datasets import company_directory
from repro.workloads.families import FIGURE1_QUERY_TEXT, example2_graph

EXAMPLE2_QUERY = "SELECT ?x ?y ?z ?z2 WHERE " + FIGURE1_QUERY_TEXT


# ---------------------------------------------------------------------------
# Monitor mechanics
# ---------------------------------------------------------------------------
def test_accounting_is_noop_without_monitor():
    assert current_monitor() is None
    account_rows(10 ** 9)  # must not raise, must not allocate a monitor
    account_subquery()
    assert current_monitor() is None


def test_monitor_records_peaks_and_clocks():
    with ResourceMonitor() as monitor:
        assert current_monitor() is monitor
        account_rows(10)
        account_rows(3)  # peak keeps the max
        account_subquery(2)
    assert current_monitor() is None
    usage = monitor.usage
    assert usage.peak_intermediate_rows == 10
    assert usage.subqueries == 2
    assert usage.wall_seconds > 0 and usage.cpu_seconds >= 0
    assert usage.peak_memory_bytes is None  # memory tracing off by default
    d = usage.as_dict()
    assert d["peak_intermediate_rows"] == 10 and d["subqueries"] == 2


def test_monitors_nest():
    with ResourceMonitor() as outer:
        account_rows(5)
        with ResourceMonitor() as inner:
            account_rows(7)
        assert current_monitor() is outer
        account_rows(6)
    assert inner.usage.peak_intermediate_rows == 7
    assert outer.usage.peak_intermediate_rows == 6


def test_open_windows_survive_racing_threads():
    """Eight threads open and close monitors with a short switch interval
    while others account without one: every window is recorded open and
    closed (the hooks skip the context only while none is open), every monitor
    counts exactly its own thread's hooks, and none leaks into another."""
    import sys
    import threading

    per_thread, errors = 300, []

    def monitored():
        try:
            for _ in range(per_thread):
                with ResourceMonitor() as monitor:
                    account_subquery()
                    account_rows(3)
                assert monitor.usage.subqueries == 1
                assert monitor.usage.peak_intermediate_rows == 3
        except Exception as exc:  # reported below, not swallowed
            errors.append(exc)

    def unmonitored():
        try:
            for _ in range(per_thread):
                account_subquery()
                account_rows(10 ** 9)
                assert current_monitor() is None
        except Exception as exc:  # reported below, not swallowed
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=monitored) for _ in range(6)]
        threads += [threading.Thread(target=unmonitored) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)
    assert not resources._open_windows


def test_memory_tracing_reports_peak():
    with ResourceMonitor(trace_memory=True) as monitor:
        blob = [list(range(1000)) for _ in range(50)]
    assert monitor.usage.peak_memory_bytes > 0
    assert blob  # keep alive through the window


# ---------------------------------------------------------------------------
# Budgets
# ---------------------------------------------------------------------------
class FakeClock:
    """Stands in for the ``time`` module the monitor reads its clocks
    from: both clocks move only when the test calls :meth:`sleep`."""

    def __init__(self):
        self.now = 1000.0

    def perf_counter(self):
        return self.now

    process_time = perf_counter

    def sleep(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(resources, "time", fake)
    return fake


def test_hard_rows_budget_raises_in_flight():
    budget = ResourceBudget(hard_intermediate_rows=100)
    with pytest.raises(ResourceBudgetExceeded) as info:
        with ResourceMonitor(budget):
            account_rows(101)
            pytest.fail("account_rows must abort immediately")
    assert info.value.dimension == "intermediate-rows"
    assert info.value.limit == 100 and info.value.observed == 101
    assert current_monitor() is None  # monitor uninstalled despite the raise


def test_hard_wall_budget_enforced_at_accounting_points(clock):
    budget = ResourceBudget(hard_wall_seconds=0.01)
    with pytest.raises(ResourceBudgetExceeded) as info:
        with ResourceMonitor(budget):
            clock.sleep(0.02)
            account_rows(1)
    assert info.value.dimension == "wall-seconds"


def test_hard_wall_budget_enforced_post_hoc(clock):
    budget = ResourceBudget(hard_wall_seconds=0.01)
    with pytest.raises(ResourceBudgetExceeded):
        with ResourceMonitor(budget):
            clock.sleep(0.02)  # no accounting point: caught on exit


def test_soft_budgets_record_violations_without_raising(clock):
    budget = ResourceBudget(soft_wall_seconds=0.0, soft_intermediate_rows=1)
    with ResourceMonitor(budget) as monitor:
        account_rows(5)
        clock.sleep(0.001)
    violations = monitor.usage.soft_violations
    assert any("wall-seconds" in v for v in violations)
    assert any("intermediate-rows" in v for v in violations)


def test_post_hoc_checks_skipped_when_already_raising(clock):
    budget = ResourceBudget(hard_wall_seconds=0.0)
    with pytest.raises(KeyError):  # the original error, not the budget one
        with ResourceMonitor(budget):
            clock.sleep(0.001)
            raise KeyError("original")


# ---------------------------------------------------------------------------
# Session wiring
# ---------------------------------------------------------------------------
def test_session_tracks_resources_on_results():
    session = Session(example2_graph(), track_resources=True)
    result = session.query(EXAMPLE2_QUERY)
    assert result.resources is not None
    assert result.resources.peak_intermediate_rows > 0
    assert result.resources.wall_seconds > 0
    # Maximal-semantics evaluation is tracked too.
    assert session.query_maximal(EXAMPLE2_QUERY).resources is not None


def test_session_without_tracking_attaches_nothing():
    session = Session(example2_graph())
    assert session.query(EXAMPLE2_QUERY).resources is None


def test_session_hard_budget_aborts_query():
    budget = ResourceBudget(hard_intermediate_rows=0)
    session = Session(example2_graph(), budgets=budget)
    with pytest.raises(ResourceBudgetExceeded):
        session.query(EXAMPLE2_QUERY)


DECISION_OPS = ("ask", "is_partial", "is_maximal")


@pytest.mark.parametrize("op", DECISION_OPS)
def test_session_hard_budget_aborts_and_logs_every_decision_op(op):
    """``budgets=`` and ``obslog=`` cover the three decision entry points
    the way they cover ``query``: killed, and the kill is on the log."""
    from repro.telemetry.obslog import QueryLog

    answer = max(Session(example2_graph()).query(EXAMPLE2_QUERY).answers, key=len)
    log = QueryLog()
    session = Session(
        example2_graph(), obslog=log, budgets=ResourceBudget(hard_wall_seconds=0.0)
    )
    with pytest.raises(ResourceBudgetExceeded):
        getattr(session, op)(EXAMPLE2_QUERY, answer)
    assert [e["op"] for e in log.events("query.start")] == [op]
    assert [e["op"] for e in log.events("query.error")] == [op]
    assert not log.events("query.complete")


@pytest.mark.parametrize("op", DECISION_OPS)
def test_session_decision_ops_are_logged_and_cached_by_data_version(op):
    from repro.telemetry.obslog import OP_ENGINES, QueryLog

    log = QueryLog()
    session = Session(example2_graph(), obslog=log, track_resources=True)
    answer = max(session.query(EXAMPLE2_QUERY).answers, key=len)
    decide = getattr(session, op)
    assert decide(EXAMPLE2_QUERY, answer) is True
    assert decide(EXAMPLE2_QUERY, answer) is True  # unchanged data: a hit
    session.add(atom("triple", "Our_love", "NME_rating", "7"))
    assert decide(EXAMPLE2_QUERY, answer) is True  # a write that reaches the query: a miss
    mine = [e for e in log.recent() if e.get("op") == op]
    assert [e["outcome"] for e in mine if e["event"] == "query.cache"] == [
        "miss", "hit", "miss",
    ]
    completes = [e for e in mine if e["event"] == "query.complete"]
    assert len(completes) == 3 and all(e["rows"] == 1 for e in completes)
    assert all("resources" in e for e in completes)
    (plan,) = {
        (e["engine"], e["theorem"]) for e in mine if e["event"] == "query.plan"
    }
    profile = session.explain(EXAMPLE2_QUERY)
    route = profile.eval_route() if op == "ask" else profile.partial_eval_route()
    assert plan == (OP_ENGINES[op], route)
    assert len({e["query_id"] for e in completes}) == 1


def test_session_soft_budget_logged_as_event():
    from repro.telemetry.obslog import QueryLog

    log = QueryLog()
    budget = ResourceBudget(soft_intermediate_rows=0)
    session = Session(example2_graph(), obslog=log, budgets=budget)
    result = session.query(EXAMPLE2_QUERY)
    assert result.resources.soft_violations
    (event,) = log.events("query.budget")
    assert any("intermediate-rows" in v for v in event["violations"])


def test_dp_subqueries_are_counted():
    query = wdpt_from_nested(
        (
            [atom("works_in", "?e", "?d")],
            [([atom("phone", "?e", "?p")], [])],
        ),
        free_variables=["?e", "?d", "?p"],
    )
    db = company_directory(n_departments=2, employees_per_department=4, seed=1)
    h = max(evaluate(query, db), key=lambda m: (len(m), repr(m)))
    with ResourceMonitor() as monitor:
        assert eval_tractable(query, db, h, planner=Planner())
    assert monitor.usage.subqueries > 0
    assert monitor.usage.peak_intermediate_rows > 0


def test_is_partial_and_is_maximal_count_subqueries():
    session = Session(example2_graph())
    answer = max(session.query(EXAMPLE2_QUERY).answers, key=len)
    with ResourceMonitor() as monitor:
        assert session.is_partial(EXAMPLE2_QUERY, answer)
        assert session.is_maximal(EXAMPLE2_QUERY, answer)
    assert monitor.usage.subqueries >= 2


# ---------------------------------------------------------------------------
# Disabled-path overhead gate (<5%)
# ---------------------------------------------------------------------------
def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_disabled_accounting_overhead_below_5_percent():
    """With no monitor installed, the per-hook cost (one thread-local
    read) must stay under 5% of a real DP workload's runtime."""
    query = wdpt_from_nested(
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
    db = company_directory(n_departments=4, employees_per_department=8, seed=1)
    h = max(evaluate(query, db), key=lambda m: (len(m), repr(m)))
    planner = Planner()
    workload = lambda: eval_tractable(query, db, h, planner=planner)  # noqa: E731

    # Count the accounting hits the workload actually performs.
    with ResourceMonitor() as monitor:
        workload()
    n_hits = monitor.usage.subqueries + 1  # sat checks + candidate sets
    assert n_hits > 1

    workload_seconds = min(_timed(workload) for _ in range(5))

    def disabled_hits():
        for _ in range(n_hits):
            account_rows(1)
            account_subquery()

    assert current_monitor() is None
    disabled_seconds = min(_timed(disabled_hits) for _ in range(5))
    assert disabled_seconds < 0.05 * workload_seconds, (
        "disabled accounting took %.3gs for %d hits vs %.3gs workload"
        % (disabled_seconds, n_hits, workload_seconds)
    )
