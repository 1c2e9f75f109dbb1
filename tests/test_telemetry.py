"""Tests for the telemetry layer: tracer, metrics, exporters, EXPLAIN
ANALYZE, and the zero-cost-when-disabled guarantee."""

import json
import os
import threading
import time

import pytest

from repro.benchharness import stage_breakdown
from repro.core.atoms import atom
from repro.core.terms import Variable
from repro.engine import Session
from repro.planner.planner import Planner
from repro.telemetry.export import (
    aggregate_spans,
    render_stage_breakdown,
    render_trace,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.context import QueryContext, current, scoped
from repro.telemetry.metrics import (
    Histogram,
    MetricsRegistry,
    NodeStatsCollector,
)
from repro.telemetry.tracer import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Tracer,
    current_tracer,
    tracing,
)
from repro.wdpt.eval_tractable import eval_tractable
from repro.wdpt.evaluation import evaluate
from repro.wdpt.wdpt import wdpt_from_nested
from repro.workloads.datasets import company_directory
from repro.workloads.families import FIGURE1_QUERY_TEXT, example2_graph
from tests.harness.oracles import from_chrome_trace

EXAMPLE2_QUERY = "SELECT ?x ?y ?z ?z2 WHERE " + FIGURE1_QUERY_TEXT


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------
def test_span_nesting_and_attributes():
    tracer = Tracer()
    with tracer.span("outer", query="q1") as outer:
        with tracer.span("inner") as inner:
            inner.set(rows=7)
    assert [root.name for root in tracer.roots] == ["outer"]
    assert [child.name for child in outer.children] == ["inner"]
    assert outer.attrs == {"query": "q1"}
    assert inner.attrs == {"rows": 7}
    assert inner.duration <= outer.duration
    assert [span.name for span in tracer.walk()] == ["outer", "inner"]
    assert list(tracer.find("inner")) == [inner]
    assert tracer.total_seconds("outer") == outer.duration


def test_sibling_spans_attach_to_the_same_parent():
    tracer = Tracer()
    with tracer.span("parent"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
    (parent,) = tracer.roots
    assert [c.name for c in parent.children] == ["a", "b"]


def test_tracer_is_thread_safe():
    tracer = Tracer()
    # Every thread waits inside its child span until all four are there,
    # so the four span stacks are provably open at the same time.
    inside = threading.Barrier(4, timeout=10)

    def work(label):
        with tracer.span("thread-%s" % label):
            with tracer.span("child-%s" % label):
                inside.wait()

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not inside.broken  # all four met: no wait timed out
    # Each thread's spans nest on its own stack: 4 roots, each 1 child.
    assert len(tracer.roots) == 4
    assert all(len(root.children) == 1 for root in tracer.roots)


def test_scoped_tracer_and_tracing_restore_previous():
    assert current_tracer() is NULL_TRACER
    with tracing() as tracer:
        assert current_tracer() is tracer
        with tracer.span("inside"):
            pass
    assert current_tracer() is NULL_TRACER
    assert [s.name for s in tracer.walk()] == ["inside"]
    with scoped(current()._replace(tracer=None)) as context:
        assert context.tracer is None and current_tracer() is NULL_TRACER
    assert current() == QueryContext()


def test_null_tracer_records_nothing():
    span = NULL_TRACER.span("anything", big=list(range(10)))
    assert span is NULL_SPAN
    with span as s:
        s.set(more=1)
    assert list(NULL_TRACER.walk()) == []
    assert NULL_TRACER.total_seconds("anything") == 0.0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def test_trace_ids_are_minted_without_a_system_call(monkeypatch):
    """A trace id is a per-process random prefix plus a counter: minting
    one, or observing a query that mints one, calls neither
    ``os.urandom`` nor ``uuid.uuid4`` (a GIL release per observed query
    starves every thread in a timed wait, the sampling profiler's
    included)."""
    import os
    import re
    import uuid

    from repro.telemetry.context import new_trace_id

    session = Session(example2_graph(), track_resources=True, cache=False)

    def refuse(*args):
        raise AssertionError("a trace id made a system call")

    with monkeypatch.context() as patch:
        patch.setattr(os, "urandom", refuse)
        patch.setattr(uuid, "uuid4", refuse)
        ids = [new_trace_id() for _ in range(10_000)]
        observed = session.query(FIGURE1_QUERY_TEXT).resources.trace_id
    ids.append(observed)
    assert len(set(ids)) == len(ids)
    assert all(re.fullmatch("[0-9a-f]{16}", t) for t in ids)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_mints_its_own_trace_ids():
    """Without a fresh prefix after ``fork`` the child would continue its
    parent's sequence: its first id would be the parent's next one."""
    from repro.telemetry.context import new_trace_id

    new_trace_id()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child
        try:
            os.write(write, new_trace_id().encode())
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read) as handle:
        child = handle.read()
    os.waitpid(pid, 0)
    parent = new_trace_id()
    assert len(child) == len(parent) == 16
    assert child != parent
    assert child[:8] != parent[:8]


def test_histogram_quantiles_and_snapshot():
    h = Histogram("t")
    for value in range(1, 101):
        h.observe(float(value))
    assert h.count == 100
    assert h.sum == sum(range(1, 101))
    assert h.max == 100.0
    assert h.quantile(0.0) == 1.0
    assert h.quantile(1.0) == 100.0
    assert h.quantile(0.50) in (50.0, 51.0)
    assert h.quantile(0.95) in (95.0, 96.0)
    snap = h.snapshot()
    assert snap["count"] == 100 and snap["max"] == 100.0
    assert snap["p50"] == h.quantile(0.50) and snap["p95"] == h.quantile(0.95)
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_histogram_reservoir_is_bounded():
    h = Histogram("t", reservoir=10)
    for value in range(1000):
        h.observe(float(value))
    assert h.count == 1000  # exact even though the reservoir is bounded
    assert h.quantile(0.0) == 990.0  # only the most recent 10 retained


def test_registry_get_or_create_and_reset():
    registry = MetricsRegistry()
    registry.counter("a.x").inc()
    registry.counter("a.x").inc(2.5)
    registry.counter("a.y").inc()
    registry.gauge("g").set(7)
    registry.histogram("h").observe(1.0)
    assert registry.counter("a.x").value == 3.5
    assert registry.counters_with_prefix("a.") == {"x": 3.5, "y": 1.0}
    snap = registry.snapshot()
    assert snap["counters"]["a.x"] == 3.5 and snap["gauges"]["g"] == 7.0
    registry.reset()
    assert registry.counter("a.x").value == 0.0
    assert registry.histogram("h").count == 0


def test_node_stats_collector_accumulates_per_key():
    collector = NodeStatsCollector()
    collector.add(0, candidates=2, seconds=0.5)
    collector.add(0, candidates=3)
    collector.add(1, extensions=1)
    assert collector.rows() == {
        0: {"candidates": 5, "seconds": 0.5},
        1: {"extensions": 1},
    }


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------
def _sample_tracer():
    tracer = Tracer()
    with tracer.span("root", kind="demo"):
        with tracer.span("a"):
            with tracer.span("a.1"):
                pass
        with tracer.span("b", rows=3):
            pass
    with tracer.span("root2"):
        pass
    return tracer


def test_chrome_trace_round_trip():
    tracer = _sample_tracer()
    events = to_chrome_trace(tracer)
    assert validate_chrome_trace(events) == []
    rebuilt = from_chrome_trace(events)

    def shape(spans):
        return [(s.name, shape(s.children)) for s in spans]

    assert shape(rebuilt) == shape(tracer.roots)
    # Attributes survive (JSON-coerced).
    (root, _) = rebuilt[0], rebuilt[1]
    assert root.attrs["kind"] == "demo"
    assert root.children[1].attrs["rows"] == 3


def test_chrome_trace_file_and_validator(tmp_path):
    tracer = _sample_tracer()
    path = str(tmp_path / "trace.json")
    count = write_chrome_trace(tracer, path)
    with open(path) as handle:
        payload = json.load(handle)
    assert len(payload) == count == 5
    assert validate_chrome_trace(payload) == []
    assert validate_chrome_trace({"traceEvents": payload}) == []


def test_validator_rejects_empty_and_malformed_traces():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace("nope") != []
    errors = validate_chrome_trace([{"name": "", "ph": "Z", "ts": "x"}])
    assert any("missing key" in e for e in errors)
    assert any("non-empty string" in e for e in errors)
    assert any("unknown phase" in e for e in errors)
    assert validate_chrome_trace(
        [{"name": "s", "ph": "X", "ts": 0, "dur": -1, "pid": 0, "tid": 0}]
    ) != []


def test_aggregate_and_render():
    tracer = _sample_tracer()
    totals = aggregate_spans(tracer)
    assert totals["root"]["calls"] == 1 and totals["a.1"]["calls"] == 1
    text = render_trace(tracer)
    assert "root" in text and "  a" in text and "kind=demo" in text
    breakdown = render_stage_breakdown(tracer)
    assert "per-stage time" in breakdown and "root2" in breakdown


# ---------------------------------------------------------------------------
# Instrumented query path + EXPLAIN ANALYZE
# ---------------------------------------------------------------------------
def test_session_query_records_spans():
    session = Session(example2_graph())
    with tracing() as tracer:
        result = session.query(EXAMPLE2_QUERY)
    assert len(result) == 2
    (root,) = tracer.roots
    assert root.name == "session.query"
    names = {span.name for span in tracer.walk()}
    assert {"session.parse", "session.profile", "wdpt.evaluate",
            "wdpt.maximal_homomorphisms"} <= names
    (evaluator,) = tracer.find("wdpt.maximal_homomorphisms")
    assert isinstance(evaluator.attrs["node_stats"], dict)


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_one_query_is_one_span_tree(backend):
    """One query, one waterfall: the Figure 1 root has two children, and
    every node CQ still hangs off the single ``session.query`` root."""
    with tracing() as tracer:
        Session(example2_graph(), backend=backend).query(EXAMPLE2_QUERY)
    (root,) = tracer.roots
    assert root.name == "session.query"
    assert len(list(root.find("yannakakis"))) == 3
    assert any(span.name.startswith("wdpt.") for span in root.walk())


def test_analyze_end_to_end_on_example2_query_path():
    session = Session(example2_graph())
    report = session.analyze(EXAMPLE2_QUERY)
    assert report.mode == "query" and report.n_answers == 2
    # One row per tree node of the Figure 1 WDPT, root first.
    assert [row["node"] for row in report.rows] == [0, 1, 2]
    root = report.node_row(0)
    assert root["depth"] == 0 and root["atoms"] == 2
    assert root["engine"] == "yannakakis" and root["engines"] == {"yannakakis": 1}
    assert root["candidates"] > 0 and root["extensions"] > 0
    assert root["seconds"] > 0
    text = report.as_text()
    assert "EXPLAIN ANALYZE (query)" in text
    for fragment in ("node 0", "node 1", "node 2", "per-stage time"):
        assert fragment in text
    payload = report.as_dict()
    assert payload["answers"] == 2 and len(payload["nodes"]) == 3


def test_analyze_end_to_end_on_example2_dp_path():
    session = Session(example2_graph())
    answer = max(session.query(EXAMPLE2_QUERY).answers, key=len)
    report = session.analyze(EXAMPLE2_QUERY, candidate=answer)
    assert report.mode == "ask"
    assert [row["node"] for row in report.rows] == [0, 1, 2]
    # The Theorem 6 DP touched the tree: interface candidates were tried
    # and per-node CQ satisfiability checks ran through the planner …
    assert sum(row["candidates"] for row in report.rows) > 0
    checks = list(report.tracer.find("planner.satisfiable"))
    assert sum(row["sat_checks"] for row in report.rows) == len(checks) > 0
    # … which, every variable being bound by the candidate or an interface
    # value, decided each node CQ by existence probes: no Yannakakis run.
    assert {check.attrs["engine"] for check in checks} == {"probe"}
    assert not list(report.tracer.find("yannakakis"))
    assert "EXPLAIN ANALYZE (ask)" in report.as_text()


def test_analyze_names_the_engine_that_ran_at_a_cyclic_node():
    """``L(x,l) OPT triangle(x,y,z)``: the top-down evaluator runs the
    cyclic label's answers plan, bucket elimination seeded by the keys (no
    ``planner.*`` span); the Theorem 6 DP runs its Boolean plans, the
    elimination engine while ``?y``, ``?z`` are open.  Each row
    names what the trace says ran."""
    p = wdpt_from_nested(
        (
            [atom("L", "?x", "?l")],
            [([atom("E", "?x", "?y"), atom("E", "?y", "?z"), atom("E", "?z", "?x")], [])],
        ),
        free_variables=["?x", "?l", "?y", "?z"],
    )
    facts = [atom("E", 0, 1), atom("E", 1, 2), atom("E", 2, 0), atom("E", 2, 3)]
    session = Session(facts + [atom("L", 0, "a"), atom("L", 3, "b")])

    report = session.analyze(p)
    assert report.n_answers == 2
    root, triangle = report.rows
    assert (root["engine"], triangle["engine"]) == ("yannakakis", "treewidth")
    assert "bucket elimination" in session.explain(p).node_plans[1].theorem
    (evaluator,) = report.tracer.find("wdpt.maximal_homomorphisms")
    assert not [s for s in evaluator.walk() if s.name.startswith("planner.")]
    assert len(list(report.tracer.find("yannakakis"))) == 1  # the root label only

    # {x: 3, l: b} has no triangle: the DP asks whether E(3,?y), E(?y,?z),
    # E(?z,3) is satisfiable — open atoms sharing ?y and ?z.
    shortest, longest = sorted(session.query(p).answers, key=len)
    report = session.analyze(p, candidate=shortest)
    assert [row["engine"] for row in report.rows] == ["probe", "treewidth"]
    (dp,) = report.tracer.find("wdpt.eval_tractable")
    routed = [s.attrs["engine"] for s in dp.find("planner.satisfiable")]
    assert sorted(routed) == ["probe", "treewidth"]
    # The full answer binds every variable of the triangle: probes only.
    report = session.analyze(p, candidate=longest)
    assert [row["engine"] for row in report.rows] == ["probe", "probe"]
    (dp,) = report.tracer.find("wdpt.eval_tractable")
    assert {s.attrs["engine"] for s in dp.find("planner.satisfiable")} == {"probe"}


def test_analyze_does_not_leak_a_tracer():
    session = Session(example2_graph())
    session.analyze(EXAMPLE2_QUERY)
    assert isinstance(current_tracer(), NullTracer)


def test_yannakakis_spans_carry_intermediate_sizes():
    session = Session(example2_graph())
    answer = max(session.query(EXAMPLE2_QUERY).answers, key=len)
    # Only ?z bound: the subtree CQ's open ?x joins all three atoms.
    partial = answer.restrict([Variable("z")])
    with tracing() as tracer:
        assert session.is_partial(EXAMPLE2_QUERY, partial)
    (root,) = tracer.roots
    assert root.name == "session.is_partial"
    runs = list(tracer.find("yannakakis"))
    assert runs, "auto method should dispatch acyclic subtree CQs to Yannakakis"
    for run in runs:
        phases = {child.name for child in run.children}
        if "yannakakis.sql" in phases:
            # SQLite backend: the Boolean check ran as one SQL statement.
            assert run.attrs["kernel"] == "sql"
        else:
            # An empty scan ends the run; otherwise the sweeps follow.
            (scan,) = [c for c in run.children if c.name == "yannakakis.scan"]
            swept = "yannakakis.semijoin_up" in phases
            assert swept == all(scan.attrs["relation_sizes"])
            assert all(
                "relation_sizes" in c.attrs
                for c in run.children if c.name == "yannakakis.semijoin_up"
            )


def test_stage_breakdown_buckets():
    query = wdpt_from_nested(
        (
            [atom("works_in", "?e", "?d")],
            [([atom("phone", "?e", "?p")], [])],
        ),
        free_variables=["?e", "?d", "?p"],
    )
    db = company_directory(n_departments=2, employees_per_department=4, seed=1)
    h = max(evaluate(query, db), key=len)
    stages = stage_breakdown(lambda: eval_tractable(query, db, h, planner=Planner()))
    assert set(stages) == {"analysis", "engine", "semijoin"}
    assert stages["engine"] > 0
    assert stages["semijoin"] <= stages["engine"]


# ---------------------------------------------------------------------------
# Planner metrics + EXPLAIN cache
# ---------------------------------------------------------------------------
def test_explain_cache_hits_and_result_profile_memoization():
    session = Session(example2_graph())
    first = session.explain(EXAMPLE2_QUERY)
    second = session.explain(EXAMPLE2_QUERY)
    assert first is second
    stats = session.stats()
    assert stats["explain_cache"]["hits"] >= 1
    result = session.query(EXAMPLE2_QUERY)
    assert result.profile() is result.profile()  # memoized on the Result
    assert result.profile() is first  # served from the planner cache
    assert session.stats()["explain_cache"]["hits"] >= 2


def test_planner_engine_latency_histograms():
    session = Session(example2_graph())
    answer = max(session.query(EXAMPLE2_QUERY).answers, key=len)
    session.ask(EXAMPLE2_QUERY, answer)  # every check bound: probes
    session.is_partial(EXAMPLE2_QUERY, answer.restrict([Variable("z")]))
    stats = session.stats()
    for engine in ("probe", "yannakakis"):
        assert stats["engine_selections"].get(engine, 0) > 0
        latency = stats["engine_latency"][engine]
        assert latency["count"] == stats["engine_selections"][engine]
        assert latency["p95"] is not None
    session.planner.record_engine("custom", 0.25)
    assert session.stats()["engine_selections"]["custom"] == 1
    session.planner.reset_counters()
    assert session.stats()["engine_selections"] == {}


# ---------------------------------------------------------------------------
# Zero-cost-when-disabled gate
# ---------------------------------------------------------------------------
def _overhead_workload():
    """The bench_table1_eval DP workload (ℓ-TW(1) ∩ BI(1) company query)."""
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
    return lambda: eval_tractable(query, db, h)


def test_null_tracer_overhead_below_5_percent():
    """The disabled-path cost of every instrumentation hit the workload
    performs must stay under 5% of the workload's own runtime."""
    workload = _overhead_workload()
    # How many spans does this workload actually record when enabled?
    with tracing() as tracer:
        workload()
    n_spans = sum(1 for _ in tracer.walk())
    assert n_spans > 0
    assert isinstance(current_tracer(), NullTracer)
    workload_seconds = min(
        _timed(workload) for _ in range(5)
    )
    null = current_tracer()

    def null_hits():
        for _ in range(n_spans):
            with null.span("site", method="auto"):
                pass

    null_seconds = min(_timed(null_hits) for _ in range(5))
    assert null_seconds < 0.05 * workload_seconds, (
        "null-tracer path took %.3gs for %d spans vs %.3gs workload"
        % (null_seconds, n_spans, workload_seconds)
    )


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Quantile configuration and labeled metric families
# ---------------------------------------------------------------------------
def test_quantile_key_rendering():
    from repro.telemetry.metrics import quantile_key

    assert quantile_key(0.5) == "p50"
    assert quantile_key(0.95) == "p95"
    assert quantile_key(0.99) == "p99"
    assert quantile_key(0.999) == "p99.9"


def test_histogram_default_quantiles_include_p99():
    h = Histogram("t")
    for value in range(1, 101):
        h.observe(float(value))
    snap = h.snapshot()
    assert set(k for k in snap if k.startswith("p")) == {"p50", "p95", "p99"}
    assert snap["p99"] >= snap["p95"] >= snap["p50"]


def test_histogram_custom_quantiles():
    h = Histogram("t", quantiles=(0.25, 0.75))
    for value in range(1, 101):
        h.observe(float(value))
    snap = h.snapshot()
    assert "p25" in snap and "p75" in snap and "p95" not in snap


def test_registry_labeled_instruments_are_distinct():
    registry = MetricsRegistry()
    a = registry.counter("sel", {"engine": "a"})
    b = registry.counter("sel", {"engine": "b"})
    assert a is not b
    a.inc(2)
    b.inc(3)
    assert registry.labeled_values("sel", "engine") == {"a": 2.0, "b": 3.0}
    ha = registry.histogram("lat", labels={"engine": "a"})
    ha.observe(0.5)
    assert registry.labeled_histograms("lat", "engine")["a"] is ha
    snapshot = registry.snapshot()
    assert 'sel{engine="a"}' in snapshot["counters"]
    # Same (name, labels) key returns the same instrument.
    assert registry.counter("sel", {"engine": "a"}) is a


def test_registry_sorts_a_label_set_once(monkeypatch):
    from repro.telemetry import metrics

    sorts = []
    labels_key = metrics._labels_key
    monkeypatch.setattr(
        metrics, "_labels_key", lambda labels: sorts.append(1) or labels_key(labels)
    )
    registry = MetricsRegistry()
    a = registry.counter("req", {"tenant": "t", "op": "query"})
    for _ in range(5):
        assert registry.counter("req", {"tenant": "t", "op": "query"}) is a
    # Another order of the same labels is the same series, sorted once.
    assert registry.counter("req", {"op": "query", "tenant": "t"}) is a
    assert len(sorts) == 2
    g = registry.gauge("req", {"tenant": "t"})
    h = registry.histogram("req", labels={"tenant": "t"})
    assert registry.gauge("req", {"tenant": "t"}) is g
    assert registry.histogram("req", labels={"tenant": "t"}) is h
    assert len({id(a), id(g), id(h)}) == 3
    assert len(sorts) == 4
    registry.reset()  # zeroes, keeps: the remembered instruments stay live
    assert registry.counter("req", {"tenant": "t", "op": "query"}) is a
    assert list(registry.snapshot()["counters"]) == ['req{op="query",tenant="t"}']


def test_engine_latency_stats_report_p99():
    # cache=False so each repeat reaches the engine and is observed.
    session = Session(example2_graph(), cache=False)
    for _ in range(4):
        session.query(EXAMPLE2_QUERY)
    latency = session.stats()["engine_latency"]["wdpt-topdown"]
    assert latency["count"] == 4
    assert latency["p99"] is not None and latency["p99"] >= latency["p50"]


def test_format_planner_stats_renders_latency_rows():
    from repro.benchharness.reporting import format_planner_stats

    session = Session(example2_graph())
    session.query(EXAMPLE2_QUERY)
    table = format_planner_stats(session.stats())
    assert "latency[wdpt-topdown]" in table
    assert "p99" in table


# ---------------------------------------------------------------------------
# Session.reset_stats
# ---------------------------------------------------------------------------
def test_session_reset_stats_keeps_warm_caches():
    session = Session(example2_graph())
    session.query(EXAMPLE2_QUERY)
    session.query(EXAMPLE2_QUERY)
    stats = session.stats()
    assert stats["engine_selections"]
    assert stats["parse_cache"]["hits"] >= 1
    cached_parses = len(session.planner.parses)
    session.reset_stats()
    stats = session.stats()
    assert stats["engine_selections"] == {}
    assert stats["parse_cache"]["hits"] == 0
    assert stats["engine_seconds"] == 0.0
    # The caches themselves survive: the next query is a parse hit.
    assert len(session.planner.parses) == cached_parses
    session.query(EXAMPLE2_QUERY)
    assert session.stats()["parse_cache"]["hits"] == 1
    assert session.stats()["parse_cache"]["misses"] == 0


# ---------------------------------------------------------------------------
# One context carrier: what a query carries stays on its own thread
# ---------------------------------------------------------------------------
def _node_counts(rows):
    return [(r["node"], r["candidates"], r["extensions"], r["sat_checks"]) for r in rows]


def test_tracing_records_none_of_another_threads_spans():
    session = Session(example2_graph(), cache=False)
    installed, finished = threading.Event(), threading.Event()
    theirs = []

    def other():
        try:
            assert installed.wait(10)
            theirs.append(current_tracer())
            with tracing() as tracer:
                session.query(EXAMPLE2_QUERY)
            theirs.append(tracer)
        finally:
            finished.set()

    thread = threading.Thread(target=other)
    with tracing() as mine:
        thread.start()
        installed.set()
        assert finished.wait(10)
    thread.join(10)
    assert not thread.is_alive()
    before, own = theirs
    assert before is NULL_TRACER
    assert list(mine.walk()) == []
    assert [root.name for root in own.roots] == ["session.query"]


def test_analyze_counts_only_its_own_query_while_another_runs(monkeypatch):
    import repro.engine as engine_mod

    session = Session(example2_graph())
    expected = _node_counts(session.analyze(EXAMPLE2_QUERY).rows)
    held, go, released = threading.Event(), threading.Event(), threading.Event()
    real = engine_mod.evaluate
    errors = []

    def gated(*args):
        if threading.current_thread() is worker:
            held.set()  # the worker's query is open, mid-evaluation
            assert go.wait(10)
        else:  # the analyzed query: let the worker evaluate under its tracer
            go.set()
            assert released.wait(10)
        return real(*args)

    def work():
        try:
            session.query(EXAMPLE2_QUERY)
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)
        finally:
            released.set()

    monkeypatch.setattr(engine_mod, "evaluate", gated)
    worker = threading.Thread(target=work)
    worker.start()
    assert held.wait(10)
    report = session.analyze(EXAMPLE2_QUERY)
    worker.join(10)
    assert not worker.is_alive() and errors == []
    assert _node_counts(report.rows) == expected
    assert [root.name for root in report.tracer.roots] == ["session.query"]


def test_one_context_carrier():
    """Per-query state has one home: no thread-locals, one ContextVar,
    and one read of the environment."""
    import pathlib

    import repro

    sources = [p.read_text() for p in pathlib.Path(repro.__file__).parent.rglob("*.py")]
    assert not [text for text in sources if "threading.local" in text]
    assert sum(text.count("ContextVar(") for text in sources) == 1
    assert sum(text.count("os.environ") for text in sources) == 1
