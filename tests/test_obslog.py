"""Tests for the structured query log: lifecycle events, stable query IDs,
slow-query EXPLAIN ANALYZE capture, the obslog schema validator, and the
one trace_id that ties a query's records, spans and resources together."""

import contextlib
import io
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.engine as engine_mod
import repro.telemetry.context as context_mod
from repro.engine import Session
from repro.telemetry.context import QueryContext, current
from repro.telemetry.obslog import (
    OBSLOG_SCHEMA,
    QueryLog,
    QueryObservation,
    validate_obslog,
)
from repro.telemetry.resources import ResourceBudget
from repro.telemetry.tracer import NULL_TRACER, NullTracer, current_tracer
from repro.workloads.families import FIGURE1_QUERY_TEXT, example2_graph

EXAMPLE2_QUERY = "SELECT ?x ?y ?z ?z2 WHERE " + FIGURE1_QUERY_TEXT


def _session(**kwargs):
    return Session(example2_graph(), **kwargs)


# ---------------------------------------------------------------------------
# QueryLog mechanics
# ---------------------------------------------------------------------------
def test_emit_assigns_sequence_and_schema():
    log = QueryLog()
    first = log.emit("query.start", op="query")
    second = log.emit("query.complete", query_id="abc", rows=1)
    assert first["seq"] == 1 and second["seq"] == 2
    assert first["schema"] == OBSLOG_SCHEMA
    assert [r["event"] for r in log.recent()] == ["query.start", "query.complete"]
    assert log.events("query.complete") == [second]


def test_ring_buffer_is_bounded():
    log = QueryLog(ring_size=3)
    for i in range(10):
        log.emit("e%d" % i)
    assert [r["event"] for r in log.recent()] == ["e7", "e8", "e9"]
    assert log.recent(1)[0]["event"] == "e9"


def test_sink_variants(tmp_path):
    # File-like sink: JSON lines.
    buffer = io.StringIO()
    log = QueryLog(sink=buffer)
    log.emit("query.start", op="query")
    record = json.loads(buffer.getvalue())
    assert record["event"] == "query.start" and record["op"] == "query"
    # Callable sink: record dicts.
    seen = []
    QueryLog(sink=seen.append).emit("x")
    assert seen[0]["event"] == "x"
    # Path sink: appended lines, closed handle.
    path = tmp_path / "log.jsonl"
    file_log = QueryLog(sink=str(path))
    file_log.emit("a")
    file_log.emit("b")
    file_log.close()
    lines = path.read_text().strip().splitlines()
    assert [json.loads(line)["event"] for line in lines] == ["a", "b"]


# ---------------------------------------------------------------------------
# Session lifecycle events
# ---------------------------------------------------------------------------
def test_query_lifecycle_events_and_stable_id():
    log = QueryLog()
    session = _session(obslog=log)
    result = session.query(EXAMPLE2_QUERY)
    events = [r["event"] for r in log.recent()]
    assert events == [
        "query.start", "query.parse", "query.plan", "query.cache",
        "query.complete",
    ]
    parse = log.events("query.parse")[0]
    plan = log.events("query.plan")[0]
    cache = log.events("query.cache")[0]
    complete = log.events("query.complete")[0]
    assert cache["outcome"] == "miss"
    # Stable ID: a prefix of the structural fingerprint, shared by all events.
    qid = parse["query_id"]
    assert qid == result.query.structural_fingerprint()[:16]
    assert plan["query_id"] == qid and complete["query_id"] == qid
    assert cache["query_id"] == qid
    assert plan["engine"] == "wdpt-topdown"
    assert "Theorem" in plan["theorem"]
    assert set(plan["classes"]) == {
        "local_treewidth", "interface_width", "global_treewidth",
        "global_hypertreewidth", "projection_free",
    }
    assert complete["rows"] == len(result)
    assert complete["wall_seconds"] > 0


def test_repeated_query_reports_per_call_cache_hits():
    log = QueryLog()
    session = _session(obslog=log)
    session.query(EXAMPLE2_QUERY)
    session.query(EXAMPLE2_QUERY)
    first, second = log.events("query.parse")
    assert first["parse_cache"] == {"hits": 0, "misses": 1}
    assert second["parse_cache"] == {"hits": 1, "misses": 0}


def test_ask_and_query_maximal_are_logged():
    log = QueryLog()
    session = _session(obslog=log)
    answer = max(session.query(EXAMPLE2_QUERY).answers, key=len)
    session.ask(EXAMPLE2_QUERY, answer)
    session.query_maximal(EXAMPLE2_QUERY)
    plans = log.events("query.plan")
    assert [p["engine"] for p in plans] == [
        "wdpt-topdown", "wdpt-dp", "wdpt-topdown-max",
    ]
    asks = [r for r in log.events("query.complete") if r["op"] == "ask"]
    assert asks and asks[0]["rows"] == 1  # decision True


def test_query_records_name_the_top_down_evaluator_not_theorem_6():
    """``query`` and ``query_maximal`` run the top-down evaluator, ``ask``
    the Theorem 6 DP: each op's ``query.plan`` and ``query.slow`` name
    what ran, and only a projection-free ``query_maximal`` skips the
    ⊑-filter."""
    log = QueryLog(slow_threshold=0.0)
    session = _session(obslog=log)
    answer = max(session.query(EXAMPLE2_QUERY).answers, key=len)
    session.ask(EXAMPLE2_QUERY, answer)
    session.query_maximal(EXAMPLE2_QUERY)
    session.query_maximal("SELECT ?x ?z WHERE " + FIGURE1_QUERY_TEXT)
    for event in ("query.plan", "query.slow"):
        query, ask, maximal, projected = (r["theorem"] for r in log.events(event))
        for route in (query, maximal, projected):
            assert "Theorem 6" not in route and "Theorem 1" in route
        assert "Theorem 6" in ask
        assert "no ⊑-filter" in maximal
        assert "⊑" not in query and "⊑" not in projected


def test_error_event_on_unparseable_query():
    from repro.exceptions import ParseError

    log = QueryLog()
    session = _session(obslog=log)
    with pytest.raises(ParseError):
        session.query("(((")
    events = [r["event"] for r in log.recent()]
    assert events == ["query.start", "query.error"]
    assert log.events("query.error")[0]["error"] == "ParseError"


# ---------------------------------------------------------------------------
# Slow-query capture
# ---------------------------------------------------------------------------
def test_slow_query_carries_explain_analyze_profile():
    log = QueryLog(slow_threshold=0.0)  # everything is "slow"
    session = _session(obslog=log)
    session.query(EXAMPLE2_QUERY)
    (slow,) = log.events("query.slow")
    assert slow["query_id"] == log.events("query.parse")[0]["query_id"]
    assert slow["engine"] == "wdpt-topdown"
    assert "Theorem" in slow["theorem"]
    profile = slow["profile"]
    assert profile["nodes"], "per-node EXPLAIN ANALYZE rows must be present"
    for row in profile["nodes"]:
        assert "node" in row and "engine" in row
    assert isinstance(profile["stages"], dict)
    # The installed tracer is removed again after the query.
    assert isinstance(current_tracer(), NullTracer)


def test_fast_queries_produce_no_slow_event():
    log = QueryLog(slow_threshold=3600.0)
    session = _session(obslog=log)
    session.query(EXAMPLE2_QUERY)
    assert log.events("query.slow") == []
    assert current_tracer() is NULL_TRACER


# ---------------------------------------------------------------------------
# validate_obslog
# ---------------------------------------------------------------------------
def test_validate_obslog_accepts_real_log(tmp_path):
    path = tmp_path / "log.jsonl"
    log = QueryLog(sink=str(path), slow_threshold=0.0)
    session = _session(obslog=log)
    session.query(EXAMPLE2_QUERY)
    log.close()
    assert validate_obslog(path.read_text().splitlines()) == []


def test_validate_obslog_rejects_malformed_lines():
    errors = validate_obslog(["not json"])
    assert any("not valid JSON" in e for e in errors)
    errors = validate_obslog(['{"ts": 1, "seq": 1, "schema": 1}'])
    assert any("'event'" in e for e in errors)
    errors = validate_obslog(
        ['{"event": "query.plan", "ts": 1, "seq": 1, "schema": 1}']
    )
    assert any("query_id" in e for e in errors)
    errors = validate_obslog(
        ['{"event": "query.slow", "ts": 1, "seq": 1, "schema": 1, '
         '"query_id": "x"}']
    )
    assert any("profile" in e for e in errors)
    assert validate_obslog([]) == ["log is empty: no events were recorded"]


def test_validate_obslog_type_checks():
    errors = validate_obslog(
        ['{"event": "x", "ts": "late", "seq": 1.5, "schema": 1}', "[1, 2]"]
    )
    assert any("'ts' must be numeric" in e for e in errors)
    assert any("'seq' must be an integer" in e for e in errors)
    assert any("not a JSON object" in e for e in errors)


# ---------------------------------------------------------------------------
# Size rotation
# ---------------------------------------------------------------------------
def _read_events(path):
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


def test_rotation_shifts_backups_and_marks_the_fresh_file(tmp_path):
    path = tmp_path / "log.jsonl"
    log = QueryLog(sink=str(path), max_bytes=200, backup_count=2)
    for i in range(40):
        log.emit("event.%02d" % i, payload="x" * 40)
    log.close()
    # Backups exist, newest first, and none has grown past one record
    # over the limit.
    backup1 = tmp_path / "log.jsonl.1"
    backup2 = tmp_path / "log.jsonl.2"
    assert backup1.exists() and backup2.exists()
    assert not (tmp_path / "log.jsonl.3").exists()
    # Every rotated-into file starts with a log.rotated record (the very
    # first file is the only one allowed to start with a plain event).
    for rotated in (path, backup1):
        first = _read_events(rotated)[0]
        assert first["event"] == "log.rotated"
        assert first["max_bytes"] == 200
        assert first["backup_count"] == 2
        assert first["rotated_to"].endswith("log.jsonl.1")
        assert first["rotated_bytes"] >= 200
    # No event was lost inside the retained window: seq is contiguous
    # across backup2 → backup1 → live file.
    seqs = [
        r["seq"]
        for rotated in (backup2, backup1, path)
        for r in _read_events(rotated)
    ]
    assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
    # The live file overshoots the cap by at most one record (the size
    # check runs before each write).
    longest = max(
        len(line) + 1 for line in path.read_text().splitlines()
    )
    assert path.stat().st_size < 200 + longest


def test_rotation_with_zero_backups_truncates_in_place(tmp_path):
    path = tmp_path / "log.jsonl"
    log = QueryLog(sink=str(path), max_bytes=150, backup_count=0)
    for i in range(30):
        log.emit("event", payload="y" * 40)
    log.close()
    assert not (tmp_path / "log.jsonl.1").exists()
    events = _read_events(path)
    assert events[0]["event"] == "log.rotated"
    assert events[0]["rotated_to"] is None


def test_no_rotation_without_max_bytes(tmp_path):
    path = tmp_path / "log.jsonl"
    log = QueryLog(sink=str(path))
    for i in range(50):
        log.emit("event", payload="z" * 80)
    log.close()
    assert not (tmp_path / "log.jsonl.1").exists()
    assert all(r["event"] == "event" for r in _read_events(path))


def test_rotated_log_validates_and_session_survives_rotation(tmp_path):
    path = tmp_path / "log.jsonl"
    log = QueryLog(sink=str(path), max_bytes=400, backup_count=3)
    session = _session(obslog=log)
    for _ in range(6):
        session.query(EXAMPLE2_QUERY)
    log.close()
    assert (tmp_path / "log.jsonl.1").exists()
    assert validate_obslog(path.read_text().splitlines()) == []
    assert validate_obslog(
        (tmp_path / "log.jsonl.1").read_text().splitlines()
    ) == []


def test_validate_obslog_checks_rotation_and_profile_fields():
    errors = validate_obslog(
        ['{"event": "log.rotated", "ts": 1, "seq": 1, "schema": 1}']
    )
    assert any("max_bytes" in e for e in errors)
    errors = validate_obslog(
        ['{"event": "query.slow", "ts": 1, "seq": 1, "schema": 1, '
         '"query_id": "x", "profile": {"nodes": []}, '
         '"profile_samples": "nope"}']
    )
    assert any("profile_samples" in e for e in errors)


# ---------------------------------------------------------------------------
# Trace correlation: one trace_id across spans, records and resources
# ---------------------------------------------------------------------------
def _company_query():
    from repro.core.atoms import atom
    from repro.wdpt.wdpt import wdpt_from_nested

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


def test_single_query_shares_one_trace_id_everywhere():
    log = QueryLog()
    with Session(example2_graph(), obslog=log, track_resources=True) as session:
        result = session.query(EXAMPLE2_QUERY)
    trace_ids = {r["trace_id"] for r in log.recent()}
    assert len(trace_ids) == 1
    assert result.resources.trace_id == trace_ids.pop()


def test_budget_kill_carries_the_trace_id():
    from repro.exceptions import ResourceBudgetExceeded
    from repro.telemetry.resources import ResourceBudget
    from repro.workloads.datasets import company_directory

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


# ---------------------------------------------------------------------------
# One observation: one context install, one clock reading at each end
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("config", ["tracked", "budgeted", "logged", "unobserved"])
def test_an_observed_op_installs_its_context_once(monkeypatch, config):
    """With no recording tracer (no slow-query capture, no ``analyze``),
    an observed ``query``, ``ask`` and ``cached`` hit each install the
    query's context exactly once — trace id, tracer and resource monitor
    together — and an unobserved session installs none and builds no
    observation.  A ``cached`` hit that only tracks resources is served
    without an observation: no install either."""
    kwargs = {
        "tracked": {"track_resources": True},
        "budgeted": {"budgets": ResourceBudget(soft_wall_seconds=60.0)},
        "logged": {"obslog": QueryLog()},
        "unobserved": {},
    }[config]
    session = _session(**kwargs)
    # Caches the parse and the answers the ``cached`` hit below reads.
    answer = max(session.query(EXAMPLE2_QUERY).answers, key=len)
    installs, built = [], []
    enter, init = context_mod._enter, QueryObservation.__init__
    monkeypatch.setattr(
        context_mod, "_enter", lambda c: installs.append(c) or enter(c)
    )
    monkeypatch.setattr(
        QueryObservation, "__init__",
        lambda obs, *args: built.append(obs) or init(obs, *args),
    )
    calls = {
        # A miss: parsed, planned and evaluated.
        "query": lambda: session.query("SELECT ?x ?y WHERE { ?x recorded_by ?y }"),
        "ask": lambda: session.ask(EXAMPLE2_QUERY, answer),
        "cached": lambda: session.cached("query", EXAMPLE2_QUERY),
    }
    for name, call in calls.items():
        expected = 0 if config == "unobserved" else 1
        if name == "cached" and config == "tracked":
            expected = 0
        del installs[:], built[:]
        assert call() is not None
        assert (name, len(installs), len(built)) == (name, expected, expected)


def test_an_untraced_hit_builds_no_observation_monitor_or_span(monkeypatch):
    """A ``cached`` hit with nothing to log, no budget, no profiler and no
    recording tracer is a trace id, a usage of its wall time and one ring
    entry that ``/debug/queries`` reads as a finished query's."""
    import repro.telemetry.obslog as obslog_mod
    import repro.telemetry.resources as resources_mod

    session = _session(track_resources=True, tenant="acme")
    miss = session.query(EXAMPLE2_QUERY)
    built = []
    for cls in (obslog_mod.QueryObservation, resources_mod.ResourceMonitor):
        init = cls.__init__
        monkeypatch.setattr(
            cls, "__init__",
            lambda obj, *a, _init=init, **k: built.append(obj) or _init(obj, *a, **k),
        )
    spans = []
    span = NullTracer.span
    monkeypatch.setattr(
        NullTracer, "span", lambda tracer, name, **k: spans.append(name) or span(tracer, name)
    )
    hits = [session.cached("query", EXAMPLE2_QUERY) for _ in range(2)]
    assert (built, spans) == ([], [])
    assert [hit.answers for hit in hits] == [miss.answers] * 2
    traces = [hit.resources.trace_id for hit in hits]
    assert all(traces) and len(set(traces + [miss.resources.trace_id])) == 3
    assert all(hit.resources.wall_seconds > 0 for hit in hits)
    assert all(hit.profile_samples is None for hit in hits)
    first, *recent = session.debug_queries()["recent"]
    assert [entry["trace_id"] for entry in recent] == traces
    for hit, entry in zip(hits, recent):
        assert entry == {
            "op": "query", "query_id": first["query_id"],
            "trace_id": hit.resources.trace_id, "rows": len(miss.answers),
            "wall_seconds": hit.resources.wall_seconds, "cache": "hit",
            "error": None, "tenant": "acme",
        }
    assert (first["cache"], first["trace_id"]) == ("miss", miss.resources.trace_id)
    assert session.result_cache.stats()["hits"] == 2


@pytest.mark.parametrize("config", ["logged", "budgeted", "traced", "profiled"])
def test_a_hit_anything_may_keep_is_observed_in_full(monkeypatch, config):
    """The cases that may keep a hit's record — an obslog (and its slow
    capture), a budget, a recording tracer, a running profiler — take
    the full observation, as ``query`` does."""
    from repro.telemetry.profiler import profiling
    from repro.telemetry.tracer import tracing

    kwargs = {
        "logged": {"obslog": QueryLog()},
        "budgeted": {"budgets": ResourceBudget(soft_wall_seconds=60.0)},
    }.get(config, {"track_resources": True})
    session = _session(**kwargs)
    session.query(EXAMPLE2_QUERY)
    built = []
    init = QueryObservation.__init__
    monkeypatch.setattr(
        QueryObservation, "__init__", lambda obs, *a: built.append(obs) or init(obs, *a)
    )
    with contextlib.ExitStack() as stack:
        tracer = stack.enter_context(tracing()) if config == "traced" else None
        if config == "profiled":
            stack.enter_context(profiling())
        hit = session.cached("query", EXAMPLE2_QUERY)
    if tracer is not None:
        assert [span.name for span in tracer.roots] == ["session.query"]
    assert hit is not None and len(built) == 1
    assert built[0].cache_outcome == "hit"


def test_one_wall_time_feeds_usage_log_and_debug_queries():
    log = QueryLog()
    session = _session(obslog=log, track_resources=True)
    result = session.query(EXAMPLE2_QUERY)
    (complete,) = log.events("query.complete")
    (recent,) = session.debug_queries()["recent"]
    assert result.resources.wall_seconds > 0
    assert (
        result.resources.wall_seconds
        == complete["wall_seconds"]
        == complete["resources"]["wall_seconds"]
        == recent["wall_seconds"]
    )


# ---------------------------------------------------------------------------
# Each observation keeps its context to itself
# ---------------------------------------------------------------------------
def _slow_counts(record):
    return [
        (n["node"], n["candidates"], n["extensions"], n["sat_checks"])
        for n in record["profile"]["nodes"]
    ]


def test_overlapping_slow_captures_log_their_own_node_counts(monkeypatch):
    alone = QueryLog(slow_threshold=0.0)
    _session(obslog=alone, cache=False).query(EXAMPLE2_QUERY)
    (record,) = alone.events("query.slow")
    expected = _slow_counts(record)

    log = QueryLog(slow_threshold=0.0)
    session = _session(obslog=log, cache=False)
    # Both observations are open before either evaluates, and neither
    # closes before both have evaluated.
    opened = threading.Barrier(2, timeout=10)
    evaluated = threading.Barrier(2, timeout=10)
    real = engine_mod.evaluate
    errors = []

    def gated(*args):
        opened.wait()
        answers = real(*args)
        evaluated.wait()
        return answers

    def run():
        try:
            session.query(EXAMPLE2_QUERY)
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    monkeypatch.setattr(engine_mod, "evaluate", gated)
    threads = [threading.Thread(target=run) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    records = log.events("query.slow")
    assert len({r["trace_id"] for r in records}) == 2
    assert [_slow_counts(r) for r in records] == [expected, expected]


def test_concurrent_slow_captures_under_fast_switching():
    """More threads than cores, switching every 10 µs: every query.slow
    record still carries its own query's node counts."""
    import sys

    alone = QueryLog(slow_threshold=0.0)
    _session(obslog=alone, cache=False).query(EXAMPLE2_QUERY)
    expected = _slow_counts(alone.events("query.slow")[0])
    log = QueryLog(slow_threshold=0.0, ring_size=1000)
    session = _session(obslog=log, cache=False)
    start = threading.Barrier(4, timeout=10)
    errors = []

    def run():
        try:
            start.wait()
            for _ in range(20):
                session.query(EXAMPLE2_QUERY)
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    records = log.events("query.slow")
    assert len(records) == 80
    assert all(_slow_counts(r) == expected for r in records)


def test_a_pool_worker_carries_nothing_from_one_query_to_the_next(monkeypatch):
    from repro.exceptions import ResourceBudgetExceeded
    from repro.telemetry.resources import ResourceBudget
    from repro.workloads.datasets import company_directory

    killed = Session(
        company_directory(n_departments=3, employees_per_department=4, seed=1),
        obslog=QueryLog(), budgets=ResourceBudget(hard_intermediate_rows=1),
    )
    seen = []
    real = engine_mod.evaluate

    def spy(*args):
        seen.append(current())
        return real(*args)

    monkeypatch.setattr(engine_mod, "evaluate", spy)
    with ThreadPoolExecutor(max_workers=1) as pool:
        with pytest.raises(ResourceBudgetExceeded):
            pool.submit(killed.query, _company_query()).result()
        pool.submit(_session().query, EXAMPLE2_QUERY).result()
        after = pool.submit(current).result()
    first, second = seen
    assert first.monitor is not None and first.trace_id is not None
    assert second.monitor is None and second.trace_id is None
    assert second == after == QueryContext()
