"""Tests for :mod:`repro.parallel`: process-parallel ``ask`` batches.

The layer's whole contract is *determinism*: a batch must equal the
sequential loop of ``session.ask`` it replaces.  These tests pin that
down (fixed and property-based random workloads, and after writes that a
warm pool must see), then cover the operational guarantees that ride on
it — resource budgets enforced in the worker processes, per-worker
metrics merged in task order, worker ids stamped on query-log events —
and the planner's :class:`~repro.planner.cache.PlanCache` surviving a
concurrent hammer.
"""

import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.atoms import atom
from repro.core.mappings import Mapping
from repro.engine import Session
from repro.exceptions import ResourceBudgetExceeded
from repro.parallel import run_batch
from repro.planner.cache import PlanCache
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.obslog import QueryLog
from repro.telemetry.resources import ResourceBudget
from repro.wdpt.wdpt import wdpt_from_nested
from repro.workloads.datasets import company_directory
from repro.workloads.families import FIGURE1_QUERY_TEXT, example2_graph

COMMON = settings(
    max_examples=15,
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


def _company_db(employees=10):
    return company_directory(
        n_departments=3, employees_per_department=employees, seed=1
    )


def _pairs(session, query, n=8):
    """``n`` ask pairs: answers alternating with answers that lost a
    binding (partial mappings, so mostly not answers themselves)."""
    answers = sorted(session.query(query).answers, key=repr)
    pairs = []
    for i in range(n):
        h = answers[i % len(answers)]
        if i % 2:
            h = Mapping({v: c for v, c in h.items() if v != min(h.domain(), key=repr)})
        pairs.append((query, h))
    return pairs


@st.composite
def wdpt_and_db(draw):
    from repro.workloads.generators import random_database, random_wdpt

    seed = draw(st.integers(0, 10**6))
    p = random_wdpt(
        depth=draw(st.integers(1, 2)),
        fanout=2,
        atoms_per_node=draw(st.integers(1, 2)),
        fresh_vars_per_node=1,
        free_fraction=draw(st.sampled_from([0.4, 0.8, 1.0])),
        seed=seed,
    )
    db = random_database(
        draw(st.integers(4, 12)), relations=("E",), domain_size=5, seed=seed + 1
    )
    return p, db


# ---------------------------------------------------------------------------
# Parity with the sequential loop
# ---------------------------------------------------------------------------
EXAMPLE2_QUERY = "SELECT ?x ?y ?z ?z2 WHERE " + FIGURE1_QUERY_TEXT


def test_process_batch_matches_sequential():
    with Session(_company_db(employees=6)) as session:
        pairs = _pairs(session, _company_query())
        sequential = [session.ask(q, h) for q, h in pairs]
        assert True in sequential and False in sequential
        assert session.run_batch(pairs, jobs=2) == sequential
        assert session.run_batch(pairs) == sequential  # jobs=None: the loop


def test_batch_empty_input():
    with Session(example2_graph()) as session:
        assert session.run_batch([], jobs=2) == []


@COMMON
@given(wdpt_and_db())
def test_batch_matches_sequential_on_random_inputs(pair):
    p, db = pair
    with Session(db, cache=False) as session:
        answers = sorted(session.query(p).answers, key=repr)
        candidates = answers[:3] + [Mapping({}), Mapping({"?x0": 0})]
        pairs = [(p, h) for h in candidates]
        sequential = [session.ask(q, h) for q, h in pairs]
        assert session.run_batch(pairs, jobs=2) == sequential


@pytest.mark.parametrize("cache", [True, False], ids=["cache", "no_cache"])
@pytest.mark.parametrize("store", ["memory", "sqlite", "sqlite_file"])
def test_a_warm_pool_sees_every_write(tmp_path, store, cache):
    """The pool is built with a copy of the database; a write through the
    session (or behind its back) must not leave it answering from the
    facts it was built with."""
    kind, path = store, None
    if store == "sqlite_file":
        kind, path = "sqlite", str(tmp_path / "facts.sqlite")
    session = Session(
        [atom("E", 1, 2), atom("E", 2, 3)], backend=kind, path=path, cache=cache
    )
    with session:
        query = wdpt_from_nested(([atom("E", "?x", "?y")], []), ["?x", "?y"])
        old, new = Mapping({"?x": 1, "?y": 2}), Mapping({"?x": 7, "?y": 8})
        pairs = [(query, old), (query, new)] * 2
        assert session.run_batch(pairs, jobs=2) == [True, False] * 2
        session.add(atom("E", 7, 8))
        assert session.run_batch(pairs, jobs=2) == [
            session.ask(q, h) for q, h in pairs
        ] == [True, True] * 2
        session.database.remove(atom("E", 1, 2))  # not through the session
        assert session.run_batch(pairs, jobs=2) == [False, True] * 2


# ---------------------------------------------------------------------------
# Budgets in the worker processes
# ---------------------------------------------------------------------------
def test_hard_budget_enforced_in_worker_processes():
    budget = ResourceBudget(hard_wall_seconds=0.0)
    with Session(example2_graph()) as plain:
        pairs = _pairs(plain, EXAMPLE2_QUERY, n=4)
    with Session(example2_graph(), budgets=budget) as session:
        for _ in range(2):  # the kill comes home whole, the pool survives it
            with pytest.raises(ResourceBudgetExceeded) as info:
                session.run_batch(pairs, jobs=2)
            assert info.value.dimension == "wall-seconds"
            assert info.value.trace_id


# ---------------------------------------------------------------------------
# Metrics: deterministic merging
# ---------------------------------------------------------------------------
def test_registry_dump_merge_roundtrip():
    source = MetricsRegistry()
    source.counter("queries").inc(3)
    source.gauge("depth").set(7)
    source.histogram("latency").observe(0.25)
    source.histogram("latency").observe(0.75)
    target = MetricsRegistry()
    target.merge_dump(source.dump())
    assert target.dump() == source.dump()


def test_merge_is_deterministic_across_orderings():
    """Folding the same per-worker dumps must commute for counters and
    histogram aggregates — merged state cannot depend on scheduling."""
    dumps = []
    for i in range(3):
        registry = MetricsRegistry()
        registry.counter("queries").inc(i + 1)
        registry.histogram("latency").observe(0.1 * (i + 1))
        dumps.append(registry.dump())
    forward, backward = MetricsRegistry(), MetricsRegistry()
    for dump in dumps:
        forward.merge_dump(dump)
    for dump in reversed(dumps):
        backward.merge_dump(dump)
    assert forward.counters_with_prefix("") == backward.counters_with_prefix("")
    fwd = forward.histogram("latency").snapshot()
    bwd = backward.histogram("latency").snapshot()
    assert fwd["count"] == bwd["count"] == 3
    assert fwd["max"] == bwd["max"]
    # Float addition is associative only approximately; exact bit-equality
    # is guaranteed by merging in task order, which run_batch always does.
    assert fwd["sum"] == pytest.approx(bwd["sum"])


def test_merge_in_fixed_order_is_bit_identical():
    """Replaying the same dumps in the same order gives byte-equal state —
    the reason _run_process_batch folds envelopes in task order."""
    dumps = []
    for i in range(4):
        registry = MetricsRegistry()
        registry.counter("queries").inc()
        registry.histogram("latency").observe(0.1 * (i + 1))
        dumps.append(registry.dump())
    first, second = MetricsRegistry(), MetricsRegistry()
    for dump in dumps:
        first.merge_dump(dump)
    for dump in dumps:
        second.merge_dump(dump)
    assert first.dump() == second.dump()


def test_process_batch_merges_worker_metrics():
    """The workers' counters land in the session's registry, and they
    are the counters the loop would have left there."""
    db = _company_db(employees=4)
    # cache=False: a worker's result cache would serve repeats without
    # touching the engine, and this test counts engine selections.
    with Session(db, cache=False) as session:
        pairs = _pairs(session, _company_query())
        with Session(db, cache=False) as loop:
            [loop.ask(q, h) for q, h in pairs]
        session.reset_stats()
        session.run_batch(pairs, jobs=2)
        assert session.stats()["engine_selections"] == loop.stats()["engine_selections"]


# ---------------------------------------------------------------------------
# Observability: worker ids on query-log events
# ---------------------------------------------------------------------------
def test_batch_events_carry_worker_ids():
    log = QueryLog()
    with Session(example2_graph(), obslog=log, cache=False) as session:
        pairs = _pairs(Session(example2_graph()), EXAMPLE2_QUERY, n=3)
        session.run_batch(pairs, jobs=2)
    starts = log.events("batch.start")
    completes = log.events("batch.complete")
    assert len(starts) == 1 and len(completes) == 1
    assert starts[0]["queries"] == 3
    assert completes[0]["workers"]  # at least one worker reported
    assert all(w.startswith("p") for w in completes[0]["workers"])
    per_query = log.events("query.complete")
    assert len(per_query) == 3
    assert all(r.get("worker", "").startswith("p") for r in per_query)


def test_sequential_events_have_no_worker_field():
    log = QueryLog()
    with Session(example2_graph(), obslog=log) as session:
        session.query(EXAMPLE2_QUERY)
    (record,) = log.events("query.complete")
    assert "worker" not in record


# ---------------------------------------------------------------------------
# PlanCache under concurrency
# ---------------------------------------------------------------------------
def test_plan_cache_concurrent_hammer():
    """Regression test for the cache's thread safety: hammer one bounded
    cache from many threads and require sane counters, a respected bound,
    and no lost values among the survivors."""
    cache = PlanCache(maxsize=32)
    errors = []

    def hammer(worker: int) -> None:
        try:
            for i in range(400):
                key = (worker * 400 + i) % 48
                value = cache.get(key)
                if value is not None:
                    assert value == key * 2
                cache.put(key, key * 2)
                if i % 50 == 0:
                    cache.peek(key)
                    for v in cache.values_snapshot():
                        assert v % 2 == 0
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(cache) <= 32
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == 8 * 400
    assert stats["evictions"] > 0


def test_plan_cache_peek_does_not_perturb_lru():
    cache = PlanCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.peek("a") == 1  # does not refresh "a"
    cache.put("c", 3)  # evicts "a" (still least-recent despite the peek)
    assert cache.get("a") is None and cache.get("b") == 2


def test_shared_planner_profiles_under_concurrent_sessions():
    """Two sessions sharing one planner may profile concurrently (the
    query service runs every tenant's session on one planner); stats()
    must iterate a consistent snapshot while the threads keep inserting."""
    db = _company_db(employees=4)
    with Session(db, cache=False) as session:
        other = Session(db, planner=session.planner, cache=False)
        results, errors = [], []

        def run(s):
            try:
                for _ in range(3):
                    results.append(s.query(_company_query()).answers)
                    s.stats()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(s,)) for s in (session, other)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert not errors and len(results) == 6
        assert all(r == results[0] for r in results)
        assert session.stats()["plan_cache"]["size"] >= 1


# ---------------------------------------------------------------------------
# Module-level run_batch (the functional spelling)
# ---------------------------------------------------------------------------
def test_functional_run_batch_spelling():
    with Session(example2_graph()) as session:
        pairs = _pairs(session, EXAMPLE2_QUERY, n=4)
        assert run_batch(session, pairs, jobs=2) == [
            session.ask(q, h) for q, h in pairs
        ]
