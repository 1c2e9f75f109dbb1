"""Tests for :mod:`repro.parallel`: worker pools and batch evaluation.

The layer's whole contract is *determinism*: every parallel path must be
bit-identical to the sequential loop it replaces.  These tests pin that
down directly (thread and process executors, fixed and property-based
random workloads), then cover the operational guarantees that ride on it —
resource budgets enforced across workers, per-worker metrics merged
deterministically, worker ids stamped on query-log events, and the
planner's :class:`~repro.planner.cache.PlanCache` surviving a concurrent
hammer.
"""

import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.atoms import atom
from repro.engine import Session
from repro.exceptions import ResourceBudgetExceeded
from repro.parallel import BatchResult, run_batch
from repro.parallel.pool import WorkerPool, current_worker_id, effective_cpu_count
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
# WorkerPool mechanics
# ---------------------------------------------------------------------------
def test_pool_serial_runs_inline():
    pool = WorkerPool(jobs=1)
    assert pool.map_tasks(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]
    assert pool._executor is None  # never spawned a thread


def test_pool_preserves_input_order():
    with WorkerPool(jobs=4) as pool:
        items = list(range(40))
        assert pool.map_tasks(lambda x: x * x, items) == [x * x for x in items]


def test_pool_propagates_first_exception():
    def boom(x):
        if x == 3:
            raise ValueError("task 3")
        return x

    with WorkerPool(jobs=2) as pool:
        with pytest.raises(ValueError):
            pool.map_tasks(boom, [1, 2, 3, 4])


def test_nested_dispatch_runs_inline_without_deadlock():
    """A task that itself calls map_tasks must not wait on the pool it is
    running inside of — nested dispatch inlines (jobs=2 pool, depth-2
    fan-out wider than the pool would deadlock otherwise)."""
    with WorkerPool(jobs=2) as pool:

        def outer(x):
            assert current_worker_id() is not None
            return sum(pool.map_tasks(lambda y: x * y, [1, 2, 3]))

        assert pool.map_tasks(outer, [1, 2, 3, 4]) == [6, 12, 18, 24]


def test_worker_ids_stable_and_absent_outside_workers():
    assert current_worker_id() is None
    with WorkerPool(jobs=2) as pool:
        ids = pool.map_tasks(lambda _: current_worker_id(), range(8))
    assert all(i is not None and i.startswith("t") for i in ids)
    assert 1 <= len(set(ids)) <= 2
    assert current_worker_id() is None  # the submitting thread is untouched


def test_pool_rejects_unknown_executor():
    with pytest.raises(ValueError):
        WorkerPool(jobs=2, executor="fiber")


def test_effective_cpu_count_positive():
    assert effective_cpu_count() >= 1


# ---------------------------------------------------------------------------
# Batch evaluation: run_batch / map
# ---------------------------------------------------------------------------
EXAMPLE2_QUERY = "SELECT ?x ?y ?z ?z2 WHERE " + FIGURE1_QUERY_TEXT


def test_thread_batch_matches_sequential():
    queries = [EXAMPLE2_QUERY] * 4
    with Session(example2_graph()) as session:
        sequential = [session.query(q).answers for q in queries]
        batch = session.run_batch(queries, jobs=2)
        assert isinstance(batch, BatchResult)
        assert batch.answers() == sequential
        assert len(batch) == 4 and batch[0].answers == sequential[0]
        assert [r.answers for r in batch] == sequential


def test_process_batch_matches_sequential():
    queries = [_company_query()] * 4
    db = _company_db(employees=6)
    with Session(db) as session:
        sequential = [session.query(q).answers for q in queries]
        batch = session.run_batch(queries, jobs=2, executor="process")
        assert batch.answers() == sequential
        assert all(w.startswith("p") for w in batch.workers_used())


def test_batch_maximal_and_ask_ops():
    p, db = _company_query(), _company_db(employees=6)
    with Session(db) as session:
        maximal = session.run_batch([p, p], jobs=2, op="query_maximal")
        assert maximal.answers() == [session.query_maximal(p).answers] * 2
        candidates = sorted(session.query(p).answers, key=repr)[:4]
        pairs = [(p, h) for h in candidates]
        asked = session.run_batch(pairs, jobs=2, op="ask")
        assert asked.answers() == [session.ask(p, h) for p, h in pairs]
        assert all(d is True for d in asked.answers())


def test_map_is_the_list_of_results():
    with Session(example2_graph()) as session:
        results = session.map([EXAMPLE2_QUERY] * 3, jobs=2)
        assert [r.answers for r in results] == [
            session.query(EXAMPLE2_QUERY).answers
        ] * 3


def test_batch_rejects_unknown_op_and_executor():
    session = Session(example2_graph())
    with pytest.raises(ValueError):
        session.run_batch([EXAMPLE2_QUERY], op="transmogrify")
    with pytest.raises(ValueError):
        session.run_batch([EXAMPLE2_QUERY], executor="fiber")


def test_batch_empty_input():
    with Session(example2_graph()) as session:
        batch = session.run_batch([], jobs=2)
        assert len(batch) == 0 and batch.answers() == []


@COMMON
@given(wdpt_and_db())
def test_batch_matches_sequential_on_random_inputs(pair):
    p, db = pair
    with Session(db) as session:
        sequential = [session.query(p).answers for _ in range(3)]
        assert session.run_batch([p] * 3, jobs=2).answers() == sequential


# ---------------------------------------------------------------------------
# Budgets across workers
# ---------------------------------------------------------------------------
def test_hard_budget_enforced_through_thread_batch():
    budget = ResourceBudget(hard_intermediate_rows=1)
    with Session(_company_db(), budgets=budget) as session:
        with pytest.raises(ResourceBudgetExceeded):
            session.run_batch([_company_query()] * 3, jobs=2)


def test_resources_attached_to_batch_results():
    with Session(_company_db(employees=4), track_resources=True) as session:
        for executor in ("thread", "process"):
            batch = session.run_batch(
                [_company_query()] * 2, jobs=2, executor=executor
            )
            for result in batch:
                assert result.resources is not None
                assert result.resources.peak_intermediate_rows >= 0


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
    db = _company_db(employees=4)
    # cache=False: a worker's result cache would serve repeats without
    # touching the engine, and this test counts engine selections.
    with Session(db, cache=False) as session:
        before = dict(session.stats()["engine_selections"])
        session.run_batch([_company_query()] * 4, jobs=2, executor="process")
        after = dict(session.stats()["engine_selections"])
    assert after.get("wdpt-topdown", 0) - before.get("wdpt-topdown", 0) == 4


# ---------------------------------------------------------------------------
# Observability: worker ids on query-log events
# ---------------------------------------------------------------------------
def test_batch_events_carry_worker_ids():
    log = QueryLog()
    with Session(example2_graph(), obslog=log) as session:
        session.run_batch([EXAMPLE2_QUERY] * 3, jobs=2)
    starts = log.events("batch.start")
    completes = log.events("batch.complete")
    assert len(starts) == 1 and len(completes) == 1
    assert starts[0]["queries"] == 3
    assert completes[0]["workers"]  # at least one worker reported
    per_query = log.events("query.complete")
    assert len(per_query) == 3
    assert all(r.get("worker", "").startswith("t") for r in per_query)


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
    """Two sessions sharing one planner may profile concurrently; stats()
    must iterate a consistent snapshot while workers keep inserting."""
    db = _company_db(employees=4)
    with Session(db) as session:
        batch = session.run_batch([_company_query()] * 6, jobs=2)
        assert len(batch) == 6
        stats = session.stats()
        assert stats["plan_cache"]["size"] >= 1


# ---------------------------------------------------------------------------
# Module-level run_batch (the functional spelling)
# ---------------------------------------------------------------------------
def test_functional_run_batch_spelling():
    session = Session(example2_graph())
    batch = run_batch(session, [EXAMPLE2_QUERY] * 2, jobs=2)
    assert batch.answers() == [session.query(EXAMPLE2_QUERY).answers] * 2
    session.close()
