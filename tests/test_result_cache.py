"""Tests for the version-stamped result cache (repro.storage.cache +
Session wiring): hits, invalidation by a mutation that touches the
query, metrics/obslog visibility, and the warm-vs-cold
speedup.  What a write *keeps* is tests/test_cache_carry.py."""

import time

import pytest

from repro.core.atoms import atom
from repro.engine import Session
from repro.storage import MemoryBackend, SQLiteBackend, ResultCache
from repro.storage.cache import HITS, MISSES
from repro.telemetry.obslog import QueryLog
from repro.workloads.families import FIGURE1_QUERY_TEXT, example2_graph

QUERY = (
    "SELECT ?x ?z WHERE { ?x recorded_by ?y OPTIONAL { ?x NME_rating ?z } }"
)
NEW_FACT = atom("triple", "new_subject", "recorded_by", "someone")


@pytest.fixture(params=["memory", "sqlite"])
def session(request):
    return Session(example2_graph(), backend=request.param)


class TestHitsAndInvalidation:
    def test_repeat_query_hits(self, session):
        first = session.query(QUERY)
        second = session.query(QUERY)
        assert first.answers == second.answers
        assert session.result_cache.hits == 1
        assert session.result_cache.misses == 1

    def test_query_maximal_and_ask_are_cached_separately(self, session):
        session.query(QUERY)
        session.query_maximal(QUERY)  # distinct op → distinct key
        assert session.result_cache.hits == 0
        session.query_maximal(QUERY)
        assert session.result_cache.hits == 1
        answer = sorted(session.query(QUERY).answers, key=repr)[0]
        assert session.ask(QUERY, answer) is session.ask(QUERY, answer)
        assert session.result_cache.hits == 3  # query repeat + ask repeat

    def test_ask_distinguishes_candidates(self, session):
        a, b = sorted(session.query(QUERY).answers, key=repr)[:2]
        session.ask(QUERY, a)
        session.ask(QUERY, b)  # different candidate → not a hit
        assert session.result_cache.hits == 0
        session.ask(QUERY, b)  # same candidate again → hit
        assert session.result_cache.hits == 1

    def test_add_invalidates(self, session):
        session.query(QUERY)
        session.add(NEW_FACT)
        session.query(QUERY)
        assert session.result_cache.hits == 0
        assert session.result_cache.misses == 2

    def test_noop_add_does_not_invalidate(self, session):
        session.add(NEW_FACT)
        session.query(QUERY)
        session.add(NEW_FACT)  # duplicate: version unchanged
        session.query(QUERY)
        assert session.result_cache.hits == 1

    def test_remove_invalidates(self, session):
        session.add(NEW_FACT)
        before = session.query(QUERY).answers
        session.remove(NEW_FACT)
        after = session.query(QUERY).answers
        assert session.result_cache.hits == 0
        assert before != after

    def test_update_invalidates(self, session):
        session.query(QUERY)
        session.database.update([NEW_FACT])
        session.query(QUERY)
        assert session.result_cache.hits == 0

    def test_invalidated_answers_are_correct(self, session):
        before = session.query(QUERY).answers
        session.add(NEW_FACT)
        after = session.query(QUERY).answers
        fresh = Session(session.database, cache=False).query(QUERY).answers
        assert after == fresh and after != before

    def test_cache_disabled(self):
        session = Session(example2_graph(), cache=False)
        assert session.result_cache is None
        assert session.query(QUERY).answers == session.query(QUERY).answers

    def test_shared_cache_instance(self):
        shared = ResultCache(maxsize=8)
        db = MemoryBackend(example2_graph().to_database().facts())
        one = Session(db, cache=shared)
        two = Session(db, cache=shared)
        one.query(QUERY)
        two.query(QUERY)  # same backend id + version → cross-session hit
        assert shared.hits == 1

    def test_one_slot_per_query_however_many_writes(self, session):
        """The version is not in the key: a recomputed answer replaces
        the entry of its slot instead of filling the LRU beside it."""
        for i in range(10):
            session.add(atom("triple", "s%d" % i, "recorded_by", "someone"))
            session.query(QUERY)
        stats = session.result_cache.stats()
        assert (stats["size"], stats["evictions"], stats["misses"]) == (1, 0, 10)


class TestObservability:
    def test_stats_and_reset(self, session):
        session.query(QUERY)
        session.query(QUERY)
        stats = session.stats()["result_cache"]
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["size"] == 1 and 0 < stats["hit_rate"] < 1
        assert set(stats) == {
            "size", "maxsize", "hits", "misses", "puts", "carried", "dropped",
            "evictions", "hit_rate",
        }
        session.reset_stats()
        stats = session.stats()["result_cache"]
        assert stats["hits"] == 0 and stats["misses"] == 0
        # Entries survive the reset: the next repeat is still a hit.
        session.query(QUERY)
        assert session.stats()["result_cache"]["hits"] == 1

    def test_counters_visible_in_metrics_registry(self, session):
        session.query(QUERY)
        session.query(QUERY)
        registry = session.planner.metrics
        assert registry.counter(HITS).value == 1
        assert registry.counter(MISSES).value == 1
        exposition = registry.to_prometheus()
        assert "session_result_cache_hits" in exposition

    def test_obslog_cache_events(self):
        log = QueryLog()
        session = Session(example2_graph(), obslog=log)
        session.query(QUERY)
        session.query(QUERY)
        session.add(NEW_FACT)
        session.query(QUERY)
        outcomes = [r["outcome"] for r in log.events("query.cache")]
        assert outcomes == ["miss", "hit", "miss"]
        qid = log.events("query.parse")[0]["query_id"]
        assert all(r["query_id"] == qid for r in log.events("query.cache"))

    def test_lru_bound_evicts(self):
        session = Session(example2_graph(), cache_size=1)
        session.query(QUERY)
        session.query(FIGURE1_QUERY_TEXT)  # different shape → evicts
        session.query(QUERY)
        stats = session.stats()["result_cache"]
        assert stats["evictions"] >= 1
        assert stats["hits"] == 0


class TestWarmVsCold:
    def test_warm_query_measurably_faster_than_cold(self):
        from repro.workloads.datasets import company_directory
        from repro.wdpt.wdpt import wdpt_from_nested

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
        db = company_directory(
            n_departments=6, employees_per_department=20, seed=3
        )
        session = Session(db)
        session.parse(query)  # exclude parse/profile from the cold timing
        start = time.perf_counter()
        cold_result = session.query(query)
        cold = time.perf_counter() - start
        start = time.perf_counter()
        warm_result = session.query(query)
        warm = time.perf_counter() - start
        assert warm_result.answers == cold_result.answers
        assert session.result_cache.hits == 1
        # Benchmark gate: a cache hit skips evaluation entirely, so even
        # on a noisy host the warm path must be far below the cold one.
        assert warm < cold / 5, "warm %.6fs vs cold %.6fs" % (warm, cold)
