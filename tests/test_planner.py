"""Unit and property tests for the query-planning layer.

Covers the satellite acceptance criteria: stable structural fingerprints,
LRU bound + hit/miss accounting of the plan cache, analysis reuse across
structurally identical queries, cross-engine answer equivalence on seeded
random workloads, the session-level instrumentation surface, the
plan cache and a shared planner under concurrent threads, and warm
decisions that read their shape facts as built.
"""

import random
import sys
import threading

import pytest

from repro.core.atoms import atom
from repro.core.cq import ConjunctiveQuery
from repro.core.mappings import Mapping
from repro.cqalgs import yannakakis as yannakakis_module
from repro.cqalgs.dispatch import evaluate
from repro.cqalgs.naive import evaluate_naive
from repro.core.terms import Variable
from repro.engine import Session
from repro.hypergraphs import gyo
from repro.planner import (
    ENGINE_NAIVE,
    ENGINE_PROBE,
    ENGINE_TREEWIDTH,
    ENGINE_YANNAKAKIS,
    PlanCache,
    Planner,
)
from repro.planner.plan import TW_CUTOFF
from repro.relalg import relation as relation_module
from repro.storage.sqlite import SQLiteBackend
from repro.telemetry.metrics import MetricsRegistry
from repro.wdpt.eval_tractable import eval_tractable
from repro.wdpt.max_eval import max_eval
from repro.wdpt.partial_eval import compile_partial, partial_eval
from repro.wdpt.tree import PatternTree
from repro.wdpt.wdpt import wdpt_from_nested
from repro.workloads.datasets import company_directory
from repro.workloads.generators import random_database, random_wdpt
from tests.harness.generators import random_cq


# ---------------------------------------------------------------------------
# Structural fingerprints
# ---------------------------------------------------------------------------
class TestFingerprints:
    def test_cq_fingerprint_ignores_atom_order_and_identity(self):
        a1 = [atom("E", "?x", "?y"), atom("E", "?y", "?z")]
        q1 = ConjunctiveQuery(["?x"], a1)
        q2 = ConjunctiveQuery(["?x"], list(reversed(a1)))
        q3 = ConjunctiveQuery(["?x"], [atom("E", "?x", "?y"), atom("E", "?y", "?z")])
        assert q1.structural_fingerprint() == q2.structural_fingerprint()
        assert q1.structural_fingerprint() == q3.structural_fingerprint()

    def test_cq_fingerprint_distinguishes_structure(self):
        q1 = ConjunctiveQuery(["?x"], [atom("E", "?x", "?y")])
        q2 = ConjunctiveQuery(["?x"], [atom("E", "?y", "?x")])
        q3 = ConjunctiveQuery(["?y"], [atom("E", "?x", "?y")])
        assert q1.structural_fingerprint() != q2.structural_fingerprint()
        assert q1.structural_fingerprint() != q3.structural_fingerprint()

    def test_wdpt_fingerprint_stable_across_objects(self):
        p1 = random_wdpt(depth=2, fanout=2, seed=7)
        p2 = random_wdpt(depth=2, fanout=2, seed=7)
        p3 = random_wdpt(depth=2, fanout=2, seed=8)
        assert p1 is not p2
        assert p1.structural_fingerprint() == p2.structural_fingerprint()
        assert p1.structural_fingerprint() != p3.structural_fingerprint()

    def test_fingerprint_is_cached(self):
        q = ConjunctiveQuery(["?x"], [atom("E", "?x", "?y")])
        assert q.structural_fingerprint() is q.structural_fingerprint()


# ---------------------------------------------------------------------------
# PlanCache
# ---------------------------------------------------------------------------
class TestPlanCache:
    def test_hit_miss_accounting(self):
        c = PlanCache(maxsize=4)
        assert c.get("a") is None
        c.put("a", 1)
        assert c.get("a") == 1
        assert (c.hits, c.misses) == (1, 1)
        assert c.hit_rate() == 0.5

    def test_lru_eviction_bound(self):
        c = PlanCache(maxsize=3)
        for i in range(10):
            c.put(i, i)
            assert len(c) <= 3
        assert c.evictions == 7
        # Least-recently-used entries are the evicted ones.
        assert all(i in c for i in (7, 8, 9))
        assert all(i not in c for i in range(7))

    def test_get_refreshes_recency(self):
        c = PlanCache(maxsize=2)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")          # "a" becomes most recent
        c.put("c", 3)       # evicts "b", not "a"
        assert "a" in c and "c" in c and "b" not in c

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)


# ---------------------------------------------------------------------------
# Planner: analysis reuse and routing
# ---------------------------------------------------------------------------
class TestPlannerReuse:
    def test_profile_shared_across_equal_objects(self):
        planner = Planner()
        q1 = ConjunctiveQuery(["?x"], [atom("E", "?x", "?y"), atom("E", "?y", "?z")])
        q2 = ConjunctiveQuery(["?x"], [atom("E", "?y", "?z"), atom("E", "?x", "?y")])
        assert planner.profile_cq(q1) is planner.profile_cq(q2)
        assert planner.profiles.hits == 1
        assert planner.profiles.misses == 1

    def test_answers_plan_per_shape(self):
        """The answers op: Yannakakis over the profile's join tree when the
        shape is acyclic, Theorem 2 over its elimination order when not."""
        planner = Planner()
        path = ConjunctiveQuery(["?x"], [atom("E", "?x", "?y"), atom("E", "?y", "?z")])
        plan = planner.plan_cq(path)
        assert plan.engine == ENGINE_YANNAKAKIS
        assert plan.structure is planner.profile_cq(path).join_tree
        assert "Theorem" in plan.theorem
        triangle = ConjunctiveQuery(
            ["?x"],
            [atom("E", "?x", "?y"), atom("E", "?y", "?z"), atom("E", "?z", "?x")],
        )
        plan = planner.plan_cq(triangle)
        profile = planner.profile_cq(triangle)
        assert plan.engine == ENGINE_TREEWIDTH
        assert plan.structure == tuple(profile.elimination_order)
        assert "bucket elimination" in plan.theorem
        assert planner.plan_for_profile("", profile) is profile.answers_plan is plan

    def test_boolean_plan_per_shape_and_bound_set(self):
        """The Boolean op, for a shape on each side of every branch: probe
        when the binding leaves no open variable shared, then Yannakakis,
        Theorem 2 up to TW_CUTOFF, the search past it."""
        planner = Planner()
        clique = [atom("E", "?v%d" % i, "?v%d" % j) for i in range(5) for j in range(i)]
        triangle = [atom("E", "?x", "?y"), atom("E", "?y", "?z"), atom("E", "?z", "?x")]
        x, y, z = Variable("?x"), Variable("?y"), Variable("?z")
        shapes = {
            ENGINE_YANNAKAKIS: [atom("E", "?x", "?y"), atom("E", "?y", "?z")],
            ENGINE_TREEWIDTH: triangle,
            ENGINE_NAIVE: clique,  # K5: treewidth 4 > TW_CUTOFF
        }
        assert TW_CUTOFF == 3
        for engine, atoms in shapes.items():
            profile = planner.profile_cq(ConjunctiveQuery([], atoms))
            assert profile.boolean_plan(()).engine == engine
        profile = planner.profile_cq(ConjunctiveQuery([], triangle))
        plan = profile.boolean_plan({x: 0})
        assert plan.engine == ENGINE_TREEWIDTH
        # The elimination order is stored with the bound variable dropped.
        assert set(plan.structure) == {y, z}
        # One plan per bound set, whatever the values or extra variables.
        assert profile.boolean_plan({x: 5, Variable("?w"): 1}) is plan
        assert profile.boolean_plan({x: 0, y: 1, z: 2}).engine == ENGINE_PROBE
        assert profile.answers_plan.engine == ENGINE_TREEWIDTH

    def test_boolean_checks_build_one_plan_per_bound_set(self):
        """A run reads its plan off the profile: the first check of a bound
        set builds it, every later check with other values reuses it."""
        planner = Planner()
        db = random_database(20, domain_size=5, seed=1)
        profile = planner.profile_cq(
            ConjunctiveQuery([], [atom("E", "?x", "?y"), atom("E", "?y", "?z")])
        )
        for value in range(50):
            planner.satisfiable_substituted(
                profile, Mapping({"?x": value % 5}).as_dict(), db
            )
        assert planner.plans_built == 1
        assert planner.engine_selections == {ENGINE_YANNAKAKIS: 50}
        planner.satisfiable_substituted(profile, Mapping({"?x": 0, "?y": 1}).as_dict(), db)
        assert planner.plans_built == 2
        assert planner.engine_selections == {ENGINE_YANNAKAKIS: 50, ENGINE_PROBE: 1}

    def test_treewidth_cutoff_is_not_an_option(self):
        with pytest.raises(TypeError):
            Planner(tw_cutoff=2)

    def test_plan_describe_names_theorem(self):
        planner = Planner()
        q = ConjunctiveQuery(["?x"], [atom("E", "?x", "?y")])
        text = planner.plan_cq(q).describe()
        assert "yannakakis" in text and "Theorem 3" in text

    def test_subtree_profiles_reused_across_candidates(self):
        planner = Planner()
        p = random_wdpt(depth=2, fanout=2, seed=3)
        db = random_database(40, domain_size=5, seed=3)
        free = sorted(p.free_variables)
        candidates = [Mapping({free[0]: c}) for c in range(5)]
        for h in candidates:
            partial_eval(p, db, h, planner=planner)
        stats = planner.stats()
        # One tree profile, one structural analysis of its subtree shape,
        # asked for once: by the one program every candidate runs.
        assert stats["subtree_profiles"] == {"hits": 0, "misses": 1}
        assert stats["decision_programs"] == {"hits": 4, "misses": 1}
        assert stats["plan_cache"]["misses"] == 1
        assert planner.profile_wdpt(p).programs() == [(compile_partial, frozenset(free[:1]))]


# ---------------------------------------------------------------------------
# Cross-engine answer equivalence (seeded random workloads)
# ---------------------------------------------------------------------------
class TestCrossEngineEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_cq_auto_matches_naive(self, seed):
        planner = Planner()
        q = random_cq(4, 5, n_free=2, seed=seed)
        db = random_database(30, domain_size=6, seed=seed)
        expected = evaluate_naive(q, db)
        assert evaluate(q, db, planner=planner) == expected
        # Second evaluation of an equal query object hits the cache and
        # still agrees.
        q2 = random_cq(4, 5, n_free=2, seed=seed)
        assert evaluate(q2, db, planner=planner) == expected
        assert planner.profiles.hits >= 1

    @pytest.mark.parametrize("seed", range(5))
    def test_wdpt_decision_problems_auto_matches_naive(self, seed):
        planner = Planner()
        p = random_wdpt(depth=2, fanout=2, seed=seed)
        db = random_database(35, domain_size=5, seed=seed)
        free = sorted(p.free_variables)
        candidates = [Mapping()] + [
            Mapping({free[0]: c}) for c in range(4)
        ]
        if len(free) > 1:
            candidates.append(Mapping({free[0]: 0, free[1]: 1}))
        for h in candidates:
            assert partial_eval(p, db, h) == partial_eval(
                p, db, h, planner=planner
            )
            assert max_eval(p, db, h) == max_eval(
                p, db, h, planner=planner
            )
            assert eval_tractable(p, db, h) == eval_tractable(
                p, db, h, planner=planner
            )


class TestCrossEnginePropertyBased:
    """Hypothesis drives the workload generators; one shared planner across
    examples exercises cache reuse under a stream of distinct shapes."""

    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    shared_planner = Planner(profile_cache_size=16)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n_atoms=st.integers(min_value=1, max_value=5),
        n_variables=st.integers(min_value=2, max_value=6),
        n_free=st.integers(min_value=0, max_value=2),
        db_seed=st.integers(min_value=0, max_value=10**6),
        q_seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_planned_evaluation_matches_naive(
        self, n_atoms, n_variables, n_free, db_seed, q_seed
    ):
        q = random_cq(n_atoms, n_variables, n_free=min(n_free, n_variables), seed=q_seed)
        db = random_database(25, domain_size=5, seed=db_seed)
        assert evaluate(
            q, db, planner=self.shared_planner
        ) == evaluate_naive(q, db)


# ---------------------------------------------------------------------------
# Session instrumentation
# ---------------------------------------------------------------------------
class TestSessionStats:
    def test_stats_keys_and_counters(self):
        # cache=False: a result-cache hit would skip the second engine
        # selection, and this test is about plan-cache reuse across runs.
        s = Session([atom("E", 1, 2), atom("E", 2, 3)], cache=False)
        p = random_wdpt(depth=1, fanout=2, seed=1)
        s.query(p)
        s.query(p)
        stats = s.stats()
        for key in (
            "plan_cache",
            "parse_cache",
            "subtree_profiles",
            "engine_selections",
            "plans_built",
            "analysis_seconds",
            "engine_seconds",
        ):
            assert key in stats
        assert stats["engine_selections"].get("wdpt-topdown") == 2
        assert stats["plan_cache"]["hits"] >= 1  # second query reused the profile
        assert stats["engine_seconds"] > 0

    def test_parse_cache_counted(self):
        from repro.workloads.families import example2_graph

        s = Session(example2_graph())
        text = (
            "SELECT ?x ?y WHERE { ?x recorded_by ?y "
            'OPTIONAL { ?x NME_rating ?z } }'
        )
        a = s.parse(text)
        b = s.parse(text)
        assert a is b
        assert s.stats()["parse_cache"]["hits"] == 1
        assert "1 cached queries" in repr(s)

    def test_dedicated_planner_isolated_from_default(self):
        planner = Planner(profile_cache_size=2)
        s = Session([atom("E", 1, 2)], planner=planner)
        assert s.planner is planner
        from repro.planner import get_default_planner

        assert get_default_planner() is not planner


# ---------------------------------------------------------------------------
# Concurrency: one cache, one planner, many threads
# ---------------------------------------------------------------------------
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
# Warm decisions: shape facts are read as built, not derived per check
# ---------------------------------------------------------------------------
_KINDS = ("ask", "is_partial", "is_maximal")
_EMPLOYEE = Variable("e")


def _decision_stream(answers, n, offset=0):
    """``n`` (kind, candidate) pairs cycling through the kinds and over
    candidate domains of every size the answers have, the employee
    always bound."""
    ordered = sorted(answers, key=repr)
    out = []
    for i in range(n):
        answer = ordered[(offset + 7 * i) % len(ordered)]
        domain = sorted(answer.domain(), key=repr)
        kept = set(domain[: 1 + i % len(domain)]) | {_EMPLOYEE}
        out.append((_KINDS[i % len(_KINDS)], answer.restrict(kept)))
    return out


@pytest.fixture
def warm_decisions():
    """A session, its query, and 50 fresh decisions after one warm-up
    decision per (kind, candidate domain)."""
    session = Session(_company_db(employees=24), cache=False)
    query = _company_query()
    answers = session.query(query).answers
    seen = set()
    for kind, candidate in _decision_stream(answers, 300):
        if (kind, candidate.domain()) not in seen:
            seen.add((kind, candidate.domain()))
            getattr(session, kind)(query, candidate)
    fresh = [
        (kind, candidate)
        for kind, candidate in _decision_stream(answers, 400, offset=1)
        if (kind, candidate.domain()) in seen
    ][:50]
    assert len(fresh) == 50
    return session, query, fresh


def _count_calls(monkeypatch, owner, name, counts, only_from=None):
    """Count calls of ``owner.name`` — for a module function, through
    every ``repro`` module's by-name import of it; with ``only_from``,
    only calls made directly by a function of that name."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        if only_from is None or sys._getframe(1).f_code.co_name == only_from:
            counts[name] += 1
        return original(*args, **kwargs)

    counts[name] = 0
    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, counted)
        return
    for module in list(sys.modules.values()):
        if (module is not None and module.__name__.startswith("repro")
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, counted)


class TestWarmDecisions:
    """``ask``/``is_partial``/``is_maximal`` turn into many small
    satisfiability checks.  Once each candidate domain has been decided,
    a check reads the join tree, the engine instruments and the tree's
    root paths as built.  These tests count that work; they do not time
    it."""

    def test_no_shape_fact_is_derived_again(self, warm_decisions, monkeypatch):
        session, query, fresh = warm_decisions
        counts = {}
        _count_calls(monkeypatch, gyo, "join_tree_shape", counts)
        _count_calls(monkeypatch, MetricsRegistry, "counter", counts, "record_engine")
        _count_calls(monkeypatch, MetricsRegistry, "histogram", counts, "record_engine")
        _count_calls(monkeypatch, PatternTree, "path_to_root", counts)
        _count_calls(monkeypatch, Planner, "check", counts)
        verdicts = [getattr(session, kind)(query, c) for kind, c in fresh]
        assert counts.pop("check") >= len(fresh)
        assert counts == {
            "join_tree_shape": 0, "counter": 0, "histogram": 0, "path_to_root": 0,
        }
        assert any(verdicts) and not all(verdicts)

    @staticmethod
    def _engine_counts(session):
        """``{route: (selections, latency observations)}`` of the two
        routes a check on this acyclic query can take."""
        stats = session.stats()
        return {
            engine: (
                stats["engine_selections"].get(engine, 0),
                stats["engine_latency"].get(engine, {"count": 0})["count"],
            )
            for engine in (ENGINE_PROBE, "yannakakis")
        }

    def test_engine_instruments_count_every_check_across_resets(
        self, warm_decisions, monkeypatch
    ):
        """Every check lands on exactly one route's instruments: ``probe``
        plus ``yannakakis`` selections (and latency observations) equal the
        checks (``Planner.check`` calls), before and after a reset."""
        session, query, fresh = warm_decisions
        counts = {}
        _count_calls(monkeypatch, Planner, "check", counts)

        def routed(before):
            after = self._engine_counts(session)
            per_route = [
                (after[e][0] - before[e][0], after[e][1] - before[e][1])
                for e in after
            ]
            assert all(selected == seen for selected, seen in per_route)
            return [selected for selected, _ in per_route]

        before = self._engine_counts(session)
        for kind, candidate in fresh[:25]:
            getattr(session, kind)(query, candidate)
        probes, yannakakis = routed(before)
        checks = counts["check"]
        assert probes > 0 and probes + yannakakis == checks
        session.reset_stats()
        zero = {engine: (0, 0) for engine in (ENGINE_PROBE, "yannakakis")}
        assert self._engine_counts(session) == zero
        counts["check"] = 0
        for kind, candidate in fresh[25:]:
            getattr(session, kind)(query, candidate)
        probes, yannakakis = routed(zero)
        checks = counts["check"]
        assert probes > 0 and probes + yannakakis == checks
        assert session.planner.engine_seconds > 0

    def test_fully_bound_asks_run_no_engine(self, warm_decisions, monkeypatch):
        """50 ``ask``s of fully bound candidates never seen before, once
        each candidate domain is warm: every check is ``probe`` — no scan
        schedule, no Yannakakis run, no relational scan, no SQL statement
        — and no profile builds a plan for a new bound-variable set."""
        session, query, _ = warm_decisions
        frees = frozenset(query.free_variables)
        every = session.query(query).answers
        answers = sorted((a for a in every if a.domain() == frees), key=repr)
        rng = random.Random(5)
        fresh = []
        for i in range(50):  # true answers alternate with perturbed ones
            chosen = answers[(11 * i) % len(answers)].as_dict()
            if i % 2:  # one value from another answer
                var = rng.choice(sorted(frees, key=repr))
                chosen[var] = rng.choice(answers)[var]
            fresh.append(Mapping(chosen))
        session.ask(query, fresh[0])
        entries = session.planner.plans_built
        before = session.stats()["engine_selections"].get(ENGINE_PROBE, 0)
        counts = {}
        _count_calls(monkeypatch, yannakakis_module, "scan_schedule", counts)
        _count_calls(monkeypatch, yannakakis_module, "satisfiable_with_join_tree", counts)
        _count_calls(monkeypatch, relation_module, "scan", counts)
        _count_calls(monkeypatch, SQLiteBackend, "sql_yannakakis", counts)
        _count_calls(monkeypatch, Planner, "check", counts)
        verdicts = [session.ask(query, candidate) for candidate in fresh]
        checks = counts.pop("check")
        assert counts == {
            "scan_schedule": 0, "satisfiable_with_join_tree": 0, "scan": 0,
            "sql_yannakakis": 0,
        }
        assert session.planner.plans_built == entries
        after = session.stats()["engine_selections"].get(ENGINE_PROBE, 0)
        assert checks > 0 and after - before == checks
        assert verdicts == [c in every for c in fresh]
        assert any(verdicts) and not all(verdicts)

    def test_kept_instruments_are_the_registry_s(self):
        """What ``record_engine`` keeps are the registry's own series:
        snapshots, ``engine_selections`` and the exposition read them,
        also after a reset."""
        planner = Planner()
        planner.record_engine("yannakakis", 0.5)
        planner.metrics.reset()
        planner.record_engine("yannakakis", 0.25)
        planner.record_engine("naive", 0.25)
        snapshot = planner.metrics.snapshot()
        assert snapshot["counters"]['planner.engine.selected{engine="yannakakis"}'] == 1
        assert snapshot["counters"]["planner.engine_seconds"] == 0.5
        assert snapshot["histograms"]['planner.engine_latency{engine="naive"}']["count"] == 1
        assert planner.engine_selections == {"yannakakis": 1, "naive": 1}
        assert 'repro_planner_engine_selected{engine="naive"} 1' in (
            planner.metrics.to_prometheus()
        )
