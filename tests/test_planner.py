"""Unit and property tests for the query-planning layer.

Covers the satellite acceptance criteria: stable structural fingerprints,
LRU bound + hit/miss accounting of the plan cache, analysis reuse across
structurally identical queries, cross-engine answer equivalence on seeded
random workloads, and the session-level instrumentation surface.
"""

import pytest

from repro.core.atoms import atom
from repro.core.cq import ConjunctiveQuery
from repro.core.mappings import Mapping
from repro.cqalgs.dispatch import evaluate
from repro.cqalgs.naive import evaluate_naive
from repro.engine import Session
from repro.planner import (
    ENGINE_NAIVE,
    ENGINE_TREEWIDTH,
    ENGINE_YANNAKAKIS,
    TW_CUTOFF,
    PlanCache,
    Planner,
)
from repro.wdpt.eval_tractable import eval_tractable
from repro.wdpt.max_eval import max_eval
from repro.wdpt.partial_eval import partial_eval
from repro.workloads.generators import random_cq, random_database, random_wdpt


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

    def test_routing_matches_structure(self):
        planner = Planner()
        path = ConjunctiveQuery(["?x"], [atom("E", "?x", "?y"), atom("E", "?y", "?z")])
        assert planner.plan_cq(path).engine == ENGINE_YANNAKAKIS
        triangle = ConjunctiveQuery(
            ["?x"],
            [atom("E", "?x", "?y"), atom("E", "?y", "?z"), atom("E", "?z", "?x")],
        )
        assert planner.plan_cq(triangle).engine == ENGINE_TREEWIDTH
        assert "Theorem" in planner.plan_cq(path).theorem

    def test_explain_names_the_engine_the_dispatch_site_reads(self):
        """``plan.engine`` is ``profile.engine`` — one rule, on the profile —
        for a shape on each side of it."""
        planner = Planner()
        clique = [atom("E", "?v%d" % i, "?v%d" % j) for i in range(5) for j in range(i)]
        shapes = {
            ENGINE_YANNAKAKIS: [atom("E", "?x", "?y"), atom("E", "?y", "?z")],
            ENGINE_TREEWIDTH: [
                atom("E", "?x", "?y"), atom("E", "?y", "?z"), atom("E", "?z", "?x")
            ],
            ENGINE_NAIVE: clique,  # K5: treewidth 4 > TW_CUTOFF
        }
        assert TW_CUTOFF == 3
        for engine, atoms in shapes.items():
            profile = planner.profile_cq(ConjunctiveQuery([], atoms))
            assert profile.engine == engine
            assert planner.plan_for_profile("", profile).engine == profile.engine

    def test_boolean_checks_build_no_plan(self):
        """The routing decision is read off the profile: a run counts an
        engine selection, never a plan."""
        planner = Planner()
        db = random_database(20, domain_size=5, seed=1)
        profile = planner.profile_cq(
            ConjunctiveQuery([], [atom("E", "?x", "?y"), atom("E", "?y", "?z")])
        )
        for value in range(50):
            planner.satisfiable_substituted(
                profile, Mapping({"?x": value % 5}).as_dict(), db
            )
        assert planner.plans_built == 0
        assert planner.engine_selections == {ENGINE_YANNAKAKIS: 50}
        assert sum(planner.kernel_selections.values()) == 50

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
        assert stats["subtree_profiles"]["hits"] > 0
        # One tree profile, one structural analysis of its subtree shape.
        assert stats["subtree_profiles"]["misses"] <= len(p.tree.nodes())
        assert stats["plan_cache"]["misses"] == 1


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
        assert evaluate(q, db, method="auto", planner=planner) == expected
        # Second evaluation of an equal query object hits the cache and
        # still agrees.
        q2 = random_cq(4, 5, n_free=2, seed=seed)
        assert evaluate(q2, db, method="auto", planner=planner) == expected
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
            q, db, method="auto", planner=self.shared_planner
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
