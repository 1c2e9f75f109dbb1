"""Unit tests for the EXPLAIN profiler."""

import pytest

from repro.core.atoms import atom
from repro.wdpt.explain import explain
from repro.wdpt.wdpt import wdpt_from_nested
from repro.workloads.families import figure1_wdpt, prop2_family


class TestFigure1Profile:
    def test_profile_values(self):
        profile = explain(figure1_wdpt())
        assert profile.tree_size == 3
        assert profile.n_variables == 4
        assert profile.projection_free
        assert profile.local_treewidth == 1
        assert profile.interface_width == 2
        assert profile.global_treewidth == 1

    def test_routes(self):
        profile = explain(figure1_wdpt())
        assert "Theorem 7" in profile.eval_route()
        assert "Theorem 8" in profile.partial_eval_route()

    def test_table_renders(self):
        text = explain(figure1_wdpt()).as_table()
        assert "WDPT profile" in text
        assert "EVAL route" in text


class TestRouting:
    def test_wide_interface_tree_loses_theorem7(self):
        profile = explain(prop2_family(8))
        assert profile.interface_width == 8
        # ℓ-TW(1) but interface 8 ≫ 1: Theorem 7 routing refused...
        route = profile.eval_route()
        assert "Theorem 7" not in route or "BI(8)" in route

    def test_projection_free_fallback(self):
        p = prop2_family(8)
        full = p.with_free_variables(sorted(p.variables()))
        profile = explain(full)
        assert profile.projection_free

    def test_cyclic_tree_global_width(self):
        p = wdpt_from_nested(
            (
                [atom("E", "?a", "?b"), atom("E", "?b", "?c"), atom("E", "?c", "?a")],
                [([atom("F", "?a", "?w")], [])],
            ),
            free_variables=["?a", "?w"],
        )
        profile = explain(p)
        assert profile.global_treewidth == 2
        assert profile.node_treewidths[0] == 2
        assert profile.node_hypertreewidths[0] == 2
        assert profile.global_hypertreewidth == 2


class TestRoutesNameWhatRuns:
    def test_projection_free_tree_names_the_dp_ask_runs(self):
        """Projection-free, ℓ-TW(1), interface 4: ``ask`` still runs the
        Theorem 6 DP, so that is the EVAL route EXPLAIN prints."""
        p = wdpt_from_nested(
            (
                [atom("R", "?a"), atom("R", "?b"), atom("R", "?c"), atom("R", "?d")],
                [([atom("S", "?a", "?b")], []), ([atom("S", "?c", "?d")], [])],
            ),
            free_variables=["?a", "?b", "?c", "?d"],
        )
        profile = explain(p)
        assert profile.projection_free and profile.interface_width == 4
        route = profile.eval_route()
        assert route.startswith("Theorem 6 DP: ℓ-TW(1) ∩ BI(4)")
        assert "Theorem 4" not in route
        assert "Theorem 8/9" in profile.partial_eval_route()

    def test_table_lists_each_node_answers_plan(self):
        p = wdpt_from_nested(
            (
                [atom("L", "?x", "?l")],
                [([atom("E", "?x", "?y"), atom("E", "?y", "?z"), atom("E", "?z", "?x")], [])],
            ),
            free_variables=["?x", "?l", "?y", "?z"],
        )
        profile = explain(p)
        assert [plan.engine for plan in profile.node_plans] == ["yannakakis", "treewidth"]
        text = profile.as_table()
        assert "query: node 1 plan" in text and "bucket elimination" in text
        assert "EVAL route (ask)" in text

    def test_treewidth_plan_names_the_width_of_its_order(self, monkeypatch):
        """A Theorem 2 plan names the width of the order it eliminates in,
        not the heuristic bound: with the bound made to read 3, the
        triangle's answers plan still reads TW(2), and its Boolean plan
        with ``?x`` bound reads TW(1), the path ``?y``–``?z`` left over."""
        import repro.planner.profile as profile_module
        from repro.core.terms import Variable
        from repro.hypergraphs.treewidth import order_width
        from repro.planner import Planner

        monkeypatch.setattr(profile_module, "treewidth_upper_bound", lambda H: 3)
        triangle = [atom("E", "?x", "?y"), atom("E", "?y", "?z"), atom("E", "?z", "?x")]
        p = wdpt_from_nested(
            ([atom("L", "?x", "?l")], [(triangle, [])]), free_variables=["?x", "?l", "?y", "?z"]
        )
        planner = Planner()
        node = planner.profile_wdpt(p).node_profile(1)
        assert node.treewidth_upper == 3
        plan = explain(p, planner=planner).node_plans[1]
        assert order_width(node.hypergraph, plan.structure) == 2
        assert "TW(2)" in plan.theorem and "TW(3)" not in plan.theorem
        assert "TW(2) bucket elimination" in explain(p, planner=planner).as_table()
        assert "TW(1)" in node.boolean_plan({Variable("?x")}).theorem
