"""Unit tests for CQ cores and semantic width membership."""

import pytest

from repro.core.atoms import atom
from repro.core.cq import cq
from repro.cqalgs.cores import (
    core,
    semantically_in_beta_hw,
    semantically_in_tw,
)
from tests.harness.oracles import are_equivalent


class TestCore:
    def test_core_is_equivalent(self):
        q = cq([], [atom("E", "?x", "?y"), atom("E", "?a", "?b"), atom("E", "?b", "?c")])
        c = core(q)
        assert are_equivalent(q, c)

    def test_redundant_edge_folds_away(self):
        q = cq([], [atom("E", "?x", "?y"), atom("E", "?u", "?v"), atom("E", "?v", "?u")])
        c = core(q)
        # The 2-cycle absorbs the single edge.
        assert len(c.variables()) == 2

    def test_core_of_core_is_core(self):
        q = cq([], [atom("E", "?x", "?y"), atom("E", "?y", "?z")])
        assert core(core(q)) == core(q)

    def test_free_variables_fixed(self):
        q = cq(["?x"], [atom("E", "?x", "?y"), atom("E", "?u", "?v")])
        c = core(q)
        assert c.free_variables == (q.free_variables[0],)
        # ?u, ?v can fold onto ?x, ?y but ?x must survive.
        assert q.free_variables[0] in c.variables()

    def test_triangle_is_its_own_core(self):
        tri = cq([], [atom("E", "?x", "?y"), atom("E", "?y", "?z"), atom("E", "?z", "?x")])
        assert core(tri) == tri

    def test_loop_folds_triangle_with_loop(self):
        q = cq(
            [],
            [
                atom("E", "?x", "?y"),
                atom("E", "?y", "?z"),
                atom("E", "?z", "?x"),
                atom("E", "?w", "?w"),
            ],
        )
        c = core(q)
        assert len(c.atoms) == 1  # everything folds into the self-loop

    def test_is_core_detects_foldable(self):
        q = cq([], [atom("E", "?x", "?y"), atom("E", "?a", "?b")])
        assert len(core(q).atoms) == 1


class TestSemanticMembership:
    def test_triangle_semantic_tw(self):
        tri = cq([], [atom("E", "?x", "?y"), atom("E", "?y", "?z"), atom("E", "?z", "?x")])
        assert not semantically_in_tw(tri, 1)
        assert semantically_in_tw(tri, 2)

    def test_triangle_with_loop_is_semantically_tw1(self):
        q = cq(
            [],
            [
                atom("E", "?x", "?y"),
                atom("E", "?y", "?z"),
                atom("E", "?z", "?x"),
                atom("E", "?w", "?w"),
            ],
        )
        assert semantically_in_tw(q, 1)

    def test_semantic_beta_hw(self):
        tri = cq([], [atom("E", "?x", "?y"), atom("E", "?y", "?z"), atom("E", "?z", "?x")])
        assert not semantically_in_beta_hw(tri, 1)
        assert semantically_in_beta_hw(tri, 2)

    def test_acyclic_query_trivially_member(self):
        q = cq(["?x"], [atom("E", "?x", "?y"), atom("F", "?y", "?z")])
        assert semantically_in_tw(q, 1)
        assert semantically_in_beta_hw(q, 1)
