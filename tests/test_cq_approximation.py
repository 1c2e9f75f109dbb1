"""Unit tests for TW(k)/HW'(k) approximations of CQs (BLR'14 machinery)."""

import pytest

from repro.core.atoms import atom
from repro.core.cq import cq
from repro.cqalgs.approximation import (
    approximations,
    in_beta_hw,
    in_tw,
    tw_approximations,
    union_approximation,
)
from repro.cqalgs.containment import is_contained_in
from repro.exceptions import ConstantsNotSupportedError
from repro.hypergraphs.hypergraph import hypergraph_of_cq
from repro.hypergraphs.treewidth import treewidth_at_most
from tests.harness.oracles import are_equivalent, is_approximation


@pytest.fixture
def tri():
    return cq([], [atom("E", "?x", "?y"), atom("E", "?y", "?z"), atom("E", "?z", "?x")])


class TestTwApproximations:
    def test_triangle_tw1_is_self_loop(self, tri):
        apps = tw_approximations(tri, 1)
        assert len(apps) == 1
        assert are_equivalent(apps[0], cq([], [atom("E", "?w", "?w")]))

    def test_already_in_class_returns_core(self):
        q = cq(["?x"], [atom("E", "?x", "?y")])
        apps = tw_approximations(q, 1)
        assert len(apps) == 1 and are_equivalent(apps[0], q)

    def test_soundness(self, tri):
        for k in (1, 2):
            for a in tw_approximations(tri, k):
                assert is_contained_in(a, tri)
                assert treewidth_at_most(hypergraph_of_cq(a), k)

    def test_tw2_approximation_is_triangle_itself(self, tri):
        apps = tw_approximations(tri, 2)
        assert len(apps) == 1 and are_equivalent(apps[0], tri)

    def test_free_variables_preserved(self):
        q = cq(
            ["?x"],
            [atom("E", "?x", "?y"), atom("E", "?y", "?z"), atom("E", "?z", "?x")],
        )
        for a in tw_approximations(q, 1):
            assert a.free_variables == q.free_variables

    def test_constants_rejected(self):
        with pytest.raises(ConstantsNotSupportedError):
            tw_approximations(cq([], [atom("E", "?x", "c")]), 1)


class TestBetaHwApproximations:
    def test_triangle_hw1(self, tri):
        apps = approximations(tri, in_beta_hw(1))
        assert apps
        for a in apps:
            assert is_contained_in(a, tri)

    def test_k2_keeps_triangle(self, tri):
        apps = approximations(tri, in_beta_hw(2))
        assert len(apps) == 1 and are_equivalent(apps[0], tri)


class TestIsApproximation:
    def test_positive(self, tri):
        loop = cq([], [atom("E", "?w", "?w")])
        assert is_approximation(loop, tri, in_tw(1))

    def test_rejects_non_member(self, tri):
        assert not is_approximation(tri, tri, in_tw(1))

    def test_rejects_non_maximal(self, tri):
        # E(w,w) ∧ G(u) is in TW(1) and ⊆ tri, but strictly below the
        # self-loop approximation, hence not maximal.
        weaker = cq([], [atom("E", "?w", "?w"), atom("G", "?u")])
        loop = cq([], [atom("E", "?w", "?w")])
        assert is_contained_in(weaker, loop)
        assert not are_equivalent(weaker, loop)
        assert not is_approximation(weaker, tri, in_tw(1))

    def test_rejects_not_contained(self, tri):
        other = cq([], [atom("F", "?x", "?x")])
        assert not is_approximation(other, tri, in_tw(1))


class TestUnionApproximation:
    def test_union_is_union_of_approximations(self, tri):
        edge = cq([], [atom("E", "?a", "?b")])
        apps = union_approximation([tri, edge], in_tw(1))
        # tri contributes its loop approximation, edge contributes itself.
        assert any(are_equivalent(a, cq([], [atom("E", "?w", "?w")])) for a in apps)
        assert any(are_equivalent(a, edge) for a in apps)
