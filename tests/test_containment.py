"""Unit tests for CQ containment / equivalence / union reduction."""

import pytest

from repro.core.atoms import atom
from repro.core.cq import cq
from repro.cqalgs.containment import is_contained_in, reduce_union, union_contained
from tests.harness.oracles import are_equivalent, is_properly_contained_in


@pytest.fixture
def edge():
    return cq(["?x"], [atom("E", "?x", "?y")])


@pytest.fixture
def path2():
    return cq(["?x"], [atom("E", "?x", "?y"), atom("E", "?y", "?z")])


class TestContainment:
    def test_longer_path_contained_in_shorter(self, edge, path2):
        assert is_contained_in(path2, edge)
        assert not is_contained_in(edge, path2)

    def test_reflexive(self, edge):
        assert is_contained_in(edge, edge)

    def test_different_free_variables(self, edge):
        other = cq(["?y"], [atom("E", "?x", "?y")])
        assert not is_contained_in(edge, other)

    def test_constants(self):
        specific = cq(["?x"], [atom("E", "?x", "a")])
        general = cq(["?x"], [atom("E", "?x", "?y")])
        assert is_contained_in(specific, general)
        assert not is_contained_in(general, specific)

    def test_triangle_contained_in_self_loop_free(self):
        tri = cq([], [atom("E", "?x", "?y"), atom("E", "?y", "?z"), atom("E", "?z", "?x")])
        loop = cq([], [atom("E", "?w", "?w")])
        # loop ⊆ triangle (map all of triangle onto the loop), not vice versa
        assert is_contained_in(loop, tri)
        assert not is_contained_in(tri, loop)

    def test_proper(self, edge, path2):
        assert is_properly_contained_in(path2, edge)
        assert not is_properly_contained_in(edge, edge)


class TestEquivalence:
    def test_redundant_atom(self, edge):
        redundant = cq(["?x"], [atom("E", "?x", "?y"), atom("E", "?x", "?z")])
        assert are_equivalent(edge, redundant)

    def test_renamed_existentials(self, edge):
        renamed = cq(["?x"], [atom("E", "?x", "?w")])
        assert are_equivalent(edge, renamed)

    def test_not_equivalent(self, edge, path2):
        assert not are_equivalent(edge, path2)


class TestUnions:
    def test_union_containment(self, edge, path2):
        assert union_contained([path2], [edge])
        assert union_contained([path2, edge], [edge])
        assert not union_contained([edge], [path2])

    def test_union_equivalence(self, edge, path2):
        assert union_contained([edge, path2], [edge])
        assert union_contained([edge], [edge, path2])

    def test_reduce_union_removes_contained(self, edge, path2):
        reduced = reduce_union([edge, path2])
        assert reduced == [edge]

    def test_reduce_union_keeps_incomparable(self, edge):
        other = cq(["?x"], [atom("F", "?x", "?y")])
        assert set(reduce_union([edge, other])) == {edge, other}

    def test_reduce_union_deduplicates_equivalent(self, edge):
        renamed = cq(["?x"], [atom("E", "?x", "?w")])
        assert len(reduce_union([edge, renamed])) == 1
