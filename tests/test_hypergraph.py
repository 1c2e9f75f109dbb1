"""Unit tests for repro.hypergraphs.hypergraph."""

import pytest

from repro.core.atoms import atom
from repro.core.cq import cq
from repro.core.terms import Variable
from repro.hypergraphs.hypergraph import Hypergraph, hypergraph_of_cq


class TestStructure:
    def test_vertices_from_edges(self):
        H = Hypergraph([{1, 2}, {2, 3}])
        assert H.vertices == {1, 2, 3}

    def test_isolated_vertices(self):
        H = Hypergraph([{1, 2}], vertices=[5])
        assert 5 in H.vertices
        assert H.degree(5) == 0

    def test_empty_edges_dropped(self):
        H = Hypergraph([set(), {1}])
        assert H.edges == {frozenset({1})}

    def test_incident_and_degree(self):
        H = Hypergraph([{1, 2}, {2, 3}, {2}])
        assert H.degree(2) == 3
        assert H.degree(1) == 1

    def test_neighbours(self):
        H = Hypergraph([{1, 2, 3}, {3, 4}])
        assert H.neighbours(3) == {1, 2, 4}

    def test_equality_and_hash(self):
        assert Hypergraph([{1, 2}]) == Hypergraph([{2, 1}])
        assert hash(Hypergraph([{1, 2}])) == hash(Hypergraph([{1, 2}]))


class TestDerived:
    def test_primal_graph(self):
        H = Hypergraph([{1, 2, 3}])
        primal = H.primal_graph()
        assert primal[1] == {2, 3}

    def test_induced_subhypergraph(self):
        H = Hypergraph([{1, 2, 3}, {3, 4}])
        sub = H.induced_subhypergraph({1, 2, 3})
        assert sub.vertices == {1, 2, 3}
        assert frozenset({1, 2, 3}) in sub.edges
        assert frozenset({3}) in sub.edges  # {3,4} ∩ keep

    def test_partial_subhypergraph(self):
        H = Hypergraph([{1, 2}, {2, 3}])
        sub = H.partial_subhypergraph([frozenset({1, 2})])
        assert sub.edges == {frozenset({1, 2})}
        with pytest.raises(ValueError):
            H.partial_subhypergraph([frozenset({9})])

    def test_connected_components(self):
        H = Hypergraph([{1, 2}, {3, 4}], vertices=[5])
        comps = {frozenset(c) for c in H.connected_components()}
        assert comps == {frozenset({1, 2}), frozenset({3, 4}), frozenset({5})}
        assert not H.is_connected()

    def test_empty_is_connected(self):
        assert Hypergraph([]).is_connected()
        assert Hypergraph([]).is_empty()


class TestCQBridge:
    def test_hypergraph_of_cq_ignores_constants(self):
        q = cq([], [atom("R", "?x", "?y", "?z"), atom("R", "?x", "?v", "?v"), atom("E", "?v", "?z")])
        H = hypergraph_of_cq(q)
        # The example after Theorem 2 in the paper.
        assert frozenset({Variable("x"), Variable("y"), Variable("z")}) in H.edges
        assert frozenset({Variable("x"), Variable("v")}) in H.edges
        assert frozenset({Variable("v"), Variable("z")}) in H.edges

    def test_all_constant_atoms_contribute_nothing(self):
        q = cq([], [atom("R", 1, 2), atom("E", "?x", "?y")])
        H = hypergraph_of_cq(q)
        assert len(H.edges) == 1
