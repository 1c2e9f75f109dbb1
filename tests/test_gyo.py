"""Unit tests for GYO reduction, acyclicity, and join trees."""

import pytest

from repro.core.atoms import atom
from repro.hypergraphs.gyo import (
    gyo_reduction,
    is_alpha_acyclic,
    join_tree_of_atoms,
    join_tree_shape,
)
from repro.hypergraphs.hypergraph import Hypergraph
from tests.harness.oracles import join_tree_is_valid


class TestAcyclicity:
    def test_path_acyclic(self):
        assert is_alpha_acyclic(Hypergraph([{1, 2}, {2, 3}, {3, 4}]))

    def test_triangle_cyclic(self):
        assert not is_alpha_acyclic(Hypergraph([{1, 2}, {2, 3}, {1, 3}]))

    def test_triangle_plus_big_edge_acyclic(self):
        # α-acyclicity is NOT closed under subhypergraphs.
        H = Hypergraph([{1, 2}, {2, 3}, {1, 3}, {1, 2, 3}])
        assert is_alpha_acyclic(H)

    def test_empty_and_single(self):
        assert is_alpha_acyclic(Hypergraph([]))
        assert is_alpha_acyclic(Hypergraph([{1, 2, 3}]))

    def test_cycle4_cyclic(self):
        assert not is_alpha_acyclic(Hypergraph([{1, 2}, {2, 3}, {3, 4}, {4, 1}]))

    def test_reduction_remainder(self):
        H = Hypergraph([{1, 2}, {2, 3}, {1, 3}])
        remainder = gyo_reduction(H)
        assert len(remainder.edges) == 3  # irreducible core


class TestJoinTrees:
    def test_path_query(self):
        atoms = [atom("E", "?x", "?y"), atom("E", "?y", "?z"), atom("E", "?z", "?w")]
        links = join_tree_of_atoms(atoms)
        assert links is not None
        assert join_tree_is_valid(atoms, links)

    def test_cyclic_query_has_no_join_tree(self):
        atoms = [atom("E", "?x", "?y"), atom("E", "?y", "?z"), atom("E", "?z", "?x")]
        assert join_tree_of_atoms(atoms) is None

    def test_duplicate_variable_sets(self):
        atoms = [atom("E", "?x", "?y"), atom("F", "?x", "?y")]
        links = join_tree_of_atoms(atoms)
        assert links is not None and join_tree_is_valid(atoms, links)

    def test_disconnected_query(self):
        atoms = [atom("E", "?x", "?y"), atom("E", "?u", "?v")]
        links = join_tree_of_atoms(atoms)
        assert links is not None and join_tree_is_valid(atoms, links)

    def test_single_atom(self):
        assert join_tree_of_atoms([atom("E", "?x", "?y")]) == []

    def test_empty(self):
        assert join_tree_of_atoms([]) == []

    def test_root_and_children(self):
        atoms = [atom("E", "?x", "?y"), atom("E", "?y", "?z")]
        links = join_tree_of_atoms(atoms)
        tree = join_tree_shape(links, 2)
        assert tree.children[tree.root] == [1 - tree.root]
        assert tree.parent == {1 - tree.root: tree.root}
        assert tree.order == [tree.root, 1 - tree.root]

    def test_shape_rejects_links_that_are_not_one_tree(self):
        with pytest.raises(ValueError, match="2 roots"):
            join_tree_shape([(0, 1)], 3)
        with pytest.raises(ValueError, match="reach 1 of 3"):
            join_tree_shape([(1, 2), (2, 1)], 3)

    def test_star_query(self):
        atoms = [atom("E", "?c", "?r%d" % i) for i in range(4)]
        links = join_tree_of_atoms(atoms)
        assert links is not None and join_tree_is_valid(atoms, links)

    def test_validity_rejects_bad_tree(self):
        atoms = [atom("E", "?x", "?y"), atom("F", "?y", "?z"), atom("G", "?x", "?w")]
        # Connecting G to F breaks running intersection for ?x.
        assert not join_tree_is_valid(atoms, [(0, 1), (2, 1)])
