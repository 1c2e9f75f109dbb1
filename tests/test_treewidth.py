"""Unit tests for treewidth computation and tree decompositions."""

import itertools

import pytest

from repro.exceptions import BudgetExceededError, DecompositionError
from repro.hypergraphs.hypergraph import Hypergraph
from repro.hypergraphs.treedecomp import (
    TreeDecomposition,
    decomposition_from_elimination_order,
)
from repro.hypergraphs.treewidth import (
    min_fill_order,
    order_width,
    tree_decomposition,
    treewidth_at_most,
    treewidth_exact,
    treewidth_lower_bound,
    treewidth_upper_bound,
)


def clique(n):
    return Hypergraph([{i, j} for i, j in itertools.combinations(range(n), 2)])


def path(n):
    return Hypergraph([{i, i + 1} for i in range(n - 1)])


def cycle(n):
    return Hypergraph([{i, (i + 1) % n} for i in range(n)])


def grid(r, c):
    edges = [{(i, j), (i + 1, j)} for i in range(r - 1) for j in range(c)]
    edges += [{(i, j), (i, j + 1)} for i in range(r) for j in range(c - 1)]
    return Hypergraph(edges)


class TestExact:
    def test_known_values(self):
        assert treewidth_exact(path(6)) == 1
        assert treewidth_exact(cycle(6)) == 2
        assert treewidth_exact(clique(5)) == 4
        assert treewidth_exact(grid(3, 3)) == 3
        assert treewidth_exact(grid(4, 4)) == 4

    def test_empty_and_singleton(self):
        assert treewidth_exact(Hypergraph([])) == -1
        assert treewidth_exact(Hypergraph([{1}])) == 0

    def test_disconnected_max_over_components(self):
        H = Hypergraph([{1, 2}, {2, 3}, {10, 11}, {11, 12}, {12, 10}])
        assert treewidth_exact(H) == 2

    def test_hyperedge_forces_width(self):
        H = Hypergraph([{1, 2, 3, 4}])
        assert treewidth_exact(H) == 3

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            treewidth_exact(clique(30))


class TestDecision:
    @pytest.mark.parametrize("k,expected", [(1, False), (2, True), (3, True)])
    def test_cycle(self, k, expected):
        assert treewidth_at_most(cycle(5), k) is expected

    def test_empty(self):
        assert treewidth_at_most(Hypergraph([]), 0)


class TestBounds:
    @pytest.mark.parametrize(
        "H", [path(5), cycle(7), clique(6), grid(3, 4)], ids=["path", "cycle", "clique", "grid"]
    )
    def test_bounds_bracket_exact(self, H):
        exact = treewidth_exact(H)
        assert treewidth_lower_bound(H) <= exact <= treewidth_upper_bound(H)

    def test_order_width_of_greedy_orders(self):
        H = grid(3, 3)
        order = min_fill_order(H)
        assert set(order) == set(H.vertices)
        assert order_width(H, order) >= treewidth_exact(H)


class TestDecompositions:
    @pytest.mark.parametrize(
        "H", [path(5), cycle(6), clique(5), grid(3, 3)], ids=["path", "cycle", "clique", "grid"]
    )
    def test_exact_decomposition_valid_and_tight(self, H):
        td = tree_decomposition(H)
        assert td.is_valid_for(H)
        assert td.width() == treewidth_exact(H)

    def test_heuristic_decomposition_valid(self):
        H = grid(4, 4)
        td = tree_decomposition(H, exact=False)
        assert td.is_valid_for(H)

    def test_from_elimination_order(self):
        H = cycle(5)
        td = decomposition_from_elimination_order(H, sorted(H.vertices))
        assert td.is_valid_for(H)

    def test_elimination_order_must_cover(self):
        with pytest.raises(DecompositionError):
            decomposition_from_elimination_order(path(3), [0])

    def test_disconnected_decomposition(self):
        H = Hypergraph([{1, 2}, {3, 4}])
        td = tree_decomposition(H)
        assert td.is_valid_for(H)


class TestTreeDecompositionValidity:
    def test_detects_missing_edge(self):
        H = Hypergraph([{1, 2}, {2, 3}])
        bad = TreeDecomposition([{1, 2}, {3}], [(0, 1)])
        assert not bad.is_valid_for(H)
        assert any("hyperedge" in v for v in bad.violations(H))

    def test_detects_disconnected_occurrence(self):
        H = Hypergraph([{1, 2}, {2, 3}])
        bad = TreeDecomposition([{1, 2}, {3}, {2, 3}], [(0, 1), (1, 2)])
        assert not bad.is_valid_for(H)

    def test_tree_shape_enforced(self):
        with pytest.raises(DecompositionError):
            TreeDecomposition([{1}, {2}], [])  # forest, not a tree
        with pytest.raises(DecompositionError):
            TreeDecomposition([{1}], [(0, 0)])

    def test_width(self):
        td = TreeDecomposition([{1, 2, 3}, {3}], [(0, 1)])
        assert td.width() == 2
