"""The one elimination-order search behind treewidth and ghw: widths,
decisions and decompositions split on connected components, so a
disconnected hypergraph larger than ``EXACT_VERTEX_LIMIT`` in total still
gets exact answers and minimum-width witnesses."""

import pytest

from repro.exceptions import BudgetExceededError
from repro.hypergraphs import treewidth
from repro.hypergraphs.hypergraph import Hypergraph
from repro.hypergraphs.hypertree import (
    hypertree_decomposition,
    hypertreewidth_at_most,
    hypertreewidth_exact,
)
from repro.hypergraphs.treewidth import (
    EXACT_VERTEX_LIMIT,
    tree_decomposition,
    treewidth_exact,
    treewidth_upper_bound,
)

#: A connected 12-vertex graph on which min-fill and min-degree both
#: overshoot: treewidth 4, heuristic width 5.
GAP_GRAPH = [
    (0, 2), (0, 5), (0, 8), (0, 11), (1, 9), (2, 5), (2, 6), (2, 9), (3, 4), (3, 5),
    (3, 6), (3, 8), (3, 11), (4, 5), (4, 7), (4, 8), (4, 9), (4, 10), (5, 6), (5, 8),
    (5, 10), (5, 11), (7, 10), (9, 11),
]


def copies(edges, n):
    return Hypergraph([{(i, a), (i, b)} for i in range(n) for a, b in edges])


def test_gap_graph_is_a_heuristic_miss():
    H = copies(GAP_GRAPH, 1)
    assert H.is_connected()
    assert treewidth_exact(H) == 4 < treewidth_upper_bound(H) == 5


def test_disconnected_decomposition_is_exact_beyond_the_total_limit():
    H = copies(GAP_GRAPH, 3)
    assert len(H.vertices) > EXACT_VERTEX_LIMIT >= len(copies(GAP_GRAPH, 1).vertices)
    td = tree_decomposition(H)
    assert td.is_valid_for(H)
    assert td.width() == treewidth_exact(H) == 4


def test_disconnected_hypertree_decomposition_is_exact_beyond_the_total_limit():
    H = copies(GAP_GRAPH, 3)
    width = hypertreewidth_exact(H)
    assert width == hypertreewidth_exact(copies(GAP_GRAPH, 1))
    htd = hypertree_decomposition(H)
    assert htd.violations(H) == []
    assert htd.hypertree_width() == width
    assert hypertreewidth_at_most(H, width) and not hypertreewidth_at_most(H, width - 1)


def test_a_component_beyond_the_limit_gets_its_heuristic_order():
    big = Hypergraph([{i, j} for i in range(EXACT_VERTEX_LIMIT + 1) for j in range(i)])
    H = Hypergraph(list(big.edges) + [{(0, a), (0, b)} for a, b in GAP_GRAPH])
    td = tree_decomposition(H)
    assert td.is_valid_for(H)
    # The clique's heuristic order is optimal; the small component is exact.
    assert td.width() == EXACT_VERTEX_LIMIT
    assert max(len(b) for b in td.bags if any(isinstance(v, tuple) for v in b)) - 1 == 4
    with pytest.raises(BudgetExceededError):
        treewidth_exact(H)


@pytest.mark.parametrize("k", [5, 6, 7])
def test_clique_ghw_needs_no_search(monkeypatch, k):
    """On ``K_k`` the ghw scan starts at ``⌈(tw + 1) / 2⌉ = ⌈k / 2⌉``,
    which is the greedy covers' width: no elimination-order search runs."""
    searches = []
    search = treewidth._order_within
    monkeypatch.setattr(
        treewidth, "_order_within", lambda *a: searches.append(a) or search(*a)
    )
    clique = Hypergraph([{i, j} for i in range(k) for j in range(i)])
    assert hypertreewidth_exact(clique) == -(-k // 2)
    assert hypertree_decomposition(clique).hypertree_width() == -(-k // 2)
    assert searches == []


def test_explicit_ghw_bound_below_the_width_is_refused():
    triangle = Hypergraph([{1, 2}, {2, 3}, {1, 3}])
    with pytest.raises(BudgetExceededError):
        hypertree_decomposition(triangle, k=1)
    assert hypertree_decomposition(triangle, k=2).hypertree_width() == 2
