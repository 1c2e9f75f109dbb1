"""Generalized hypertree decompositions and the ``HW(k)`` test.

The paper works with *generalized* hypertreewidth (its Remark in
Section 3.1): a hypertree decomposition is a tree decomposition ``(S, ν)``
together with edge covers ``κ(s)`` (≤ width many hyperedges per node) such
that ``ν(s) ⊆ ⋃κ(s)``.

Recognizing ``ghw ≤ k`` is NP-hard even for fixed ``k``, so any exact
procedure is exponential.  We exploit the classical correspondence between
tree decompositions and elimination orders: every tree decomposition can be
refined into one induced by an elimination order whose bags are (subsets of)
the original bags, and the edge-cover number ``ρ`` is monotone under taking
subsets.  Hence

    ``ghw(H) = min over elimination orders of max_s ρ(bag(s))``

which is the search of :mod:`repro.hypergraphs.treewidth` with the bag cost
``ρ(bag)``: an exact set cover, memoised by bag bitmask and shared by every
``k`` one scan tries.  The exact width scans ``k`` upwards from 1 (α-acyclic,
by GYO) or 2 — or from ``⌈(tw + 1) / r⌉`` when that is higher, a bag of
``tw + 1`` vertices needing that many edges of at most ``r`` vertices
(``tw`` the treewidth lower bound, ``r`` the largest edge) — to the width
of greedy covers along the min-fill order, one connected component at a
time; the order of the first ``k`` accepted is the decomposition's witness.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..exceptions import BudgetExceededError
from .gyo import is_alpha_acyclic
from .hypergraph import Edge, Hypergraph, Vertex
from .treedecomp import (
    TreeDecomposition,
    _elimination_bags,
    decomposition_from_elimination_order,
)
from .treewidth import (
    _BitGraph,
    _check_size,
    _components,
    _iter_bits,
    _minimum_order,
    _order_within,
    min_fill_order,
    treewidth_lower_bound,
)


# ---------------------------------------------------------------------------
# Edge covers
# ---------------------------------------------------------------------------
def edge_cover_number(H: Hypergraph, bag: FrozenSet[Vertex], limit: int) -> Optional[int]:
    """Exact minimum number of hyperedges of ``H`` covering ``bag``.

    Returns the cover number if it is ≤ ``limit``, else ``None``.
    """
    cover = minimum_edge_cover(H, bag, limit)
    return None if cover is None else len(cover)


def minimum_edge_cover(
    H: Hypergraph, bag: FrozenSet[Vertex], limit: int
) -> Optional[List[Edge]]:
    """A minimum edge cover of ``bag`` of size ≤ ``limit`` (or ``None``).

    Runs a branch-and-bound over the uncovered vertex with fewest candidate
    edges.
    """
    return _cover(frozenset(bag), [e for e in H.edges if e & bag], limit)


def _cover(uncovered: FrozenSet[Vertex], edges: Sequence[Edge], limit: int) -> Optional[List[Edge]]:
    if not uncovered:
        return []
    if limit <= 0:
        return None
    # Branch on the hardest vertex (fewest covering edges).
    best_vertex = None
    best_candidates: List[Edge] = []
    for v in uncovered:
        candidates = [e for e in edges if v in e]
        if not candidates:
            return None
        if best_vertex is None or len(candidates) < len(best_candidates):
            best_vertex, best_candidates = v, candidates
    best: Optional[List[Edge]] = None
    # Deduplicate candidates by their effect on the uncovered set.
    seen_effects: Set[FrozenSet[Vertex]] = set()
    for e in sorted(best_candidates, key=lambda e: -len(e & uncovered)):
        effect = e & uncovered
        if effect in seen_effects:
            continue
        seen_effects.add(effect)
        # A cover found later must beat the best one by at least one edge.
        budget = limit - 1 if best is None else min(limit - 1, len(best) - 2)
        sub = _cover(uncovered - e, edges, budget)
        if sub is not None:
            best = [e] + sub
            if len(best) == 1:
                break
    return best


def greedy_edge_cover(H: Hypergraph, bag: FrozenSet[Vertex]) -> Optional[List[Edge]]:
    """A greedy (not necessarily minimum) edge cover of ``bag``, or ``None``
    when some vertex of ``bag`` lies in no edge."""
    uncovered = set(bag)
    cover: List[Edge] = []
    while uncovered:
        best = max(H.edges, key=lambda e: len(e & uncovered), default=None)
        if best is None or not best & uncovered:
            return None
        cover.append(best)
        uncovered -= best
    return cover


# ---------------------------------------------------------------------------
# Generalized hypertreewidth
# ---------------------------------------------------------------------------
def hypertreewidth_at_most(H: Hypergraph, k: int) -> bool:
    """Decision ``ghw(H) ≤ k``.

    Fast paths: ``k ≥ |E|`` (cover everything edge-by-edge), ``k = 1`` via
    GYO, and a greedy min-fill order whose greedy covers already fit.
    """
    if k < 0:
        return False
    if not H.edges:
        return True
    if _uncovered(H):
        return False
    if len(H.edges) <= k:
        return True
    if is_alpha_acyclic(H):
        return k >= 1
    if k == 1:
        return False  # not acyclic
    if _greedy_cover_width(H, min_fill_order(H)) <= k:
        return True
    components = H.connected_components()
    if len(components) > 1:
        return all(
            hypertreewidth_at_most(H.induced_subhypergraph(c), k) for c in components
        )
    _check_size(H, "exact ghw decision")
    graph = _BitGraph(H)
    return _order_within(graph, _rho(H)(graph, k), k) is not None


def hypertreewidth_exact(H: Hypergraph) -> int:
    """Exact generalized hypertreewidth: the maximum over connected
    components (0 for edgeless hypergraphs; ``|E|`` when a vertex lies in
    no hyperedge, which no width covers)."""
    if not H.edges:
        return 0
    if _uncovered(H):
        return len(H.edges)
    return max(_exact(part)[0] for part in _components(H))


def hypertree_decomposition(H: Hypergraph, k: Optional[int] = None) -> TreeDecomposition:
    """A generalized hypertree decomposition of minimum width, with per-bag
    minimum edge covers attached; ``k`` bounds the width it may have.

    Built from the elimination order each connected component's exact run
    accepted.
    """
    if not H.edges:
        return TreeDecomposition([frozenset(H.vertices)], [], covers=[frozenset()])
    if _uncovered(H):
        raise BudgetExceededError("a vertex lies in no hyperedge: no width covers it")
    order: List[Vertex] = []
    for part in _components(H):
        width, part_order = _exact(part)
        if k is not None and width > k:
            raise BudgetExceededError("hypergraph has ghw > %d" % k)
        order.extend(part_order)
    td = decomposition_from_elimination_order(H, order)
    covers = [frozenset(minimum_edge_cover(H, bag, len(H.edges))) for bag in td.bags]
    return TreeDecomposition(td.bags, td.tree_edges, covers=covers)


def _exact(H: Hypergraph) -> Tuple[int, List[Vertex]]:
    """ghw of the connected, edge-covered ``H`` and an elimination order of
    that width, from the first decision run that succeeds."""
    order = min_fill_order(H)
    hi = _greedy_cover_width(H, order)
    lo = 1 if is_alpha_acyclic(H) else 2
    if lo < hi:
        # Some bag holds tw + 1 vertices, and an edge covers at most
        # ``rank`` of them: ghw ≥ ⌈(tw + 1) / rank⌉.
        rank = max(map(len, H.edges))
        lo = max(lo, -(-(treewidth_lower_bound(H) + 1) // rank))
    if lo < hi:
        _check_size(H, "exact ghw")
    return _minimum_order(H, _rho(H), lo, hi, order)


def _rho(H: Hypergraph) -> Callable[[_BitGraph, int], Callable[[int, int], int]]:
    """The ghw bag cost: ``_rho(H)(graph, k)`` is the cost
    :func:`~repro.hypergraphs.treewidth._order_within` runs on ``graph`` (of
    ``H``) at width ``k`` — ``ρ(bag)``, or some value above ``k`` once
    ``ρ(bag) > k``.

    One memo serves every ``k``: keyed by bag bitmask, an entry is the
    exact ``ρ`` (≥ 1), or ``−(j + 1)`` when only ``ρ > j`` is known.
    """
    memo: Dict[int, int] = {}

    def at(graph: _BitGraph, k: int) -> Callable[[int, int], int]:
        def cost(eliminated: int, v: int) -> int:
            mask = graph.q_mask(eliminated, v) | 1 << v
            rho = memo.get(mask)
            if rho is None or -k <= rho < 0:  # unknown, or known only above a smaller k
                bag = frozenset(graph.vertices[u] for u in _iter_bits(mask))
                size = edge_cover_number(H, bag, k)
                rho = memo[mask] = -(k + 1) if size is None else size
            return abs(rho)

        return cost

    return at


def _greedy_cover_width(H: Hypergraph, order: Sequence[Vertex]) -> int:
    """Max greedy-cover size of the bags along ``order``: an upper bound on
    ghw (greedy covers upper-bound ρ); every vertex must lie in an edge."""
    return max(len(greedy_edge_cover(H, bag)) for _, bag in _elimination_bags(H, order))


def _uncovered(H: Hypergraph) -> bool:
    """Does some vertex lie in no hyperedge (so no edge cover exists)?"""
    return any(not H.incident_edges(v) for v in H.vertices)
