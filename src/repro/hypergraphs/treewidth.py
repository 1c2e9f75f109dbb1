"""Treewidth: exact computation, heuristic bounds, and the ``TW(k)`` test.

Treewidth drives the class ``TW(k)`` of the paper (Section 3.1).  Queries in
scope here are small (tens of variables), so exact widths are feasible by
one search over elimination orders, :func:`_order_within`: is there an order
of the remaining vertices all of whose bags cost at most ``k``?  It is
memoised on the set of remaining vertices (a bitmask), records only the
infeasible sets, and returns the order it found, so a successful decision is
its own witness.  The cost of eliminating ``v`` after the set ``S`` is a
function of its bag ``{v} ∪ Q(S, v)``, where ``Q(S, v)`` is the set of
vertices outside ``S ∪ {v}`` reachable from ``v`` through ``S``:
``|Q(S, v)|`` here, the edge-cover number ``ρ`` in
:mod:`repro.hypergraphs.hypertree`.

The exact width is the first ``k`` that search accepts, scanning from the
minor-min-width lower bound up to the min-fill / min-degree upper bound,
one connected component at a time.

Public API:

* :func:`treewidth_exact` — the exact treewidth.
* :func:`treewidth_at_most` — decision ``tw(H) ≤ k`` (with fast paths).
* :func:`treewidth_upper_bound` / :func:`treewidth_lower_bound`.
* :func:`elimination_order` — an order of minimum width (or of heuristic
  width when ``exact=False``), the one the Theorem 2 engine eliminates in.
* :func:`tree_decomposition` — the witness decomposition that order
  induces.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..exceptions import BudgetExceededError
from .hypergraph import Hypergraph, Vertex
from .treedecomp import (
    TreeDecomposition,
    _elimination_bags,
    decomposition_from_elimination_order,
)

#: Above this many vertices (per connected component) the exact algorithm
#: refuses to run.
EXACT_VERTEX_LIMIT = 26


# ---------------------------------------------------------------------------
# Bitmask plumbing and the one search
# ---------------------------------------------------------------------------
class _BitGraph:
    """Primal graph with vertices packed into an int bitmask."""

    __slots__ = ("vertices", "index", "adj", "full")

    def __init__(self, H: Hypergraph):
        self.vertices: List[Vertex] = sorted(H.vertices, key=repr)
        self.index: Dict[Vertex, int] = {v: i for i, v in enumerate(self.vertices)}
        primal = H.primal_graph()
        self.adj: List[int] = [0] * len(self.vertices)
        for v, ns in primal.items():
            mask = 0
            for u in ns:
                mask |= 1 << self.index[u]
            self.adj[self.index[v]] = mask
        self.full = (1 << len(self.vertices)) - 1

    def q_size(self, through: int, v: int) -> int:
        """``|Q(through, v)|``: vertices outside ``through ∪ {v}`` reachable
        from ``v`` via paths whose internal vertices lie in ``through``."""
        return _popcount(self.q_mask(through, v))

    def q_mask(self, through: int, v: int) -> int:
        vbit = 1 << v
        outside = self.full & ~through & ~vbit
        reached_outside = self.adj[v] & outside
        frontier = self.adj[v] & through
        visited = vbit | frontier
        while frontier:
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                f ^= low
                nxt |= self.adj[low.bit_length() - 1]
            reached_outside |= nxt & outside
            frontier = nxt & through & ~visited
            visited |= frontier
        return reached_outside


def _order_within(
    graph: _BitGraph, cost: Callable[[int, int], int], k: int
) -> Optional[List[Vertex]]:
    """An elimination order of ``graph`` none of whose bags costs more than
    ``k``, or ``None`` when there is none.  ``cost(eliminated, v)`` prices
    the bag of ``v`` eliminated after the vertex set ``eliminated`` (a bit
    index and a bitmask)."""
    infeasible: Set[int] = set()
    found: List[int] = []  # filled on the way back up: last-eliminated first

    def search(remaining: int) -> bool:
        if not remaining:
            return True
        if remaining in infeasible:
            return False
        eliminated = graph.full & ~remaining
        for v in _iter_bits(remaining):
            if cost(eliminated, v) <= k and search(remaining & ~(1 << v)):
                found.append(v)
                return True
        infeasible.add(remaining)
        return False

    if not search(graph.full):
        return None
    return [graph.vertices[v] for v in reversed(found)]


def _minimum_order(
    H: Hypergraph,
    cost_at: Callable[[_BitGraph, int], Callable[[int, int], int]],
    lo: int,
    hi: int,
    order: List[Vertex],
) -> Tuple[int, List[Vertex]]:
    """The least ``k`` in ``lo..hi`` with an elimination order of ``H``
    whose bags all cost ``≤ k``, and that order — ``(hi, order)`` when none
    below ``hi`` exists (``order`` is one of width ``hi``).  The search's
    cost at ``k`` is ``cost_at(graph, k)``."""
    if lo >= hi:
        return hi, order
    graph = _BitGraph(H)
    for k in range(lo, hi):
        found = _order_within(graph, cost_at(graph, k), k)
        if found is not None:
            return k, found
    return hi, order


def _check_size(H: Hypergraph, what: str) -> None:
    if len(H.vertices) > EXACT_VERTEX_LIMIT:
        raise BudgetExceededError(
            "%s limited to %d vertices per connected component, got %d"
            % (what, EXACT_VERTEX_LIMIT, len(H.vertices))
        )


def _components(H: Hypergraph) -> List[Hypergraph]:
    components = H.connected_components()
    if len(components) == 1:
        return [H]
    return [H.induced_subhypergraph(c) for c in components]


def _popcount(x: int) -> int:
    return bin(x).count("1")


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


# ---------------------------------------------------------------------------
# Heuristics
# ---------------------------------------------------------------------------
def min_fill_order(H: Hypergraph) -> List[Vertex]:
    """Elimination order chosen greedily by fewest fill-in edges."""
    return _greedy(H, _fill_key)[1]


def _degree_key(adjacency: Dict[Vertex, Set[Vertex]], u: Vertex):
    return len(adjacency[u]), repr(u)


def _fill_key(adjacency: Dict[Vertex, Set[Vertex]], u: Vertex):
    ns = list(adjacency[u])
    missing = sum(1 for i, a in enumerate(ns) for b in ns[i + 1 :] if b not in adjacency[a])
    return missing, len(ns), repr(u)


def _greedy(H: Hypergraph, key) -> Tuple[int, List[Vertex]]:
    """The greedy elimination order by ``key`` and its width."""
    def choose(adjacency: Dict[Vertex, Set[Vertex]]) -> Vertex:
        return min(adjacency, key=lambda u: key(adjacency, u))

    width, order = -1, []
    for v, bag in _elimination_bags(H, choose):
        order.append(v)
        width = max(width, len(bag) - 1)
    return width, order


def _best_heuristic(H: Hypergraph) -> Tuple[int, List[Vertex]]:
    """The narrower of the min-fill and min-degree orders, with its width
    (min-fill on a tie)."""
    return min(_greedy(H, _fill_key), _greedy(H, _degree_key), key=lambda pair: pair[0])


def order_width(H: Hypergraph, order: Sequence[Vertex]) -> int:
    """Width of an elimination order (−1 for the empty hypergraph)."""
    return max((len(bag) - 1 for _, bag in _elimination_bags(H, order)), default=-1)


def treewidth_upper_bound(H: Hypergraph) -> int:
    """Best of the min-fill and min-degree heuristic widths."""
    if not H.vertices:
        return -1
    return _best_heuristic(H)[0]


def treewidth_lower_bound(H: Hypergraph) -> int:
    """Minor-min-width (MMD+) lower bound.

    Repeatedly contract a minimum-degree vertex into its least-degree
    neighbour; the maximum of the minimum degrees seen is a treewidth lower
    bound (Gogate & Dechter's MMW).
    """
    if not H.vertices:
        return -1
    adjacency: Dict[Vertex, Set[Vertex]] = {v: set(ns) for v, ns in H.primal_graph().items()}
    best = 0
    while len(adjacency) > 1:
        v = min(adjacency, key=lambda u: (len(adjacency[u]), repr(u)))
        degree = len(adjacency[v])
        best = max(best, degree)
        if degree == 0:
            del adjacency[v]
            continue
        u = min(adjacency[v], key=lambda w: (len(adjacency[w]), repr(w)))
        # contract v into u
        merged = (adjacency[v] | adjacency[u]) - {v, u}
        for w in adjacency[v]:
            adjacency[w].discard(v)
        for w in adjacency[u]:
            adjacency[w].discard(u)
        del adjacency[v]
        adjacency[u] = set(merged)
        for w in merged:
            adjacency[w].add(u)
    # A hyperedge of size s forces a bag of size ≥ s, hence width ≥ s − 1.
    edge_bound = max((len(e) - 1 for e in H.edges), default=0)
    return max(best, edge_bound)


# ---------------------------------------------------------------------------
# Exact treewidth
# ---------------------------------------------------------------------------
def _exact(H: Hypergraph) -> Tuple[int, List[Vertex]]:
    """Treewidth of the connected ``H`` and an elimination order of that
    width, from the first decision run that succeeds."""
    _check_size(H, "exact treewidth")
    width, order = _best_heuristic(H)
    return _minimum_order(
        H, lambda graph, k: graph.q_size, treewidth_lower_bound(H), width, order
    )


def treewidth_exact(H: Hypergraph) -> int:
    """Exact treewidth: the maximum over connected components.

    Raises :class:`~repro.exceptions.BudgetExceededError` beyond
    :data:`EXACT_VERTEX_LIMIT` vertices (per connected component).
    """
    return max((_exact(part)[0] for part in _components(H)), default=-1)


def treewidth_at_most(H: Hypergraph, k: int) -> bool:
    """Decision ``tw(H) ≤ k`` with heuristic fast paths."""
    if not H.vertices:
        return True
    if treewidth_upper_bound(H) <= k:
        return True
    if treewidth_lower_bound(H) > k:
        return False
    components = H.connected_components()
    if len(components) > 1:
        return all(
            treewidth_at_most(H.induced_subhypergraph(comp), k) for comp in components
        )
    _check_size(H, "exact treewidth decision")
    graph = _BitGraph(H)
    return _order_within(graph, graph.q_size, k) is not None


def elimination_order(H: Hypergraph, exact: bool = True) -> List[Vertex]:
    """An elimination order of ``H`` — of minimum width when ``exact``
    (default), otherwise the best heuristic one.  Each connected component
    is ordered on its own (widths are independent across components); a
    component beyond :data:`EXACT_VERTEX_LIMIT` vertices gets its
    heuristic order."""
    order: List[Vertex] = []
    for part in _components(H):
        if exact and len(part.vertices) <= EXACT_VERTEX_LIMIT:
            order.extend(_exact(part)[1])
        else:
            order.extend(_best_heuristic(part)[1])
    return order


def tree_decomposition(H: Hypergraph, exact: bool = True) -> TreeDecomposition:
    """The tree decomposition of :func:`elimination_order`'s order."""
    if not H.vertices:
        return TreeDecomposition([frozenset()], [])
    return decomposition_from_elimination_order(H, elimination_order(H, exact))
