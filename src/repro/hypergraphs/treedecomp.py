"""Tree decompositions as first-class, validated objects.

A tree decomposition of a hypergraph ``H = (V, E)`` is a pair ``(S, ν)``
with ``S`` a tree and ``ν`` assigning a *bag* of vertices to each tree node
such that (1) for each vertex the nodes whose bags contain it form a
connected subtree, and (2) every hyperedge is contained in some bag
(Section 3.1).  The width is ``max |ν(s)| − 1``.

The same class also carries hypertree decompositions
``(S, ν, κ)`` via the optional per-node edge covers ``κ`` (Section 3.1):
condition (2') requires ``ν(s) ⊆ ⋃ κ(s)``; the hypertree width is
``max |κ(s)|``.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
    Union,
)

from ..exceptions import DecompositionError
from .hypergraph import Edge, Hypergraph, Vertex

NodeId = int


class TreeDecomposition:
    """A (hyper)tree decomposition.

    Parameters
    ----------
    bags:
        ``bags[i]`` is the vertex bag ``ν(i)`` of tree node ``i``.
    tree_edges:
        Undirected edges ``(i, j)`` between tree-node indices.  With ``n``
        nodes there must be exactly ``n − 1`` edges forming a tree (a single
        node needs no edges).
    covers:
        Optional ``κ``: for each node, the hyperedges covering its bag.
        When present the object is a *hypertree* decomposition.
    """

    __slots__ = ("bags", "tree_edges", "covers", "_adjacency")

    def __init__(
        self,
        bags: Sequence[Iterable[Vertex]],
        tree_edges: Iterable[Tuple[NodeId, NodeId]],
        covers: Optional[Sequence[Iterable[Edge]]] = None,
    ):
        self.bags: Tuple[FrozenSet[Vertex], ...] = tuple(frozenset(b) for b in bags)
        self.tree_edges: Tuple[Tuple[NodeId, NodeId], ...] = tuple(
            (min(i, j), max(i, j)) for i, j in tree_edges
        )
        self.covers: Optional[Tuple[FrozenSet[Edge], ...]] = (
            tuple(frozenset(frozenset(e) for e in c) for c in covers)
            if covers is not None
            else None
        )
        if self.covers is not None and len(self.covers) != len(self.bags):
            raise DecompositionError(
                "got %d covers for %d bags" % (len(self.covers), len(self.bags))
            )
        n = len(self.bags)
        adjacency: Dict[NodeId, Set[NodeId]] = {i: set() for i in range(n)}
        for i, j in self.tree_edges:
            if not (0 <= i < n and 0 <= j < n):
                raise DecompositionError("tree edge (%d, %d) out of range" % (i, j))
            adjacency[i].add(j)
            adjacency[j].add(i)
        self._adjacency = {i: frozenset(js) for i, js in adjacency.items()}
        self._check_is_tree()

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.bags)

    def neighbours(self, node: NodeId) -> FrozenSet[NodeId]:
        return self._adjacency[node]

    def width(self) -> int:
        """Treewidth-style width: ``max |bag| − 1``."""
        return max(len(b) for b in self.bags) - 1

    def hypertree_width(self) -> int:
        """Hypertree-style width: ``max |κ(s)|`` (requires covers)."""
        if self.covers is None:
            raise DecompositionError("no edge covers: not a hypertree decomposition")
        return max((len(c) for c in self.covers), default=0)

    def _check_is_tree(self) -> None:
        n = len(self.bags)
        if n == 0:
            raise DecompositionError("a decomposition needs at least one node")
        if len(self.tree_edges) != n - 1:
            raise DecompositionError(
                "%d nodes need %d tree edges, got %d" % (n, n - 1, len(self.tree_edges))
            )
        seen: Set[NodeId] = set()
        stack: List[NodeId] = [0]
        while stack:
            i = stack.pop()
            if i in seen:
                continue
            seen.add(i)
            stack.extend(self._adjacency[i] - seen)
        if len(seen) != n:
            raise DecompositionError("decomposition tree is disconnected")

    # ------------------------------------------------------------------
    # Validity against a hypergraph
    # ------------------------------------------------------------------
    def violations(self, H: Hypergraph) -> List[str]:
        """Human-readable list of validity violations (empty = valid)."""
        problems: List[str] = []
        covered = set()
        for b in self.bags:
            covered.update(b)
        missing_vertices = H.vertices - covered
        if missing_vertices:
            problems.append("vertices not in any bag: %r" % (sorted(map(repr, missing_vertices)),))
        for e in H.edges:
            if not any(e <= b for b in self.bags):
                problems.append("hyperedge %r not contained in any bag" % (sorted(map(repr, e)),))
        for v in H.vertices:
            nodes = [i for i, b in enumerate(self.bags) if v in b]
            if nodes and not self._nodes_connected(nodes):
                problems.append("bags containing %r are not connected" % (v,))
        if self.covers is not None:
            for i, (bag, cover) in enumerate(zip(self.bags, self.covers)):
                stray = cover - H.edges
                if stray:
                    problems.append("node %d cover uses foreign edges" % i)
                union: Set[Vertex] = set()
                for e in cover:
                    union.update(e)
                if not bag <= union:
                    problems.append("node %d: bag not covered by its κ edges" % i)
        return problems

    def is_valid_for(self, H: Hypergraph) -> bool:
        """Is this a valid (hyper)tree decomposition of ``H``?"""
        return not self.violations(H)

    def _nodes_connected(self, nodes: Sequence[NodeId]) -> bool:
        wanted = set(nodes)
        seen: Set[NodeId] = set()
        stack = [nodes[0]]
        while stack:
            i = stack.pop()
            if i in seen:
                continue
            seen.add(i)
            stack.extend(j for j in self._adjacency[i] if j in wanted and j not in seen)
        return seen == wanted

    def __repr__(self) -> str:
        kind = "HypertreeDecomposition" if self.covers is not None else "TreeDecomposition"
        return "%s(%d nodes, width=%d)" % (kind, len(self.bags), self.width())


def decomposition_from_elimination_order(
    H: Hypergraph, order: Sequence[Vertex]
) -> TreeDecomposition:
    """Tree decomposition induced by a vertex elimination order.

    Standard construction: eliminate vertices in ``order`` from the primal
    graph, at each step creating a bag with the vertex and its current
    neighbourhood, and filling in the neighbourhood into a clique.  The
    resulting decomposition's width equals the width of the elimination
    order; minimizing over orders yields the exact treewidth.
    """
    if set(order) != set(H.vertices):
        raise DecompositionError("elimination order must cover exactly the vertices")
    bags = [bag for _, bag in _elimination_bags(H, order)]
    # Connect each bag to the bag of the earliest-eliminated remaining
    # neighbour; the last bag is the root.
    position = {v: i for i, v in enumerate(order)}
    edges: List[Tuple[NodeId, NodeId]] = []
    for i, v in enumerate(order):
        later = [u for u in bags[i] if u != v and position[u] > position[v]]
        if later:
            parent_vertex = min(later, key=lambda u: position[u])
            edges.append((i, position[parent_vertex]))
        elif i != len(order) - 1:
            edges.append((i, len(order) - 1))
    return TreeDecomposition(bags, edges)


def _elimination_bags(
    H: Hypergraph,
    order: Union[Sequence[Vertex], Callable[[Dict[Vertex, Set[Vertex]]], Vertex]],
) -> Iterator[Tuple[Vertex, FrozenSet[Vertex]]]:
    """Eliminate vertices from the primal graph of ``H``, yielding each
    vertex with its bag: itself plus its neighbours at elimination time,
    which are then filled into a clique.

    ``order`` is either the vertices in elimination order or a function
    choosing the next vertex from the current adjacency (a greedy order).
    """
    adjacency: Dict[Vertex, Set[Vertex]] = {v: set(ns) for v, ns in H.primal_graph().items()}
    steps = (order(adjacency) for _ in H.vertices) if callable(order) else order
    for v in steps:
        neighbourhood = adjacency.pop(v)
        for a in neighbourhood:
            adjacency[a].discard(v)
            adjacency[a].update(neighbourhood - {a})
        yield v, frozenset(neighbourhood) | {v}
