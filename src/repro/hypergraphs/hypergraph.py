"""Hypergraphs of conjunctive queries.

The hypergraph ``H_q = (V, E)`` of a CQ has the query's variables as
vertices and, for each atom, the set of variables of that atom as a
hyperedge (Section 3.1).  All width notions (treewidth, hypertreewidth,
β-acyclicity) are defined on this object.

Vertices can be arbitrary hashable values; the CQ bridge uses
:class:`~repro.core.terms.Variable` vertices.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, List, Set

from ..core.cq import ConjunctiveQuery

Vertex = Hashable
Edge = FrozenSet[Vertex]


class Hypergraph:
    """An immutable hypergraph ``(V, E)``.

    ``vertices`` may include isolated vertices not covered by any edge.
    Empty hyperedges are dropped (they carry no structural information for
    width purposes).

    >>> H = Hypergraph([{1, 2, 3}, {3, 4}])
    >>> sorted(H.vertices)
    [1, 2, 3, 4]
    >>> H.degree(3)
    2
    """

    __slots__ = ("vertices", "edges", "_incidence", "_hash")

    def __init__(
        self,
        edges: Iterable[Iterable[Vertex]],
        vertices: Iterable[Vertex] = (),
    ):
        edge_set = frozenset(frozenset(e) for e in edges if frozenset(e))
        vertex_set = set(vertices)
        for e in edge_set:
            vertex_set.update(e)
        self.vertices: FrozenSet[Vertex] = frozenset(vertex_set)
        self.edges: FrozenSet[Edge] = edge_set
        incidence: Dict[Vertex, Set[Edge]] = {v: set() for v in self.vertices}
        for e in edge_set:
            for v in e:
                incidence[v].add(e)
        self._incidence = {v: frozenset(es) for v, es in incidence.items()}
        self._hash = hash((self.vertices, self.edges))

    def __reduce__(self):
        # By value, so the hash is recomputed (see Variable.__reduce__).
        return (Hypergraph, (self.edges, self.vertices))

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------
    def incident_edges(self, v: Vertex) -> FrozenSet[Edge]:
        """Hyperedges containing vertex ``v``."""
        return self._incidence.get(v, frozenset())

    def degree(self, v: Vertex) -> int:
        """Number of hyperedges containing ``v``."""
        return len(self.incident_edges(v))

    def neighbours(self, v: Vertex) -> FrozenSet[Vertex]:
        """Vertices sharing an edge with ``v`` (excluding ``v``)."""
        out: Set[Vertex] = set()
        for e in self.incident_edges(v):
            out.update(e)
        out.discard(v)
        return frozenset(out)

    def is_empty(self) -> bool:
        return not self.vertices

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Hypergraph)
            and other.vertices == self.vertices
            and other.edges == self.edges
        )

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "Hypergraph(|V|=%d, |E|=%d)" % (len(self.vertices), len(self.edges))

    # ------------------------------------------------------------------
    # Derived graphs and subobjects
    # ------------------------------------------------------------------
    def primal_graph(self) -> Dict[Vertex, FrozenSet[Vertex]]:
        """Adjacency of the primal (Gaifman) graph: two vertices are
        adjacent iff they co-occur in some hyperedge."""
        return {v: self.neighbours(v) for v in self.vertices}

    def induced_subhypergraph(self, keep: Iterable[Vertex]) -> "Hypergraph":
        """Vertex-induced subhypergraph: edges are intersected with ``keep``
        (empty intersections dropped).  This is the notion used when
        decomposing components during hypertree decomposition."""
        keep_set = frozenset(keep)
        return Hypergraph(
            (e & keep_set for e in self.edges),
            vertices=keep_set & self.vertices,
        )

    def partial_subhypergraph(self, edges: Iterable[Edge]) -> "Hypergraph":
        """Edge-induced subhypergraph (a *subquery* in the paper's sense:
        keep a subset of the atoms/edges with their full variable sets)."""
        kept = frozenset(edges)
        unknown = kept - self.edges
        if unknown:
            raise ValueError("edges %r are not part of this hypergraph" % (sorted(map(sorted, unknown)),))
        return Hypergraph(kept)

    def connected_components(self) -> List[FrozenSet[Vertex]]:
        """Vertex sets of the connected components (via shared hyperedges)."""
        seen: Set[Vertex] = set()
        components: List[FrozenSet[Vertex]] = []
        for start in self.vertices:
            if start in seen:
                continue
            stack = [start]
            component: Set[Vertex] = set()
            while stack:
                v = stack.pop()
                if v in component:
                    continue
                component.add(v)
                for u in self.neighbours(v):
                    if u not in component:
                        stack.append(u)
            seen.update(component)
            components.append(frozenset(component))
        return components

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1


def hypergraph_of_cq(query: ConjunctiveQuery) -> Hypergraph:
    """The hypergraph ``H_q`` of a conjunctive query.

    Vertices are the query's variables; each atom contributes the hyperedge
    of its variables (constants are ignored, exactly as in the paper's
    Example after Theorem 2).  Atoms without variables contribute nothing.
    """
    return Hypergraph(
        (a.variables() for a in query.atoms),
        vertices=query.variables(),
    )
