"""β-acyclicity and the subquery-closed class ``HW'(k)``.

Section 5 of the paper needs CQ classes *closed under taking arbitrary
subqueries* (Lemma 1 merges tree nodes, which takes subqueries).  ``TW(k)``
is closed (treewidth is monotone under subgraphs) but ``HW(k)`` is not, so
the paper restricts to ``HW'(k)``: CQs all of whose subqueries have
(generalized) hypertreewidth ≤ k — the *β-hypertreewidth* of [15], which
for ``k = 1`` coincides with Fagin's β-acyclicity [11].

* :func:`is_beta_acyclic` — polynomial nest-point elimination: a vertex is a
  *nest point* if its incident edges form a ⊆-chain; a hypergraph is
  β-acyclic iff repeatedly removing nest points (and then empty edges)
  removes all vertices.
* :func:`beta_hypertreewidth_at_most` — ``HW'(k)`` for ``k ≥ 2`` via
  enumeration of edge subsets (no polynomial algorithm is known; the paper
  itself needs an NP oracle exactly for this test).  Exponential in the
  number of *distinct* hyperedges, which is small for the queries in scope.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Sequence, Set

from ..exceptions import BudgetExceededError
from .hypergraph import Hypergraph, Vertex
from .hypertree import hypertreewidth_at_most

#: Cap on 2^m subquery enumeration for the k ≥ 2 test.
BETA_EDGE_LIMIT = 16


def _nest_point(H_edges: Sequence[Set[Vertex]], v: Vertex) -> bool:
    """Is ``v`` a nest point: are the edges containing ``v`` a ⊆-chain?"""
    incident = [e for e in H_edges if v in e]
    incident.sort(key=len)
    for small, big in zip(incident, incident[1:]):
        if not small <= big:
            return False
    return True


def is_beta_acyclic(H: Hypergraph) -> bool:
    """β-acyclicity via nest-point elimination (polynomial time).

    >>> triangle = Hypergraph([{1, 2}, {2, 3}, {1, 3}])
    >>> is_beta_acyclic(triangle)
    False
    >>> chain = Hypergraph([{1, 2}, {1, 2, 3}])
    >>> is_beta_acyclic(chain)
    True
    """
    edges: List[Set[Vertex]] = [set(e) for e in H.edges]
    vertices: Set[Vertex] = set(H.vertices)
    progress = True
    while vertices and progress:
        progress = False
        for v in sorted(vertices, key=repr):
            if _nest_point(edges, v):
                vertices.discard(v)
                for e in edges:
                    e.discard(v)
                edges = [e for e in edges if e]
                progress = True
                break
    return not vertices


def beta_hypertreewidth_at_most(H: Hypergraph, k: int) -> bool:
    """Does every edge-subset of ``H`` have generalized hypertreewidth ≤ k?

    For ``k = 1`` this is β-acyclicity and runs in polynomial time.  For
    ``k ≥ 2`` all ``2^m`` subsets of distinct edges are checked (with the
    observation that it suffices to check subsets, not sub-multisets, since
    duplicated edges never change ghw).  Raises
    :class:`~repro.exceptions.BudgetExceededError` beyond
    :data:`BETA_EDGE_LIMIT` distinct edges.
    """
    if k <= 0:
        return not H.edges
    if k == 1:
        return is_beta_acyclic(H)
    if is_beta_acyclic(H):
        return True  # β-hypertreewidth 1 ≤ k
    edges = sorted(H.edges, key=lambda e: (len(e), sorted(map(repr, e))))
    m = len(edges)
    if not hypertreewidth_at_most(H, k):
        return False
    if m > BETA_EDGE_LIMIT:
        raise BudgetExceededError(
            "HW'(%d) test limited to %d distinct edges, got %d"
            % (k, BETA_EDGE_LIMIT, m)
        )
    # Check subsets from large to small; many failures show up near the top.
    for size in range(m - 1, 1, -1):
        for subset in combinations(edges, size):
            if not hypertreewidth_at_most(Hypergraph(subset), k):
                return False
    return True
