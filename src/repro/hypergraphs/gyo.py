"""α-acyclicity via GYO reduction, and join trees for Yannakakis.

``HW(1)`` coincides with the class ``AC`` of acyclic CQs (Section 3.1).
Acyclicity is decided by the classic Graham / Yu–Özsoyoğlu reduction:
repeatedly remove *ears* — hyperedges whose private part (vertices occurring
in no other edge) can be stripped so that the rest is contained in another
edge.  The hypergraph is α-acyclic iff the reduction eliminates all but one
edge.  The ear-to-witness links produced along the way form a **join tree**,
the input structure of Yannakakis' algorithm (:mod:`repro.cqalgs.yannakakis`).

Join trees are built over *atom indices*, not hyperedges, because distinct
atoms of a CQ may share the same variable set.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..core.atoms import Atom
from .hypergraph import Hypergraph, Vertex


def gyo_reduction(H: Hypergraph) -> Hypergraph:
    """Run the GYO reduction; return the irreducible remainder.

    The remainder has no edges iff ``H`` is α-acyclic (an empty hypergraph
    and a single-edge hypergraph both reduce fully).
    """
    edges: List[Set[Vertex]] = [set(e) for e in H.edges]
    alive = set(range(len(edges)))
    changed = True
    while changed:
        changed = False
        for i in list(alive):
            if _is_ear(i, edges, alive):
                alive.discard(i)
                changed = True
    return Hypergraph([edges[i] for i in alive])


def is_alpha_acyclic(H: Hypergraph) -> bool:
    """Is ``H`` α-acyclic (equivalently: generalized hypertreewidth ≤ 1)?"""
    return not gyo_reduction(H).edges


def _is_ear(i: int, edges: Sequence[Set[Vertex]], alive: Set[int]) -> bool:
    """Is edge ``i`` an ear among the alive edges?

    Edge ``i`` is an ear iff its non-private vertices (those shared with
    some other alive edge) are all contained in a single other alive edge —
    including the degenerate cases of an edge with only private vertices or
    an edge contained in another.
    """
    shared = {
        v
        for v in edges[i]
        if any(j != i and v in edges[j] for j in alive)
    }
    if not shared:
        return True
    return any(j != i and shared <= edges[j] for j in alive)


def join_tree_of_atoms(atoms: Sequence[Atom]) -> Optional[List[Tuple[int, int]]]:
    """A join tree over atom indices, or ``None`` if the CQ is cyclic.

    Returns parent links ``(child, parent)``; index ``len(result)`` relations
    form a tree rooted at the last surviving atom.  The connectedness
    ("running intersection") property holds: for every variable, the atoms
    containing it form a connected subtree.

    >>> from repro.core.atoms import atom
    >>> links = join_tree_of_atoms([atom("R", "?x", "?y"), atom("S", "?y", "?z")])
    >>> links is not None
    True
    """
    n = len(atoms)
    if n == 0:
        return []
    edges: List[Set[Vertex]] = [set(a.variables()) for a in atoms]
    alive: Set[int] = set(range(n))
    links: List[Tuple[int, int]] = []
    changed = True
    while changed and len(alive) > 1:
        changed = False
        for i in sorted(alive):
            shared = {
                v for v in edges[i] if any(j != i and v in edges[j] for j in alive)
            }
            witness = None
            for j in sorted(alive):
                if j != i and shared <= edges[j]:
                    witness = j
                    break
            if witness is not None:
                links.append((i, witness))
                alive.discard(i)
                changed = True
                break
    if len(alive) > 1:
        return None
    return links


class JoinTree(NamedTuple):
    """The shape of a join tree, derived once from its parent links —
    what every walk over the tree needs (the semi-join sweeps, the join
    phase, the SQL statement builder)."""

    root: int
    #: Child lists per node, in link order.
    children: Dict[int, List[int]]
    #: Parent per non-root node.
    parent: Dict[int, int]
    #: All nodes, root first, every parent before its children.
    order: List[int]


def join_tree_shape(links: Sequence[Tuple[int, int]], n_atoms: int) -> JoinTree:
    """The :class:`JoinTree` of the parent links :func:`join_tree_of_atoms`
    returns (any ``(child, parent)`` links forming one tree will do).

    >>> join_tree_shape([(0, 1), (2, 1), (3, 2)], 4).order
    [1, 0, 2, 3]
    """
    parent = dict(links)
    children: Dict[int, List[int]] = {i: [] for i in range(n_atoms)}
    for child, above in links:
        children[above].append(child)
    level = list(children.keys() - parent.keys())
    if len(level) != 1:
        raise ValueError("join tree with %d atoms has %d roots" % (n_atoms, len(level)))
    order = level[:]
    while len(order) < n_atoms:
        level = [child for node in level for child in children[node]]
        if not level:
            raise ValueError("join-tree links reach %d of %d atoms" % (len(order), n_atoms))
        order += level
    return JoinTree(order[0], children, parent, order)
