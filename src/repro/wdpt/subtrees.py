"""Rooted-subtree machinery for WDPT algorithms.

Three operations recur throughout Sections 3–6 of the paper:

* enumerating all rooted subtrees (semantics, subsumption, ``φ_cq``);
* the **minimal** rooted subtree containing a given set of variables
  (Theorem 8's partial-evaluation algorithm, Theorem 6's step 1);
* the **maximal** rooted subtree containing no free variables beyond a
  given set (Theorem 6's ``T''``).

Well-designedness makes both extremal subtrees unique: the nodes mentioning
a variable form a connected subgraph, so each variable has a unique
*top node* (the closest-to-root node mentioning it).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, Set

from ..core.terms import Variable
from .tree import ROOT
from .wdpt import WDPT


def top_node_of_variable(p: WDPT, v: Variable) -> int:
    """The unique node mentioning ``v`` closest to the root (connectedness
    makes it an ancestor of every other node mentioning ``v``).

    Raises ``KeyError`` if ``v`` does not occur in ``p``.
    """
    try:
        return p.top_nodes()[v]
    except KeyError:
        raise KeyError(
            "variable %r does not occur in the pattern tree" % (v,)
        ) from None


def minimal_subtree_containing(p: WDPT, variables: Iterable[Variable]) -> FrozenSet[int]:
    """The minimal rooted subtree of ``p`` whose variable set covers
    ``variables``: the union of root-paths to each variable's top node."""
    nodes: Set[int] = {ROOT}
    for v in variables:
        nodes.update(p.tree.path_to_root(top_node_of_variable(p, v)))
    return frozenset(nodes)


def maximal_subtree_within_free(
    p: WDPT, allowed_free: FrozenSet[Variable]
) -> FrozenSet[int]:
    """The maximal rooted subtree whose nodes mention no free variable
    outside ``allowed_free`` (the paper's ``T''`` in Theorem 6)."""
    frees = frozenset(p.free_variables)
    nodes: Set[int] = set()

    def admissible(n: int) -> bool:
        return (p.node_variables(n) & frees) <= allowed_free

    if not admissible(ROOT):
        # Even the root mentions a forbidden free variable; the maximal
        # admissible subtree is empty, which callers treat as failure.
        return frozenset()
    stack = [ROOT]
    while stack:
        n = stack.pop()
        nodes.add(n)
        for child in p.tree.children(n):
            if admissible(child):
                stack.append(child)
    return frozenset(nodes)


def rooted_subtrees(p: WDPT) -> Iterator[FrozenSet[int]]:
    """All rooted subtrees of ``p`` (delegates to the tree)."""
    return p.tree.rooted_subtrees()


def subtree_free_variables(p: WDPT, nodes: Iterable[int]) -> FrozenSet[Variable]:
    """Free variables of ``p`` occurring in the given nodes."""
    vs: Set[Variable] = set()
    for n in nodes:
        vs |= p.node_variables(n)
    return vs & frozenset(p.free_variables)


def new_variables_at(p: WDPT, node: int) -> FrozenSet[Variable]:
    """Variables introduced at ``node`` (present there, absent from the
    parent — by well-designedness, absent from all proper ancestors)."""
    parent = p.tree.parent(node)
    if parent is None:
        return p.node_variables(node)
    return p.node_variables(node) - p.node_variables(parent)


def interface_to_parent(p: WDPT, node: int) -> FrozenSet[Variable]:
    """``vars(node) ∩ vars(parent)`` (empty for the root).

    By well-designedness this set separates the variables of ``node``'s
    subtree from the rest of the tree.
    """
    parent = p.tree.parent(node)
    if parent is None:
        return frozenset()
    return p.node_variables(node) & p.node_variables(parent)


def interface_to_children(p: WDPT, node: int) -> FrozenSet[Variable]:
    """Variables shared between ``node`` and the union of its children —
    the quantity bounded by the ``BI(c)`` condition (Section 3.2)."""
    shared: Set[Variable] = set()
    mine = p.node_variables(node)
    for child in p.tree.children(node):
        shared |= mine & p.node_variables(child)
    return frozenset(shared)
