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

Both, and the free variables of a node set, are set operations over facts
the :class:`~repro.wdpt.wdpt.WDPT` derives once per tree
(:meth:`~repro.wdpt.wdpt.WDPT.root_paths`,
:meth:`~repro.wdpt.wdpt.WDPT.node_free_variables`,
:meth:`~repro.wdpt.wdpt.WDPT.path_free_variables`): the Theorem 6/8/9
procedures ask them once per decision, and no decision walks the tree.
"""

from __future__ import annotations

from itertools import compress
from typing import FrozenSet, Iterable, Iterator, Set

from ..core.terms import Variable
from .tree import ROOT
from .wdpt import WDPT

_ROOT_ONLY: FrozenSet[int] = frozenset((ROOT,))
_NO_VARIABLES: FrozenSet[Variable] = frozenset()
_UNKNOWN_VARIABLE = "variable %r does not occur in the pattern tree"


def minimal_subtree_containing(p: WDPT, variables: Iterable[Variable]) -> FrozenSet[int]:
    """The minimal rooted subtree of ``p`` whose variable set covers
    ``variables``: the union of root-paths to each variable's top node.

    Raises ``KeyError`` if some variable does not occur in ``p``."""
    try:
        return _ROOT_ONLY.union(*map(p.root_paths().__getitem__, variables))
    except KeyError as missing:
        raise KeyError(_UNKNOWN_VARIABLE % (missing.args[0],)) from None


def maximal_subtree_within_free(
    p: WDPT, allowed_free: FrozenSet[Variable]
) -> FrozenSet[int]:
    """The maximal rooted subtree whose nodes mention no free variable
    outside ``allowed_free`` (the paper's ``T''`` in Theorem 6): the nodes
    whose whole root path does.  Empty when even the root mentions a
    forbidden free variable, which callers treat as failure."""
    within = frozenset(allowed_free).issuperset
    return frozenset(
        compress(p.tree.nodes(), map(within, p.path_free_variables()))
    )


def rooted_subtrees(p: WDPT) -> Iterator[FrozenSet[int]]:
    """All rooted subtrees of ``p`` (delegates to the tree)."""
    return p.tree.rooted_subtrees()


def subtree_free_variables(p: WDPT, nodes: Iterable[int]) -> FrozenSet[Variable]:
    """Free variables of ``p`` occurring in the given nodes."""
    return _NO_VARIABLES.union(*map(p.node_free_variables().__getitem__, nodes))


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
