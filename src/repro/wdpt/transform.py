"""Lemma 1 normal-form transformations of WDPTs (Section 5.1).

The proof of Lemma 1 restructures a WDPT without changing it up to
subsumption-equivalence:

1. **Prune** branches that never introduce a free variable: keep exactly
   the nodes lying on a path from the root to some node that introduces a
   free variable.  Projections of maximal homomorphisms are unaffected
   (pruned branches only bind existential variables), so the pruned tree
   is ``≡ₛ``-equivalent to the original.
2. **Merge chains**: a node with no newly-introduced free variable and a
   single child is merged with that child (labels united).  The merged
   tree is ``≡ₛ``-equivalent as well — this is the step that needs the CQ
   class to be closed under subqueries, motivating ``HW'(k)``.

The composition :func:`lemma1_normal_form` linearly bounds the number of
nodes by the number of free-variable-introducing nodes, and is the
constructive backbone of the Theorem 13 membership search and the
Theorem 14 approximation search.
"""

from __future__ import annotations

from typing import Dict, List, Set

from .subtrees import new_variables_at
from .tree import ROOT, PatternTree
from .wdpt import WDPT


def introduces_free_variable(p: WDPT, node: int) -> bool:
    """Does ``node`` mention a free variable absent from its parent?"""
    frees = frozenset(p.free_variables)
    return bool(new_variables_at(p, node) & frees)


def free_branch_nodes(p: WDPT) -> Set[int]:
    """The nodes step 1 of Lemma 1 keeps: those on a root-path to a
    free-variable-introducing node, and always the root.  ``p(D)`` only
    depends on them, which is what lets the evaluator skip the rest."""
    keep: Set[int] = {ROOT}
    for node in p.tree.nodes():
        if introduces_free_variable(p, node):
            keep.update(p.tree.path_to_root(node))
    return keep


def prune_non_free_branches(p: WDPT) -> WDPT:
    """Step 1 of Lemma 1: drop every node not on a root-path to a
    free-variable-introducing node.  The root always stays."""
    return _restrict_to_nodes(p, free_branch_nodes(p))


def merge_chains(p: WDPT) -> WDPT:
    """Step 2 of Lemma 1: repeatedly merge a single-child node that
    introduces no free variable into its child."""
    # Work on mutable parallel arrays; node ids are re-packed at the end.
    parents: Dict[int, int] = {
        n: p.tree.parent(n) for n in p.tree.nodes() if n != ROOT
    }  # type: ignore[misc]
    labels: Dict[int, Set] = {n: set(p.labels[n]) for n in p.tree.nodes()}
    alive: Set[int] = set(p.tree.nodes())

    def children_of(n: int) -> List[int]:
        return [c for c in alive if c != ROOT and parents[c] == n]

    changed = True
    while changed:
        changed = False
        for n in sorted(alive):
            if n == ROOT:
                # The root may also be merged with an only child when it
                # introduces no free variable?  No: the root anchors the
                # tree; Lemma 1 merges non-root chain nodes only.
                continue
            kids = children_of(n)
            if len(kids) != 1:
                continue
            if _introduces_free(p, labels[n], n, parents, labels, alive):
                continue
            child = kids[0]
            labels[child] |= labels[n]
            parents[child] = parents[n]
            alive.discard(n)
            del labels[n]
            changed = True
            break
    return _rebuild(p, alive, parents, labels)


def lemma1_normal_form(p: WDPT) -> WDPT:
    """Prune then merge — the Lemma 1 normal form, ``≡ₛ``-equivalent to
    ``p`` with at most ``2·|free-introducing nodes| + 1`` nodes."""
    return merge_chains(prune_non_free_branches(p))


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------
def _introduces_free(
    p: WDPT,
    label: Set,
    node: int,
    parents: Dict[int, int],
    labels: Dict[int, Set],
    alive: Set[int],
) -> bool:
    frees = frozenset(p.free_variables)
    my_vars = {v for a in label for v in a.variables()}
    parent = parents.get(node)
    if parent is None:
        return bool(my_vars & frees)
    parent_vars = {v for a in labels[parent] for v in a.variables()}
    return bool((my_vars - parent_vars) & frees)


def _restrict_to_nodes(p: WDPT, keep: Set[int]) -> WDPT:
    """The WDPT induced by a rooted-subtree node set ``keep``.

    Free variables not occurring in the kept nodes are dropped from the
    projection tuple (they cannot occur: pruning only removes nodes that
    introduce no free variable, but the guard keeps the API total).
    """
    old_order = sorted(keep)
    new_id = {old: i for i, old in enumerate(old_order)}
    parents: List[int] = []
    for old in old_order[1:]:
        parent = p.tree.parent(old)
        assert parent is not None and parent in keep
        parents.append(new_id[parent])
    labels = [p.labels[old] for old in old_order]
    kept_vars = {v for label in labels for a in label for v in a.variables()}
    frees = [v for v in p.free_variables if v in kept_vars]
    return WDPT(PatternTree(parents), labels, frees)


def _rebuild(
    p: WDPT, alive: Set[int], parents: Dict[int, int], labels: Dict[int, Set]
) -> WDPT:
    old_order = sorted(alive)
    new_id = {old: i for i, old in enumerate(old_order)}
    new_parents: List[int] = []
    for old in old_order[1:]:
        parent = parents[old]
        while parent not in alive:  # pragma: no cover - merges repoint parents
            parent = parents[parent]
        new_parents.append(new_id[parent])
    new_labels = [frozenset(labels[old]) for old in old_order]
    kept_vars = {v for label in new_labels for a in label for v in a.variables()}
    frees = [v for v in p.free_variables if v in kept_vars]
    return WDPT(PatternTree(new_parents), new_labels, frees)
