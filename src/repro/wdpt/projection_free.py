"""Projection-free WDPT evaluation (Theorem 4, after [17, 18]).

For projection-free WDPTs (``x̄`` = all variables) the evaluation problem
is tractable under local tractability alone — no interface bound needed.
The reason: a candidate answer ``h`` *determines* the witness subtree, so
nothing has to be guessed:

1. compute, top-down, the maximal rooted subtree ``R`` of nodes whose
   variables are all in ``dom(h)`` and whose atoms ``h`` satisfies;
2. ``h`` must be defined on exactly ``vars(R)``;
3. maximality: no child of ``R`` may admit *any* homomorphism extending
   ``h`` on the shared variables — one local CQ-satisfiability check per
   frontier child (polynomial whenever node labels are in a tractable CQ
   class, which is the locally-tractable hypothesis of Theorem 4).

The same function doubles as a cross-check for the general Theorem 6
dynamic program on projection-free inputs.
"""

from __future__ import annotations

from typing import Set

from ..core.database import Database
from ..core.mappings import Mapping
from ..cqalgs.naive import satisfiable
from .tree import ROOT
from .wdpt import WDPT


def eval_projection_free(p: WDPT, db: Database, h: Mapping) -> bool:
    """``EVAL`` for projection-free WDPTs in polynomial time (Theorem 4).

    Raises ``ValueError`` if ``p`` has projection (use
    :func:`repro.wdpt.eval_tractable.eval_tractable` there).
    """
    if not p.is_projection_free():
        raise ValueError(
            "eval_projection_free requires a projection-free WDPT; "
            "this one projects onto %r" % (p.free_variables,)
        )
    dom = h.domain()
    if not dom <= p.variables():
        return False

    # Step 1: the h-induced subtree R.
    matched: Set[int] = set()
    if not _node_matched(p, db, h, ROOT):
        return False
    stack = [ROOT]
    matched.add(ROOT)
    while stack:
        node = stack.pop()
        for child in p.tree.children(node):
            if _node_matched(p, db, h, child):
                matched.add(child)
                stack.append(child)

    # Step 2: h is defined on exactly the matched region.
    covered: Set = set()
    for node in matched:
        covered |= p.node_variables(node)
    if frozenset(covered) != dom:
        return False

    # Step 3: maximality at the frontier.
    for node in matched:
        for child in p.tree.children(node):
            if child in matched:
                continue
            shared = p.node_variables(child) & dom
            if satisfiable(p.labels[child], db, h.restrict(shared)):
                return False
    return True


def _node_matched(p: WDPT, db: Database, h: Mapping, node: int) -> bool:
    """Are all of ``node``'s variables bound by ``h`` and its atoms, under
    ``h``, facts of the database?"""
    if not p.node_variables(node) <= h.domain():
        return False
    assignment = h.as_dict()
    return all(a.substitute(assignment) in db for a in p.labels[node])
