"""Partial evaluation of WDPTs (Theorem 8).

``PARTIAL-EVAL``: given ``p``, ``D`` and a partial mapping ``h``, is there
an answer ``h' ∈ p(D)`` with ``h ⊑ h'``?

The paper's algorithm (proof of Theorem 8): ``h`` extends to an answer iff
``h`` extends to *some* homomorphism of ``p`` — maximality is free, because
every homomorphism extends to a maximal one and extension preserves ``⊑``
of the projections.  So it suffices to

1. take the minimal rooted subtree ``T'`` whose variables cover
   ``dom(h)`` (LOGSPACE in the paper, a few tree walks here), and
2. decide non-emptiness of ``q̂_{T'}``, the subtree CQ with ``h``
   substituted — a CQ in ``TW(k)`` / ``HW(k)`` whenever ``p`` is globally
   tractable, hence LOGCFL by Theorems 2/3.

Step 2 is :func:`subtree_satisfiable`, shared with Theorems 9 and 16:
the backtracking search, or — given a ``planner`` — routed through it, so
the subtree's structural profile (join tree / decomposition) is computed
once per subtree *shape* and reused across candidate mappings; sound
because substituting ``h`` only removes hypergraph vertices, under which
acyclicity and treewidth are monotone.
"""

from __future__ import annotations

from typing import AbstractSet, FrozenSet, Optional, TYPE_CHECKING

from ..core.database import Database
from ..core.mappings import Mapping
from ..cqalgs.naive import satisfiable
from ..telemetry.resources import account_subquery
from ..telemetry.tracer import current_tracer
from .subtrees import minimal_subtree_containing
from .wdpt import WDPT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..planner.planner import Planner


def partial_eval(
    p: WDPT, db: Database, h: Mapping, planner: "Optional[Planner]" = None
) -> bool:
    """``PARTIAL-EVAL``: is there ``h' ∈ p(D)`` with ``h ⊑ h'``?

    Answers of ``p`` are defined on subsets of ``x̄``, so a mapping using a
    non-free variable can never be extended by one.
    """
    dom = h.domain()
    if not dom <= frozenset(p.free_variables):
        return False
    if not dom <= p.variables():
        return False
    tracer = current_tracer()
    subtree = minimal_subtree_containing(p, dom)
    with tracer.span("wdpt.partial_eval") as sp:
        if tracer.enabled:
            sp.set(subtree=sorted(subtree), substituted=len(dom))
        return subtree_satisfiable(p, db, h, subtree, planner)


def subtree_satisfiable(
    p: WDPT,
    db: Database,
    h: Mapping,
    subtree: AbstractSet[int],
    planner: "Optional[Planner]" = None,
) -> bool:
    """Non-emptiness of ``q̂_{T'}``: the CQ of the rooted subtree
    ``subtree`` with ``h`` substituted — the one subroutine Theorems 8, 9
    and 16 reduce to, run on the engine ``planner`` routes the subtree's
    unsubstituted shape to, or as the backtracking search without one."""
    account_subquery()
    if planner is None:
        return satisfiable(p.atoms_of(subtree), db, h)
    return planner.satisfiable_substituted(
        planner.profile_wdpt(p).subtree_profile(subtree), h.as_dict(), db
    )


def partial_answers(p: WDPT, db: Database) -> FrozenSet[Mapping]:
    """All partial answers of ``p`` over ``db`` — the downward closure of
    ``p(D)`` under restriction.  Reference-quality helper for tests."""
    from .evaluation import evaluate

    out = set()
    for answer in evaluate(p, db):
        domain = sorted(answer.domain())
        for mask in range(1 << len(domain)):
            chosen = [v for i, v in enumerate(domain) if mask >> i & 1]
            out.add(answer.restrict(chosen))
    return frozenset(out)
