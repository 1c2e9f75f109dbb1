"""Maximal-mapping evaluation of WDPTs (Theorem 9, Section 3.4).

``MAX-EVAL``: is ``h ∈ p_m(D)``, i.e. is ``h`` an answer that is
⊑-maximal among all answers?

The algorithm rests on a small lemma (implicit in the paper's treatment):

    ``h ∈ p_m(D)``  ⟺  ``h`` is a partial answer and no partial answer
    properly extends ``h``.

(⇐) a maximal partial answer is subsumed by a full answer, hence equals
it; (⇒) any properly-extending partial answer would be subsumed by an
answer properly extending ``h``.  Moreover restrictions of partial answers
are partial answers, so it suffices to refute *single-variable* extensions
``h ∪ {y ↦ v}`` — and the existential over ``v`` collapses into one
CQ-satisfiability call per free variable ``y`` (leave ``y`` unsubstituted).
Total cost: ``1 + |x̄ ∖ dom(h)|`` partial-evaluation calls, each LOGCFL
under global tractability — matching Theorem 9.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..core.database import Database
from ..core.mappings import Mapping
from ..core.terms import Variable
from ..telemetry.tracer import current_tracer
from .partial_eval import partial_eval, subtree_satisfiable
from .subtrees import minimal_subtree_containing
from .wdpt import WDPT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..planner.planner import Planner


def max_eval(
    p: WDPT, db: Database, h: Mapping, planner: "Optional[Planner]" = None
) -> bool:
    """``MAX-EVAL``: is ``h ∈ p_m(D)``?  (``planner``: as for
    :func:`~repro.wdpt.partial_eval.partial_eval`.)"""
    tracer = current_tracer()
    with tracer.span("wdpt.max_eval") as sp:
        if not partial_eval(p, db, h, planner=planner):
            if tracer.enabled:
                sp.set(result=False, extension_checks=0)
            return False
        dom = h.domain()
        extension_checks = 0
        for y in p.free_variables:
            if y in dom:
                continue
            extension_checks += 1
            if extension_exists(p, db, h, y, planner):
                if tracer.enabled:
                    sp.set(result=False, extension_checks=extension_checks)
                return False
        if tracer.enabled:
            sp.set(result=True, extension_checks=extension_checks)
        return True


def extension_exists(
    p: WDPT, db: Database, h: Mapping, y: Variable, planner: "Optional[Planner]" = None
) -> bool:
    """Is some ``h ∪ {y ↦ v}`` a partial answer?  Equivalently: is the
    minimal subtree for ``dom(h) ∪ {y}``, with ``h`` substituted and ``y``
    left open, satisfiable?"""
    subtree = minimal_subtree_containing(p, set(h.domain()) | {y})
    return subtree_satisfiable(p, db, h, subtree, planner)
