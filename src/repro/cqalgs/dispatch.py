"""Front-door CQ evaluation.

:func:`evaluate` hands a query to :mod:`repro.planner`, which runs the
shape's answers plan (:func:`~repro.planner.plan.plan_node`: acyclic →
Yannakakis, cyclic → Theorem 2's bucket elimination), decided once per
query shape, cached in a bounded LRU keyed by the structural
fingerprint, and run on the analysis that decided it — the join tree
built to *decide* acyclicity is the one Yannakakis *runs on*, and the
elimination order the width search found is the one the buckets follow,
never rebuilt.

Every engine implements the same contract — the full set of answer
mappings ``h|_x̄`` — and the test suite cross-validates them.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, TYPE_CHECKING

from ..core.cq import ConjunctiveQuery
from ..core.database import Database
from ..core.mappings import Mapping
from .naive import satisfiable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (planner uses engines)
    from ..planner.planner import Planner


def evaluate(
    query: ConjunctiveQuery, db: Database, planner: "Optional[Planner]" = None
) -> FrozenSet[Mapping]:
    """``q(D)`` on the plan of ``planner`` (the process-wide default
    planner when omitted), reusing cached structural analyses across
    calls."""
    if planner is None:
        from ..planner.planner import get_default_planner

        planner = get_default_planner()
    return planner.evaluate_cq(query, db)


def holds(query: ConjunctiveQuery, db: Database) -> bool:
    """Boolean evaluation: is ``q(D)`` non-empty?  Every homomorphism of
    the body projects to an answer, so this is satisfiability of the body
    whatever is free — decided at the first witness, nothing assembled."""
    return satisfiable(query.atoms, db)
