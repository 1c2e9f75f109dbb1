"""Front-door CQ evaluation with engine selection.

:func:`evaluate` runs a query on the engine ``method`` names (each
computes the structure it needs from scratch) or, with ``auto``, hands it
to :mod:`repro.planner`, which runs the shape's answers plan
(:func:`~repro.planner.plan.plan_node`: acyclic → Yannakakis, cyclic →
the backtracking search), decided once per query shape, cached in a
bounded LRU keyed by the structural fingerprint, and run on the analysis
that decided it — the join tree built to *decide* acyclicity is the one
Yannakakis *runs on*, never rebuilt.  The Theorem 2 engine is no answers
plan; it runs here as ``method="treewidth"``.

All engines implement the same contract — the full set of answer mappings
``h|_x̄`` — and are cross-validated against each other in the test suite.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, TYPE_CHECKING

from ..core.cq import ConjunctiveQuery
from ..core.database import Database
from ..core.mappings import Mapping
from .naive import evaluate_naive, satisfiable
from .structured import evaluate_bounded_hypertreewidth, evaluate_bounded_treewidth
from .yannakakis import evaluate_acyclic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (planner uses engines)
    from ..planner.planner import Planner

#: The explicitly named engines; ``auto`` is the planner's choice.
_ENGINES = {
    "naive": evaluate_naive,
    "yannakakis": evaluate_acyclic,
    "treewidth": evaluate_bounded_treewidth,
    "hypertreewidth": evaluate_bounded_hypertreewidth,
}


def evaluate(
    query: ConjunctiveQuery,
    db: Database,
    method: str = "auto",
    planner: "Optional[Planner]" = None,
) -> FrozenSet[Mapping]:
    """``q(D)`` with the engine chosen by ``method`` (default ``auto``).

    ``auto`` routes through ``planner`` (the process-wide default planner
    when omitted), reusing cached structural analyses across calls.
    """
    if method == "auto":
        if planner is None:
            from ..planner.planner import get_default_planner

            planner = get_default_planner()
        return planner.evaluate_cq(query, db)
    engine = _ENGINES.get(method)
    if engine is None:
        raise ValueError(
            "unknown method %r; pick one of %r" % (method, ("auto",) + tuple(_ENGINES))
        )
    return engine(query, db)


def holds(query: ConjunctiveQuery, db: Database) -> bool:
    """Boolean evaluation: is ``q(D)`` non-empty?  Every homomorphism of
    the body projects to an answer, so this is satisfiability of the body
    whatever is free — decided at the first witness, nothing assembled."""
    return satisfiable(query.atoms, db)
