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
under global tractability — matching Theorem 9.  Every one of those
checks is fixed by ``dom(h)``, so they are compiled once per (tree shape,
``dom(h)``) into a :class:`MaxProgram`, as Theorem 8's are.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, NamedTuple, Optional, Tuple, TYPE_CHECKING

from ..core.database import Database
from ..core.mappings import Mapping
from ..core.terms import Constant, Variable
from ..telemetry.tracer import current_tracer
from .partial_eval import Check, PartialProgram, compile_partial, program
from .subtrees import minimal_subtree_containing
from .wdpt import WDPT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..planner.planner import Planner
    from ..planner.profile import TreeProfile


class MaxProgram(NamedTuple):
    """The Theorem 9 program for one candidate domain."""

    #: Is ``h`` a partial answer?
    partial: PartialProgram
    #: Per free variable ``y ∉ dom``, in ``x̄`` order: is some
    #: ``h ∪ {y ↦ v}`` a partial answer — the minimal subtree for
    #: ``dom ∪ {y}`` with the domain bound and ``y`` left open.
    extensions: Tuple[Check, ...]

    def extended(
        self, h: Dict[Variable, Constant], db: Database, planner: "Optional[Planner]"
    ) -> int:
        """How many extension checks ran before one succeeded (counting
        it), or ``0`` when none does: no partial answer properly extends
        ``h``."""
        for ran, check in enumerate(self.extensions, 1):
            if check.run(h, db, planner):
                return ran
        return 0


def compile_max(
    p: WDPT, domain: FrozenSet[Variable], tree: "Optional[TreeProfile]"
) -> MaxProgram:
    """The Theorem 9 program for candidates with domain ``domain ⊆ x̄``."""
    extensions = []
    for y in p.free_variables:
        if y not in domain:
            subtree = minimal_subtree_containing(p, domain | {y})
            profile = None if tree is None else tree.subtree_profile(subtree)
            extensions.append(Check.of(p.atoms_of(subtree), profile, domain))
    return MaxProgram(compile_partial(p, domain, tree), tuple(extensions))


def max_eval(
    p: WDPT, db: Database, h: Mapping, planner: "Optional[Planner]" = None
) -> bool:
    """``MAX-EVAL``: is ``h ∈ p_m(D)``?  (``planner``: as for
    :func:`~repro.wdpt.partial_eval.partial_eval`.)"""
    tracer = current_tracer()
    with tracer.span("wdpt.max_eval") as sp:
        bound = h.as_dict()
        compiled = program(compile_max, p, frozenset(bound), planner)
        result, extension_checks = False, 0
        if compiled is not None and compiled.partial.run(bound, db, planner):
            extended = compiled.extended(bound, db, planner)
            result = not extended
            extension_checks = extended or len(compiled.extensions)
        if tracer.enabled:
            sp.set(result=result, extension_checks=extension_checks)
        return result
