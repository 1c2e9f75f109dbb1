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

Step 1 depends on ``dom(h)`` alone, and so does the plan of step 2: a
decision runs a *program* compiled once per (tree shape, ``dom(h)``) —
the subtree and its :class:`Check`, whose plan the planner resolved for
the bound set ``dom(h)`` on the subtree's unsubstituted shape (sound
because substituting ``h`` only removes hypergraph vertices, under which
acyclicity and treewidth are monotone) — and kept on the planner's
:class:`~repro.planner.profile.TreeProfile` (:func:`program`).  A
:class:`Check` is also the unit of the Theorem 6 and 9 programs: one
Boolean CQ and its plan, run by :meth:`Check.run` through
:meth:`~repro.planner.planner.Planner.check`, or as the backtracking
search without a planner.  :func:`partial_eval_witness` is the search
that returns the homomorphism it found, which a caller asking about a
growing ``h`` over a growing ``D`` (the Theorem 11 walk) hands back to
the next call so that only the newly needed atoms are searched.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, FrozenSet, Iterable, NamedTuple, Optional, Sequence, Sized, TypeVar,
    TYPE_CHECKING,
)

from ..core.atoms import Atom
from ..core.database import Database
from ..core.mappings import Mapping
from ..core.terms import Constant, Term, Variable
from ..cqalgs.naive import first_homomorphism, satisfiable
from ..planner.plan import ENGINE_NAIVE, NodePlan
from ..telemetry.resources import account_subquery
from ..telemetry.tracer import Span, current_tracer
from .subtrees import minimal_subtree_containing
from .wdpt import WDPT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..planner.planner import Planner
    from ..planner.profile import StructuralProfile, TreeProfile

_Program = TypeVar("_Program")


class Check(NamedTuple):
    """One Boolean CQ check of a compiled decision program."""

    #: The CQ's atoms, unsubstituted.
    atoms: Sequence[Atom]
    #: The planner's plan for the variables the check's binding fixes;
    #: ``None`` when the program was compiled without a planner, and the
    #: check is the backtracking search.
    plan: Optional[NodePlan]

    @classmethod
    def of(
        cls, atoms: Iterable[Atom], profile: "Optional[StructuralProfile]",
        bound: FrozenSet[Variable],
    ) -> "Check":
        """The check of ``atoms`` binding ``bound``: on ``profile``'s plan
        for ``bound`` (``profile`` the planner's profile of ``atoms``), or
        the search when there is no profile."""
        if profile is None:
            return cls(tuple(atoms), None)
        return cls(profile.sorted_atoms, profile.boolean_plan(bound))

    @property
    def engine(self) -> str:
        """The engine the check runs on."""
        return ENGINE_NAIVE if self.plan is None else self.plan.engine

    def run(
        self, binding: Dict[Variable, Term], db: Database, planner: "Optional[Planner]"
    ) -> bool:
        """Is ``binding(atoms)`` satisfiable over ``db``?  ``binding``
        binds the check's bound set (and may bind variables the atoms do
        not have).  Counted as one subquery."""
        account_subquery()
        if self.plan is None:
            return satisfiable(self.atoms, db, binding)
        return planner.check(self.plan, self.atoms, binding, db)  # type: ignore[union-attr]


def program(
    build: "Callable[[WDPT, FrozenSet[Variable], Optional[TreeProfile]], _Program]",
    p: WDPT,
    domain: FrozenSet[Variable],
    planner: "Optional[Planner]",
) -> Optional[_Program]:
    """The program ``build`` compiles for ``p`` and candidates with domain
    ``domain``: kept on ``planner``'s profile of ``p`` (so trees with one
    fingerprint share it), compiled afresh without a planner.  ``None``,
    and no entry, when ``domain`` holds a variable that is not free in
    ``p``: answers of ``p`` are defined on subsets of ``x̄`` only."""
    if not domain <= frozenset(p.free_variables):
        return None
    if planner is None:
        return build(p, domain, None)
    return planner.profile_wdpt(p).program(build, domain)  # type: ignore[return-value]


class PartialProgram(NamedTuple):
    """The Theorem 8 program for one candidate domain."""

    #: ``T'``: the minimal rooted subtree covering the domain.
    subtree: FrozenSet[int]
    #: Non-emptiness of ``q̂_{T'}`` with the domain bound.
    check: Check

    def run(self, h: Dict[Variable, Constant], db: Database, planner: "Optional[Planner]") -> bool:
        """Does ``h`` (over the program's domain) extend to an answer?"""
        with _span(self.subtree, h):
            return self.check.run(h, db, planner)


def compile_partial(
    p: WDPT, domain: FrozenSet[Variable], tree: "Optional[TreeProfile]"
) -> PartialProgram:
    """The Theorem 8 program for candidates with domain ``domain ⊆ x̄``
    (every free variable occurs in the tree, so ``T'`` exists)."""
    subtree = minimal_subtree_containing(p, domain)
    profile = None if tree is None else tree.subtree_profile(subtree)
    return PartialProgram(subtree, Check.of(p.atoms_of(subtree), profile, domain))


class Witness(NamedTuple):
    """The certificate of a successful planner-less ``PARTIAL-EVAL``."""

    #: ``T'``: the minimal rooted subtree covering ``dom(h)``.
    nodes: FrozenSet[int]
    #: A homomorphism of ``atoms_of(T')`` into ``D`` extending ``h``,
    #: total on ``vars(T')``.
    assignment: Dict[Variable, Constant]
    #: Found by extending the witness handed in (not by a full search).
    extended: bool


def partial_eval(
    p: WDPT, db: Database, h: Mapping, planner: "Optional[Planner]" = None
) -> bool:
    """``PARTIAL-EVAL``: is there ``h' ∈ p(D)`` with ``h ⊑ h'``?

    Answers of ``p`` are defined on subsets of ``x̄``, so a mapping using a
    non-free variable can never be extended by one.  ``planner`` routes
    the check; without one it is the backtracking search."""
    bound = h.as_dict()
    compiled = program(compile_partial, p, frozenset(bound), planner)
    return compiled is not None and compiled.run(bound, db, planner)


def partial_eval_witness(
    p: WDPT, db: Database, h: Mapping, carried: Optional[Witness] = None
) -> Optional[Witness]:
    """``PARTIAL-EVAL`` by the backtracking search, with its certificate:
    a :class:`Witness` for the minimal subtree ``T''`` covering ``dom(h)``,
    or ``None`` when no answer of ``p`` extends ``h``.

    ``carried`` is a witness found over a database ``D' ⊆ D`` for a mapping
    ``h' ⊑ h`` (the Theorem 11 walk hands each check the one its nearest
    checked ancestor found).  Its nodes ``T'`` then lie inside ``T''``, and
    its atoms are facts of ``D``.  If it agrees with ``h`` wherever both
    bind, only the atoms of ``T'' ∖ T'`` are searched, with the witness and
    ``h`` substituted; a success is a homomorphism of ``T''`` extending
    ``h``.  A disagreement or a failed extension falls back to the full
    search from ``h`` alone, which decides the question either way.
    """
    dom = h.domain()
    if not dom <= frozenset(p.free_variables):
        return None
    subtree = minimal_subtree_containing(p, dom)
    with _span(subtree, h):
        account_subquery()
        pre = dict(h.items())
        if carried is not None:
            nodes, assignment, _ = carried
            known = assignment.get
            if all(known(v, c) is c for v, c in pre.items()):
                found = first_homomorphism(
                    p.atoms_of(subtree - nodes), db, {**assignment, **pre}
                )
                if found is not None:
                    return Witness(subtree, found, True)
        found = first_homomorphism(p.atoms_of(subtree), db, pre)
        return None if found is None else Witness(subtree, found, False)


def _span(subtree: FrozenSet[int], h: Sized) -> Span:
    """The ``wdpt.partial_eval`` span of one check (the shared no-op span
    when tracing is off)."""
    tracer = current_tracer()
    span = tracer.span("wdpt.partial_eval")
    if tracer.enabled:
        span.set(subtree=sorted(subtree), substituted=len(h))
    return span
