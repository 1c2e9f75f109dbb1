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

Given a ``planner``, step 2 is :func:`subtree_satisfiable`, shared with
Theorems 9 and 16 and routed through the planner, so the subtree's
structural profile (join tree / decomposition) is computed once per
subtree *shape* and reused across candidate mappings (a decision op looks
the tree's profile up once and hands it to each of its checks); sound because
substituting ``h`` only removes hypergraph vertices, under which
acyclicity and treewidth are monotone.  Without one it is
:func:`partial_eval_witness`: the backtracking search, returning the
homomorphism it found, which a caller asking about a growing ``h`` over a
growing ``D`` (the Theorem 11 walk) hands back to the next call so that
only the newly needed atoms are searched.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, FrozenSet, NamedTuple, Optional, TYPE_CHECKING

from ..core.database import Database
from ..core.mappings import Mapping
from ..core.terms import Constant, Variable
from ..cqalgs.naive import first_homomorphism, satisfiable
from ..telemetry.resources import account_subquery
from ..telemetry.tracer import Span, current_tracer
from .subtrees import minimal_subtree_containing
from .wdpt import WDPT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..planner.planner import Planner
    from ..planner.profile import TreeProfile


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
    non-free variable can never be extended by one.  Without a planner this
    asks whether :func:`partial_eval_witness` finds a witness.
    """
    if planner is None:
        return partial_eval_witness(p, db, h) is not None
    return planned_partial_eval(p, db, h, planner, planner.profile_wdpt(p))


def planned_partial_eval(
    p: WDPT, db: Database, h: Mapping, planner: "Planner", tree: "TreeProfile"
) -> bool:
    """:func:`partial_eval` with a planner, ``tree`` its profile of ``p``."""
    subtree = _covering_subtree(p, h)
    if subtree is None:
        return False
    with _span(subtree, h):
        return subtree_satisfiable(p, db, h, subtree, planner, tree)


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
    subtree = _covering_subtree(p, h)
    if subtree is None:
        return None
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


def _covering_subtree(p: WDPT, h: Mapping) -> Optional[FrozenSet[int]]:
    """The minimal rooted subtree covering ``dom(h)``, or ``None`` when
    ``h`` binds a variable that is not free in ``p`` (every free variable
    occurs in the tree, so the subtree then exists)."""
    dom = h.domain()
    if not dom <= frozenset(p.free_variables):
        return None
    return minimal_subtree_containing(p, dom)


def _span(subtree: FrozenSet[int], h: Mapping) -> Span:
    """The ``wdpt.partial_eval`` span of one check (the shared no-op span
    when tracing is off)."""
    tracer = current_tracer()
    span = tracer.span("wdpt.partial_eval")
    if tracer.enabled:
        span.set(subtree=sorted(subtree), substituted=len(h))
    return span


def subtree_satisfiable(
    p: WDPT,
    db: Database,
    h: Mapping,
    subtree: AbstractSet[int],
    planner: "Optional[Planner]" = None,
    tree: "Optional[TreeProfile]" = None,
) -> bool:
    """Non-emptiness of ``q̂_{T'}``: the CQ of the rooted subtree
    ``subtree`` with ``h`` substituted — the one subroutine Theorems 8, 9
    and 16 reduce to, run on the engine ``planner`` routes the subtree's
    unsubstituted shape to, or as the backtracking search without one.
    ``tree`` is ``planner``'s profile of ``p`` when the caller holds it
    (else it is looked up here)."""
    account_subquery()
    if planner is None:
        return satisfiable(p.atoms_of(subtree), db, h)
    if tree is None:
        tree = planner.profile_wdpt(p)
    return planner.satisfiable_substituted(tree.subtree_profile(subtree), h.as_dict(), db)
