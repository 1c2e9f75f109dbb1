"""Unions of WDPTs (Section 6).

A UWDPT ``φ = ⋃ᵢ pᵢ`` evaluates to ``⋃ᵢ pᵢ(D)`` (the ``pᵢ`` need not share
free variables).  Evaluation problems lift directly (Theorem 16); the
interesting part is semantic optimization, which becomes dramatically
cheaper than for single WDPTs through the ``φ_cq`` translation:

* :func:`phi_cq` — the union of the projected subtree CQs ``r_{T'}`` over
  all members and all rooted subtrees; ``φ ≡ₛ φ_cq`` (shown in the text
  before Proposition 9, and checkable here with
  :func:`repro.wdpt.subsumption.subsumed_on`-style spot tests).
* :func:`is_in_m_uwb` — Proposition 9 / Theorem 17: ``φ ∈ M(UWB(k))`` iff
  every CQ of the reduced union ``φ_cq^r`` is equivalent to a CQ of
  ``C(k)``, decided exactly via cores.
* :func:`uwb_equivalent` — the Theorem 17(2) construction of an
  ``≡ₛ``-equivalent union of polynomial-size ``WB(k)`` members.
* :func:`uwb_approximation` — Theorem 18: the unique (up to ``≡ₛ``)
  ``UWB(k)``-approximation as the union of the per-CQ ``C(k)``-
  approximations of ``φ_cq``.
* :func:`is_uwb_approximation` — Proposition 10's test: ``φ' ⊑ φ`` and
  ``φ_cq-app ⊑ φ'``.
"""

from __future__ import annotations

from typing import (
    FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple, TYPE_CHECKING,
)

from ..core.cq import ConjunctiveQuery
from ..core.database import Database
from ..core.mappings import Mapping, maximal_mappings
from ..cqalgs.approximation import in_beta_hw, in_tw, union_approximation
from ..cqalgs.containment import reduce_union
from ..cqalgs.cores import core, semantically_in_beta_hw, semantically_in_tw
from .classes import WB_TW
from .evaluation import evaluate as wdpt_evaluate
from .max_eval import compile_max
from .partial_eval import Witness, partial_eval_witness, program
from .partial_eval import partial_eval as wdpt_partial_eval
from .subsumption import frees_covered, unsubsumed_subtree
from .wdpt import WDPT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..planner.planner import Planner


class UWDPT:
    """A union of WDPTs.

    >>> from repro.core import atom
    >>> from repro.wdpt.wdpt import WDPT
    >>> from repro.core.cq import ConjunctiveQuery
    >>> phi = UWDPT([WDPT.from_cq(ConjunctiveQuery(["?x"], [atom("E", "?x", "?y")]))])
    >>> len(phi)
    1
    """

    __slots__ = ("members",)

    def __init__(self, members: Iterable[WDPT]):
        self.members: Tuple[WDPT, ...] = tuple(members)
        if not self.members:
            raise ValueError("a union of WDPTs needs at least one member")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UWDPT) and other.members == self.members

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        return "UWDPT(%d members)" % len(self.members)

    def size(self) -> int:
        return sum(p.size() for p in self.members)


# ---------------------------------------------------------------------------
# Evaluation problems (Theorem 16)
# ---------------------------------------------------------------------------
def evaluate_union(phi: UWDPT, db: Database) -> FrozenSet[Mapping]:
    """``φ(D) = ⋃ᵢ pᵢ(D)``."""
    out: Set[Mapping] = set()
    for p in phi:
        out |= wdpt_evaluate(p, db)
    return frozenset(out)


def union_eval(phi: UWDPT, db: Database, h: Mapping) -> bool:
    """``⋃-EVAL``: is ``h ∈ φ(D)``?"""
    return any(h in wdpt_evaluate(p, db) for p in phi)


def union_partial_eval(
    phi: UWDPT, db: Database, h: Mapping, planner: "Optional[Planner]" = None
) -> bool:
    """``⋃-PARTIAL-EVAL``: does some ``h' ∈ φ(D)`` extend ``h``?
    LOGCFL-style: one Theorem 8 call per member (with a ``planner``, its
    memoized subtree profiles are shared across members and candidate
    mappings; without one each call is the backtracking search)."""
    return any(wdpt_partial_eval(p, db, h, planner=planner) for p in phi)


class MemberWitness(NamedTuple):
    """The certificate of a successful ``⋃-PARTIAL-EVAL``: which member
    answered, and its :class:`~repro.wdpt.partial_eval.Witness`."""

    member: int
    witness: Witness

    @property
    def extended(self) -> bool:
        """Found by extending the carried witness of the same member."""
        return self.witness.extended


def union_partial_eval_witness(
    phi: UWDPT, db: Database, h: Mapping, carried: Optional[MemberWitness] = None
) -> Optional[MemberWitness]:
    """``⋃-PARTIAL-EVAL`` by the backtracking search, with its certificate.

    The member of ``carried`` is tried first, extending its witness
    (:func:`~repro.wdpt.partial_eval.partial_eval_witness`, which falls
    back to that member's full search); then every other member in order."""
    members = phi.members
    first = None if carried is None else carried.member
    if first is not None:
        found = partial_eval_witness(members[first], db, h, carried.witness)
        if found is not None:
            return MemberWitness(first, found)
    for i, p in enumerate(members):
        if i != first:
            found = partial_eval_witness(p, db, h)
            if found is not None:
                return MemberWitness(i, found)
    return None


def union_max_eval(
    phi: UWDPT, db: Database, h: Mapping, planner: "Optional[Planner]" = None
) -> bool:
    """``⋃-MAX-EVAL``: is ``h`` a ⊑-maximal answer of ``φ(D)``?

    ``h`` must be a partial answer of the union, and no member may admit a
    partial answer properly extending it (single-variable extensions
    suffice — restrictions of partial answers are partial answers).
    """
    if not union_partial_eval(phi, db, h, planner=planner):
        return False
    bound = h.as_dict()
    domain = frozenset(bound)
    for p in phi:
        compiled = program(compile_max, p, domain, planner)
        if compiled is not None and compiled.extended(bound, db, planner):
            return False
    return True


def evaluate_union_max(phi: UWDPT, db: Database) -> FrozenSet[Mapping]:
    """``φₘ(D)``: the ⊑-maximal answers of the union."""
    return maximal_mappings(evaluate_union(phi, db))


# ---------------------------------------------------------------------------
# The φ_cq translation (Section 6)
# ---------------------------------------------------------------------------
def phi_cq(phi: UWDPT) -> List[ConjunctiveQuery]:
    """``φ_cq``: the union over members ``p`` and rooted subtrees ``T'`` of
    the projected CQs ``r_{T'}`` (Example 8).  Deduplicated."""
    out: List[ConjunctiveQuery] = []
    seen: Set[ConjunctiveQuery] = set()
    for p in phi:
        for nodes in p.tree.rooted_subtrees():
            q = p.subtree_answer_cq(nodes)
            if q not in seen:
                seen.add(q)
                out.append(q)
    return out


def phi_cq_reduced(phi: UWDPT) -> List[ConjunctiveQuery]:
    """``φ_cq^r``: ``φ_cq`` with contained disjuncts removed (proof of
    Theorem 17)."""
    return reduce_union(phi_cq(phi))


# ---------------------------------------------------------------------------
# Subsumption between unions
# ---------------------------------------------------------------------------
def union_subsumed_by(phi1: UWDPT, phi2: UWDPT) -> bool:
    """``φ₁ ⊑ φ₂``: for every database, every answer of ``φ₁`` is subsumed
    by an answer of ``φ₂``.

    Same canonical-database characterization as for single WDPTs: for each
    member ``p`` of ``φ₁`` and each rooted subtree ``S`` of ``p``, the
    frozen free part of ``S`` must be a partial answer of ``φ₂`` over the
    canonical database of ``q_S``.  The walk carries the answering member
    and its witness down to the next check, which tries to extend it
    before anything else (:func:`union_partial_eval_witness`).

    ``False`` before any walk when some member ``p`` of ``φ₁`` has no
    member ``q`` of ``φ₂`` with ``free(p) ⊆ free(q)``: ``φ₂(D)`` is the
    union of its members' answers, so none subsumes the answer of ``p``
    binding all of ``p``'s free variables (:func:`frees_covered`).
    """
    if not all(any(frees_covered(p, q) for q in phi2) for p in phi1):
        return False

    def check(db: Database, nu: Mapping, carried: Optional[MemberWitness]):
        return union_partial_eval_witness(phi2, db, nu, carried)

    return all(unsubsumed_subtree(p, check) is None for p in phi1)


def union_subsumption_equivalent(phi1: UWDPT, phi2: UWDPT) -> bool:
    """``φ₁ ≡ₛ φ₂``."""
    return union_subsumed_by(phi1, phi2) and union_subsumed_by(phi2, phi1)


def as_union_of_cqs(queries: Sequence[ConjunctiveQuery]) -> UWDPT:
    """Wrap CQs as single-node WDPTs forming a UWDPT."""
    return UWDPT([WDPT.from_cq(q) for q in queries])


# ---------------------------------------------------------------------------
# Membership in M(UWB(k))  (Proposition 9 / Theorem 17)
# ---------------------------------------------------------------------------
def is_in_m_uwb(phi: UWDPT, k: int, variant: str = WB_TW) -> bool:
    """``φ ∈ M(UWB(k))``: every CQ of ``φ_cq^r`` is equivalent to a CQ in
    ``C(k)`` — exact, via cores."""
    member_test = semantically_in_tw if variant == WB_TW else semantically_in_beta_hw
    return all(member_test(q, k) for q in phi_cq_reduced(phi))


def uwb_equivalent(phi: UWDPT, k: int, variant: str = WB_TW) -> Optional[UWDPT]:
    """Theorem 17(2): an ``≡ₛ``-equivalent union of ``WB(k)`` WDPTs (each
    of polynomial size — here: the cores of the ``φ_cq^r`` disjuncts), or
    ``None`` when ``φ ∉ M(UWB(k))``."""
    member_test = semantically_in_tw if variant == WB_TW else semantically_in_beta_hw
    cqs = phi_cq_reduced(phi)
    if not all(member_test(q, k) for q in cqs):
        return None
    return as_union_of_cqs([core(q) for q in cqs])


# ---------------------------------------------------------------------------
# UWB(k)-approximation  (Theorem 18, Proposition 10)
# ---------------------------------------------------------------------------
def uwb_approximation(phi: UWDPT, k: int, variant: str = WB_TW) -> UWDPT:
    """The unique (up to ``≡ₛ``) ``UWB(k)``-approximation of ``φ``: the
    union of the ``C(k)``-approximations of the CQs of ``φ_cq`` [4]."""
    class_test = in_tw(k) if variant == WB_TW else in_beta_hw(k)
    approx_cqs = union_approximation(phi_cq(phi), class_test)
    return as_union_of_cqs(reduce_union(approx_cqs))


def is_uwb_approximation(
    phi_prime: UWDPT, phi: UWDPT, k: int, variant: str = WB_TW
) -> bool:
    """Proposition 10's decision procedure: ``φ'`` is a
    ``UWB(k)``-approximation of ``φ`` iff ``φ' ⊑ φ`` and the canonical
    approximation ``φ_cq-app`` is ⊑ ``φ'``.  (Membership of ``φ'`` in
    ``UWB(k)`` is also required and checked.)"""
    from .classes import is_in_wb

    if not all(is_in_wb(p, k, variant) for p in phi_prime):
        return False
    if not union_subsumed_by(phi_prime, phi):
        return False
    canonical_app = uwb_approximation(phi, k, variant)
    return union_subsumed_by(canonical_app, phi_prime)
