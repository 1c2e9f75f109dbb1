"""Approximations of CQs in ``TW(k)`` and ``HW'(k)`` (Barceló–Libkin–Romero).

A ``C``-approximation of ``q`` is a query ``q' ∈ C`` with ``q' ⊆ q`` such
that no ``q'' ∈ C`` satisfies ``q' ⊂ q'' ⊆ q`` (Section 5 of the paper;
[4]).  For constant-free CQs and the subquery-closed classes used here,
approximations are exactly the containment-maximal elements of

    ``{q/θ : θ admissible variable partition, q/θ ∈ C}``,

which always contains at least the total-collapse quotients (single
existential class per free-variable skeleton), so approximations exist.
The correctness of restricting to quotients: if ``q' ∈ C`` and ``q' ⊆ q``,
the Chandra–Merlin homomorphism ``h : q → canonical(q')`` makes the image
``h(q)`` a subquery of ``q'`` (hence in ``C``, by subquery closure) and a
quotient ``q/θ_h`` of ``q``, with ``q' ⊆ q/θ_h ⊆ q``.  Maximality therefore
may be checked within the quotient space.

These CQ-level approximations are the backbone of the paper's Section 6:
``UWB(k)``-approximations of unions of WDPTs are unions of CQ
approximations (Theorem 18).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple, TypeVar

from ..core.cq import ConjunctiveQuery
from ..exceptions import ConstantsNotSupportedError
from ..hypergraphs.beta import beta_hypertreewidth_at_most
from ..hypergraphs.hypergraph import hypergraph_of_cq
from ..hypergraphs.treewidth import treewidth_at_most
from .containment import is_contained_in, is_properly_contained_in
from .cores import core
from .quotients import enumerate_quotients

ClassTest = Callable[[ConjunctiveQuery], bool]

T = TypeVar("T")


def maximal_up_to_equivalence(items: Sequence[T], below: Callable[[T, T], bool]) -> List[T]:
    """The ``below``-maximal elements of ``items``, one per equivalence
    class (the first in order), for a preorder ``below`` — containment of
    CQs here, subsumption of WDPTs in :mod:`repro.wdpt.approximation`.
    Each ordered pair is decided at most once, however often the two
    passes (strictly below someone? equivalent to one already kept?) ask."""
    table: Dict[Tuple[int, int], bool] = {}

    def known(i: int, j: int) -> bool:
        if (i, j) not in table:
            table[i, j] = below(items[i], items[j])
        return table[i, j]

    everyone = range(len(items))
    kept: List[int] = []
    for i in everyone:
        if any(j != i and known(i, j) and not known(j, i) for j in everyone):
            continue
        if not any(known(i, k) and known(k, i) for k in kept):
            kept.append(i)
    return [items[i] for i in kept]


def in_tw(k: int) -> ClassTest:
    """Class predicate for ``TW(k)``."""

    def test(q: ConjunctiveQuery) -> bool:
        return treewidth_at_most(hypergraph_of_cq(q), k)

    return test


def in_beta_hw(k: int) -> ClassTest:
    """Class predicate for ``HW'(k)`` (β-hypertreewidth ≤ k)."""

    def test(q: ConjunctiveQuery) -> bool:
        return beta_hypertreewidth_at_most(hypergraph_of_cq(q), k)

    return test


def approximations(
    query: ConjunctiveQuery, class_test: ClassTest
) -> List[ConjunctiveQuery]:
    """All ``C``-approximations of ``query`` (up to equivalence).

    Returns cores of the containment-maximal in-class quotients, one
    representative per equivalence class, sorted deterministically.  If
    ``query`` itself is in the class, the result is ``[core(query)]``.
    """
    if query.constants():
        raise ConstantsNotSupportedError(
            "approximation requires a constant-free query (paper Section 5)"
        )
    if class_test(query):
        return [core(query)]
    candidates = [q for q in enumerate_quotients(query) if class_test(q)]
    maximal = maximal_up_to_equivalence(candidates, is_contained_in)
    return sorted((core(q) for q in maximal), key=repr)


def tw_approximations(query: ConjunctiveQuery, k: int) -> List[ConjunctiveQuery]:
    """All ``TW(k)``-approximations of ``query``."""
    return approximations(query, in_tw(k))


def beta_hw_approximations(query: ConjunctiveQuery, k: int) -> List[ConjunctiveQuery]:
    """All ``HW'(k)``-approximations of ``query``."""
    return approximations(query, in_beta_hw(k))


def is_approximation(
    candidate: ConjunctiveQuery, query: ConjunctiveQuery, class_test: ClassTest
) -> bool:
    """Is ``candidate`` a ``C``-approximation of ``query``?

    Checks the definition directly against the quotient witness space:
    ``candidate ∈ C``, ``candidate ⊆ query``, and no in-class quotient of
    ``query`` lies strictly between them.
    """
    if not class_test(candidate) or not is_contained_in(candidate, query):
        return False
    for q in enumerate_quotients(query):
        if not class_test(q):
            continue
        if is_contained_in(candidate, q) and is_contained_in(q, query):
            if is_properly_contained_in(candidate, q):
                return False
    return True


def union_approximation(
    queries: Sequence[ConjunctiveQuery], class_test: ClassTest
) -> List[ConjunctiveQuery]:
    """The ``C``-approximation of a union of CQs: the union of the
    per-disjunct approximations ([4]; the crucial ingredient of the paper's
    Theorem 18).  Contained disjuncts are *not* removed here; use
    :func:`repro.cqalgs.containment.reduce_union` for a minimal union."""
    out: List[ConjunctiveQuery] = []
    for q in queries:
        out.extend(approximations(q, class_test))
    return out
