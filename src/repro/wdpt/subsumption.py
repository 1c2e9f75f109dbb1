"""Subsumption and subsumption-equivalence of WDPTs (Section 4).

``p₁ ⊑ p₂``: over every database, every answer of ``p₁`` is subsumed by an
answer of ``p₂`` [3].  Containment and classical equivalence are
undecidable for WDPTs (Theorem 10); subsumption is the decidable, robust
replacement, and ``≡ₛ`` (both directions) coincides with the
maximal-mapping equivalence ``≡_max`` (Proposition 5).

Decision procedure (the [17] characterization, recast through this
library's own primitives): for **every** rooted subtree ``S`` of ``p₁``,

    freeze ``q_S`` into its canonical database ``D_S`` and ask
    ``PARTIAL-EVAL(p₂, D_S, ν)`` where ``ν`` freezes the free variables of
    ``p₁`` occurring in ``S``.

*Soundness*: if ``p₁ ⊑ p₂``, the identity embedding of ``S`` extends to a
maximal homomorphism of ``p₁`` over ``D_S`` whose answer subsumes ``ν``,
so some answer of ``p₂`` over ``D_S`` subsumes ``ν``.  *Completeness*: for
any ``D`` and ``h ∈ p₁(D)`` with witness subtree ``S`` and maximal
homomorphism ``ĥ``, compose the ``p₂``-side witness over ``D_S`` with the
database homomorphism ``unfreeze∘ĥ : D_S → D`` and extend it maximally —
the result is an answer of ``p₂`` over ``D`` subsuming ``h``.

The loop over subtrees is the deliberate exponential part (the problem is
Π₂ᵖ-complete); each inner check is one ``PARTIAL-EVAL`` of ``p₂``, which by
Theorem 8 is polynomial whenever ``p₂`` is globally tractable.  This code
path therefore *is* the asymmetric coNP-membership of Theorem 11(1): the
right-hand side's restriction alone shrinks the inner cost, while ``p₁``
may be arbitrary.
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from ..core.canonical import canonical_database_of_atoms, freezing_of
from ..core.database import Database
from .partial_eval import partial_eval
from .subtrees import subtree_free_variables
from .wdpt import WDPT


def is_subsumed_by(p1: WDPT, p2: WDPT) -> bool:
    """``p₁ ⊑ p₂``.

    The inner ``PARTIAL-EVAL`` calls run the backtracking search: each
    canonical database is a handful of frozen facts, built for this one
    check, so there is no analysis a planner could reuse.
    """
    frees2 = frozenset(p2.free_variables)
    for subtree in p1.tree.rooted_subtrees():
        frees_in_subtree = subtree_free_variables(p1, subtree)
        if not frees_in_subtree <= frees2:
            # p₂ can never bind these variables, so no answer of p₂ can
            # subsume an answer mentioning them.
            return False
        db = canonical_database_of_atoms(p1.atoms_of(subtree))
        nu = freezing_of(frees_in_subtree)
        if not partial_eval(p2, db, nu):
            return False
    return True


def subsumption_counterexample(p1: WDPT, p2: WDPT) -> Optional[FrozenSet[int]]:
    """The first rooted subtree of ``p1`` witnessing ``p1 ⋢ p2``, or
    ``None`` when ``p1 ⊑ p2``.

    The returned node set identifies a concrete failure: the canonical
    database of that subtree admits an answer of ``p1`` that no answer of
    ``p2`` subsumes — ready-made debugging output for query rewrites.
    """
    frees2 = frozenset(p2.free_variables)
    for subtree in p1.tree.rooted_subtrees():
        frees_in_subtree = subtree_free_variables(p1, subtree)
        if not frees_in_subtree <= frees2:
            return frozenset(subtree)
        db = canonical_database_of_atoms(p1.atoms_of(subtree))
        nu = freezing_of(frees_in_subtree)
        if not partial_eval(p2, db, nu):
            return frozenset(subtree)
    return None


def is_subsumption_equivalent(p1: WDPT, p2: WDPT) -> bool:
    """``p₁ ≡ₛ p₂``: subsumption in both directions."""
    return is_subsumed_by(p1, p2) and is_subsumed_by(p2, p1)


def is_properly_subsumed_by(p1: WDPT, p2: WDPT) -> bool:
    """``p₁ ⊏ p₂``: ``p₁ ⊑ p₂`` but not ``p₁ ≡ₛ p₂``."""
    return is_subsumed_by(p1, p2) and not is_subsumed_by(p2, p1)


def is_max_equivalent(p1: WDPT, p2: WDPT) -> bool:
    """``p₁ ≡_max p₂`` — identical maximal-mapping answers over every
    database.  By Proposition 5 this *is* subsumption-equivalence; the
    function exists to make that identification explicit (and testable
    against the semantic definition on concrete databases)."""
    return is_subsumption_equivalent(p1, p2)


def max_equivalent_on(p1: WDPT, p2: WDPT, db: Database) -> bool:
    """Semantic spot check used in tests: ``p₁ₘ(D) = p₂ₘ(D)`` on one
    concrete database."""
    from .evaluation import evaluate_max

    return evaluate_max(p1, db) == evaluate_max(p2, db)


def subsumed_on(p1: WDPT, p2: WDPT, db: Database) -> bool:
    """Semantic spot check: every answer of ``p₁(D)`` is subsumed by some
    answer of ``p₂(D)`` on one concrete database."""
    from .evaluation import evaluate

    answers2 = evaluate(p2, db)
    return all(
        any(a1.subsumed_by(a2) for a2 in answers2) for a1 in evaluate(p1, db)
    )
