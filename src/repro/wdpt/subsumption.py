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

The loop exists once, :func:`unsubsumed_subtree`; the Boolean tests here
and :func:`repro.wdpt.unions.union_subsumed_by` are "no counterexample".
It walks the subtree lattice depth-first and keeps ``D_S`` and ``ν``
incrementally instead of rebuilding them ``2ⁿ`` times.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional

from ..core.atoms import Atom
from ..core.database import Database
from ..core.mappings import Mapping
from ..telemetry.tracer import current_tracer
from .partial_eval import partial_eval
from .subtrees import new_variables_at
from .tree import ROOT
from .wdpt import WDPT


def is_subsumed_by(p1: WDPT, p2: WDPT) -> bool:
    """``p₁ ⊑ p₂``.

    The inner ``PARTIAL-EVAL`` calls run the backtracking search: each
    canonical database is a handful of frozen facts, so there is no
    analysis a planner could reuse.
    """
    return subsumption_counterexample(p1, p2) is None


def subsumption_counterexample(p1: WDPT, p2: WDPT) -> Optional[FrozenSet[int]]:
    """The first rooted subtree of ``p1`` witnessing ``p1 ⋢ p2``, or
    ``None`` when ``p1 ⊑ p2``.

    The returned node set identifies a concrete failure: the canonical
    database of that subtree admits an answer of ``p1`` that no answer of
    ``p2`` subsumes — ready-made debugging output for query rewrites.
    (A subtree binding a free variable ``p₂`` does not have fails inside
    ``PARTIAL-EVAL``: no answer of ``p₂`` can subsume one mentioning it.)
    """
    return unsubsumed_subtree(p1, lambda db, nu: partial_eval(p2, db, nu))


def unsubsumed_subtree(
    p1: WDPT, partial_answer: Callable[[Database, Mapping], bool]
) -> Optional[FrozenSet[int]]:
    """The Theorem 11 loop, written once: the first rooted subtree ``S`` of
    ``p1`` whose frozen free part ``ν_S`` fails ``partial_answer(D_S,
    ν_S)``, or ``None`` when every subtree passes.

    Subtrees are walked depth-first, each exactly once, a child differing
    from its parent by one node ``n`` — so ``ν`` grows by the free
    variables of ``n``, and ``D_S`` is *one* database: the frozen label of
    ``n`` (:meth:`WDPT.frozen_labels`, frozen once per tree) is added on
    the way down and discarded on the way back, an atom two nodes share
    staying until the last of them leaves.

    ``partial_answer`` must be monotone in the database (PARTIAL-EVAL asks
    for a homomorphism, so it is).  Then a subtree with a leaf ``ℓ``
    introducing no free variable needs no check: ``S ∖ {ℓ}`` is a rooted
    subtree with the same ``ν`` and a smaller database, and it either
    passed — so ``S`` passes — or is the counterexample itself.
    """
    labels, freezing = p1.frozen_labels()
    frees = frozenset(p1.free_variables)
    tree = p1.tree
    #: per node: its free variables frozen, and whether it introduces any
    bound = [{v: freezing[v] for v in p1.node_variables(n) & frees} for n in tree.nodes()]
    silent = [not new_variables_at(p1, n) & frees for n in tree.nodes()]
    db = Database()
    holders: Dict[Atom, int] = {}
    subtree: List[int] = []
    kids = [0] * len(labels)  # children inside the subtree, per node
    counts = {"subtrees": 0, "checks": 0}

    def walk(node: int, frontier: List[int], nu: Dict, silent_leaves: int) -> bool:
        """Does some subtree extending ``subtree + [node]`` by nodes of
        ``frontier`` (and below) fail?  Leaves it in ``subtree`` if so."""
        subtree.append(node)
        for fact in labels[node]:
            holders[fact] = holders.get(fact, 0) + 1
            if holders[fact] == 1:
                db.add(fact)
        parent = tree.parent(node)
        if parent is not None:
            kids[parent] += 1
            if silent[parent] and kids[parent] == 1:  # no longer a leaf
                silent_leaves -= 1
        silent_leaves += silent[node]
        nu = {**nu, **bound[node]}
        counts["subtrees"] += 1
        if not silent_leaves or node == ROOT:
            counts["checks"] += 1
            if not partial_answer(db, Mapping.from_trusted(nu)):
                return True
        frontier = frontier + list(tree.children(node))
        for i, child in enumerate(frontier):
            if walk(child, frontier[i + 1:], nu, silent_leaves):
                return True
        subtree.pop()
        if parent is not None:
            kids[parent] -= 1
        for fact in labels[node]:
            holders[fact] -= 1
            if not holders[fact]:
                db.discard(fact)
        return False

    tracer = current_tracer()
    with tracer.span("wdpt.subsumption") as sp:
        failed = walk(ROOT, [], {}, 0)
        if tracer.enabled:
            sp.set(result=not failed, **counts)
    return frozenset(subtree) if failed else None


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
