"""Chandra–Merlin containment and equivalence of CQs.

``q₁ ⊆ q₂`` (for every database, ``q₁(D) ⊆ q₂(D)``) holds iff there is a
homomorphism from ``q₂`` to the canonical database of ``q₁`` that fixes the
free variables [7].  Under the paper's mapping-based answer semantics,
answers are keyed by variable *names*, so containment between queries with
different free-variable sets is simply false (their answers have different
domains — except in the degenerate direction where ``q₁`` never has
answers, which cannot happen: a CQ always answers on its own canonical
database).

Also provided: ``union_contained`` for unions of CQs (a UCQ is contained in
another iff every disjunct is contained in some disjunct of the other —
Sagiv–Yannakakis), needed by Section 6.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from ..core.cq import ConjunctiveQuery
from .homomorphism import has_query_homomorphism


def is_contained_in(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """``q₁ ⊆ q₂``.

    >>> from repro.core import atom, cq
    >>> path = cq(["?x"], [atom("E", "?x", "?y"), atom("E", "?y", "?z")])
    >>> edge = cq(["?x"], [atom("E", "?x", "?y")])
    >>> is_contained_in(path, edge)
    True
    >>> is_contained_in(edge, path)
    False
    """
    if frozenset(q1.free_variables) != frozenset(q2.free_variables):
        return False
    # Name clashes between existential variables of q1 and q2 are harmless:
    # the homomorphism's domain is q2's variables and its range is the
    # frozen canonical database of q1.
    fixed = {v: v for v in q1.free_variables}
    return has_query_homomorphism(q2.atoms, q1.atoms, fixed=fixed)


def union_contained(
    union1: Sequence[ConjunctiveQuery], union2: Sequence[ConjunctiveQuery]
) -> bool:
    """UCQ containment: every disjunct of ``union1`` is contained in some
    disjunct of ``union2`` (Sagiv–Yannakakis)."""
    return all(any(is_contained_in(q1, q2) for q2 in union2) for q1 in union1)


def reduce_union(queries: Iterable[ConjunctiveQuery]) -> List[ConjunctiveQuery]:
    """Remove disjuncts contained in another disjunct (the ``φ_cq^r``
    reduction used in the proof of Theorem 17).

    Keeps one representative per equivalence class; the result is a minimal
    equivalent union.
    """
    pool = list(queries)
    kept: List[ConjunctiveQuery] = []
    for i, q in enumerate(pool):
        dominated = False
        for j, other in enumerate(pool):
            if i == j:
                continue
            if is_contained_in(q, other):
                if not is_contained_in(other, q):
                    dominated = True
                    break
                # Equivalent disjuncts: keep only the first occurrence.
                if j < i:
                    dominated = True
                    break
        if not dominated:
            kept.append(q)
    return kept
