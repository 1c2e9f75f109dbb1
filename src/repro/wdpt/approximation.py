"""Semantic optimization and approximation of WDPTs (Section 5).

Two problems over the well-behaved classes ``WB(k) = g-TW(k)`` or
``g-HW'(k)``:

* **Membership** in ``M(WB(k))``: is ``p`` subsumption-equivalent to some
  WDPT in ``WB(k)``?  (Theorem 13: decidable in NEXPTIME^NP.)
* **Approximation**: find ``p' ∈ WB(k)`` with ``p' ⊑ p`` and nothing of
  ``WB(k)`` strictly between (Theorem 14: always exists, exponential size,
  double-exponential time).

Both are realized as searches over an explicit **candidate space** derived
from the Lemma 1 normal form of ``p``:

1. every rooted subtree of the normal form, with the remaining branches
   dropped (dropping branches only loses optional bindings, so the result
   is ⊑ ``p``);
2. the single-node *collapse* of each such subtree (conjoining all its
   atoms — the ``r_{T'}`` queries of Section 6);
3. every variable-identification *quotient* of each of the above that
   keeps free variables distinct and stays well-designed.

Every candidate is verified against the exact subsumption test, so results
are always **sound**: a returned approximation is in ``WB(k)``, is ⊑ ``p``,
and is ⊑-maximal *within the candidate space*; a returned membership
witness really is ``≡ₛ``-equivalent to ``p`` and in ``WB(k)``.  The space
realizes the two transformations the Lemma 1 proof applies to an arbitrary
witness (node restructuring + per-subtree homomorphism images); searching
all WDPTs up to the lemma's exponential size bound would be the fully
general procedure and is intentionally out of budget — see DESIGN.md.  For
*single-node* WDPTs (i.e. CQs) both problems are solved exactly via the
CQ theory of [4]/[10] (cores and quotient approximations).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set

from ..core.terms import Variable
from ..exceptions import (
    BudgetExceededError,
    ConstantsNotSupportedError,
    NotWellDesignedError,
    SchemaError,
)
from ..cqalgs.approximation import approximations as cq_approximations
from ..cqalgs.approximation import in_beta_hw, in_tw, maximal_up_to_equivalence
from ..cqalgs.cores import semantically_in_beta_hw, semantically_in_tw
from .classes import WB_TW, is_in_wb
from .subsumption import is_properly_subsumed_by, is_subsumed_by, is_subsumption_equivalent
from .transform import lemma1_normal_form, _restrict_to_nodes
from .tree import PatternTree
from .wdpt import WDPT

#: Caps for the candidate-space search.
MAX_SUBTREES = 512
MAX_QUOTIENT_VARIABLES = 10


# ---------------------------------------------------------------------------
# Candidate space
# ---------------------------------------------------------------------------
def candidate_space(p: WDPT) -> Iterator[WDPT]:
    """The Lemma-1-derived candidate WDPTs (each is ⊑ ``p`` by
    construction; this invariant is nevertheless re-verified by callers).

    Deduplicated; includes ``p``'s normal form itself.
    """
    yield from _candidates_of(p, lemma1_normal_form(p))


def _candidates_of(p: WDPT, norm: WDPT) -> Iterator[WDPT]:
    """:func:`candidate_space` of ``p``, whose Lemma 1 normal form
    ``norm`` the caller built already."""
    if p.constants():
        raise ConstantsNotSupportedError(
            "approximation requires a constant-free WDPT (paper Section 5)"
        )
    seen: Set[WDPT] = set()
    subtree_count = 0
    for nodes in norm.tree.rooted_subtrees():
        subtree_count += 1
        if subtree_count > MAX_SUBTREES:
            raise BudgetExceededError(
                "candidate search limited to %d rooted subtrees" % MAX_SUBTREES
            )
        restricted = _restrict_to_nodes(norm, set(nodes))
        collapsed = _collapse(restricted)
        for base in (restricted, collapsed):
            for candidate in _quotients_of(base):
                if candidate not in seen:
                    seen.add(candidate)
                    yield candidate


def _collapse(p: WDPT) -> WDPT:
    """All atoms of ``p`` conjoined into a single node (the total-AND
    reading; its answers are the fully-matched answers of ``p``)."""
    atoms = p.atoms_of(p.tree.nodes())
    vs = {v for a in atoms for v in a.variables()}
    frees = [v for v in p.free_variables if v in vs]
    return WDPT(PatternTree(), [atoms], frees)


def _quotients_of(p: WDPT) -> Iterator[WDPT]:
    """Existential-variable quotients of ``p`` (identity included).

    Only *existential* variables are merged (with each other); free
    variables stay untouched.  Unlike the CQ case, merging an existential
    into a free variable is unsound for trees: it can relocate the free
    variable into another node, changing which subtrees bind it, and the
    quotient then fails ``⊑ p``.  Renamings that break well-designedness
    (merging variables of disjoint branches) are skipped.

    With this restriction every yielded quotient is ⊑ ``p``: composing a
    quotient homomorphism with ``θ`` maps any witness subtree of the
    quotient to the same subtree of ``p``, preserving the free bindings.
    """
    existentials = sorted(p.existential_variables())
    if len(existentials) > MAX_QUOTIENT_VARIABLES:
        # Too many variables to enumerate partitions: fall back to the
        # identity quotient only (still a sound candidate).
        yield p
        return

    def partitions(i: int, blocks: List[List[Variable]]) -> Iterator[List[List[Variable]]]:
        if i == len(existentials):
            yield [list(b) for b in blocks]
            return
        v = existentials[i]
        for b in blocks:
            b.append(v)
            yield from partitions(i + 1, blocks)
            b.pop()
        blocks.append([v])
        yield from partitions(i + 1, blocks)
        blocks.pop()

    emitted: Set[WDPT] = set()
    for blocks in partitions(0, []):
        renaming: Dict[Variable, Variable] = {}
        for block in blocks:
            representative = block[0]
            for v in block:
                renaming[v] = representative
        try:
            q = p.rename(renaming)
        except (NotWellDesignedError, SchemaError):
            continue
        if q not in emitted:
            emitted.add(q)
            yield q


# ---------------------------------------------------------------------------
# Membership in M(WB(k))  (Theorem 13)
# ---------------------------------------------------------------------------
def find_wb_equivalent(p: WDPT, k: int, variant: str = WB_TW) -> Optional[WDPT]:
    """A WDPT ``p' ∈ WB(k)`` with ``p ≡ₛ p'``, or ``None`` if no candidate
    witnesses membership.

    Exact for single-node WDPTs (CQ theory); for larger trees a ``None``
    means "no witness in the candidate space" (sound positives only).
    """
    if is_in_wb(p, k, variant):
        return p
    if p.is_single_node():
        return _single_node_equivalent(p, k, variant)
    norm = lemma1_normal_form(p)
    if is_in_wb(norm, k, variant):
        return norm
    for candidate in _candidates_of(p, norm):
        if not is_in_wb(candidate, k, variant):
            continue
        if is_subsumption_equivalent(p, candidate):
            return candidate
    return None


def is_in_m_wb(p: WDPT, k: int, variant: str = WB_TW) -> bool:
    """Is ``p ∈ M(WB(k))``?  (See :func:`find_wb_equivalent` for scope.)"""
    return find_wb_equivalent(p, k, variant) is not None


def _single_node_equivalent(p: WDPT, k: int, variant: str) -> Optional[WDPT]:
    query = p.to_cq()
    if variant == WB_TW:
        member = semantically_in_tw(query, k)
    else:
        member = semantically_in_beta_hw(query, k)
    if not member:
        return None
    from ..cqalgs.cores import core

    return WDPT.from_cq(core(query))


# ---------------------------------------------------------------------------
# WB(k)-approximation  (Theorem 14)
# ---------------------------------------------------------------------------
def wb_approximations(p: WDPT, k: int, variant: str = WB_TW) -> List[WDPT]:
    """The ⊑-maximal in-class candidates subsumed by ``p`` — the
    ``WB(k)``-approximations within the candidate space (exact
    approximations for single-node WDPTs, via [4]).

    Always non-empty: collapsing the whole tree to one node and identifying
    all existential variables into a single block eventually lands in
    ``WB(k)`` for every ``k ≥ 1``.
    """
    if p.is_single_node():
        class_test = in_tw(k) if variant == WB_TW else in_beta_hw(k)
        return [WDPT.from_cq(q) for q in cq_approximations(p.to_cq(), class_test)]
    in_class = [
        candidate
        for candidate in candidate_space(p)
        if is_in_wb(candidate, k, variant) and is_subsumed_by(candidate, p)
    ]
    maximal = maximal_up_to_equivalence(in_class, is_subsumed_by)
    return sorted(maximal, key=repr)


def wb_approximation(p: WDPT, k: int, variant: str = WB_TW) -> WDPT:
    """One ``WB(k)``-approximation of ``p`` (the first in a deterministic
    order).  If ``p`` is already in ``WB(k)``, returns ``p`` itself."""
    if is_in_wb(p, k, variant):
        return p
    candidates = wb_approximations(p, k, variant)
    if not candidates:  # pragma: no cover - the space contains collapses
        raise BudgetExceededError("no approximation found in the candidate space")
    return candidates[0]


def is_wb_approximation(
    candidate: WDPT, p: WDPT, k: int, variant: str = WB_TW
) -> bool:
    """Decision problem ``WB(k)``-APPROXIMATION (Proposition 8), relative
    to the candidate space: ``candidate ∈ WB(k)``, ``candidate ⊑ p``, and
    no in-class candidate lies strictly between."""
    if not is_in_wb(candidate, k, variant):
        return False
    if not is_subsumed_by(candidate, p):
        return False
    for other in candidate_space(p):
        if not is_in_wb(other, k, variant):
            continue
        if is_subsumed_by(other, p) and is_properly_subsumed_by(candidate, other):
            return False
    return True
