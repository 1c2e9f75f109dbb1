"""Cores of conjunctive queries and semantic width membership.

The *core* of a CQ is a minimal equivalent subquery — the unique (up to
isomorphism) retract with no proper endomorphism fixing the free variables.
Cores power the semantic-optimization results the paper inherits from
Dalmau–Kolaitis–Vardi [10]: a CQ is equivalent to some query of treewidth
≤ k iff its core has treewidth ≤ k.  Section 6 of the paper leans on this
for the ``UWB(k)`` membership test (Theorem 17).

Computing the core is done by repeated *folding*: search for an
endomorphism whose image uses strictly fewer variables, replace the query
by its image, repeat.  Each fold removes at least one variable, so at most
``|vars|`` iterations run; each search is a homomorphism test (exponential
worst case, as it must be — core recognition is DP-complete).
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from ..core.atoms import Atom, variables_of
from ..core.cq import ConjunctiveQuery
from ..hypergraphs.beta import beta_hypertreewidth_at_most
from ..hypergraphs.hypergraph import hypergraph_of_cq
from ..hypergraphs.treewidth import treewidth_at_most
from .homomorphism import apply_homomorphism, query_homomorphisms


def core(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """The core of ``query`` (free variables are kept fixed).

    >>> from repro.core import atom, cq
    >>> q = cq([], [atom("E", "?x", "?y"), atom("E", "?u", "?v"), atom("E", "?v", "?u")])
    >>> sorted(core(q).variables()) == sorted(cq([], [atom("E", "?u", "?v"), atom("E", "?v", "?u")]).variables())
    True
    """
    atoms = frozenset(query.atoms)
    frees = {v: v for v in query.free_variables}
    while True:
        folded = _fold_once(atoms, frees)
        if folded is None:
            return ConjunctiveQuery(query.free_variables, atoms)
        atoms = folded


def _fold_once(atoms: FrozenSet[Atom], frees) -> Optional[FrozenSet[Atom]]:
    n_vars = len(variables_of(atoms))
    for h in query_homomorphisms(atoms, atoms, fixed=frees):
        image = apply_homomorphism(atoms, h)
        if len(variables_of(image)) < n_vars:
            return frozenset(image)
    return None


def semantically_in_tw(query: ConjunctiveQuery, k: int) -> bool:
    """Is ``query`` equivalent to some CQ of treewidth ≤ k?

    By [10] this holds iff the core has treewidth ≤ k.
    """
    return treewidth_at_most(hypergraph_of_cq(core(query)), k)


def semantically_in_beta_hw(query: ConjunctiveQuery, k: int) -> bool:
    """Is ``query`` equivalent to some CQ in ``HW'(k)`` (β-hypertreewidth
    ≤ k)?  Sound and complete: ``HW'(k)`` is closed under subqueries, and
    the core of any witness is a subquery of it, so membership holds iff
    the core is in ``HW'(k)``."""
    return beta_hypertreewidth_at_most(hypergraph_of_cq(core(query)), k)
