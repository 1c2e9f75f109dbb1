"""Can a written fact change what a WDPT says about a database?

Definition 2 makes ``p(D)`` a function of the homomorphisms from the
rooted subtrees of ``p`` into ``D`` — and so are ``p_m(D)`` and the three
decision problems of Section 3, which are questions about ``p(D)``.  A
homomorphism of a rooted subtree that maps the atom ``a`` of node ``n``
to the fact ``t`` restricts to a homomorphism of the *branch* from the
root to ``n`` (a rooted subtree contains the branch of each of its
nodes) that still maps ``a`` to ``t``.  Hence the test of
:func:`can_touch`: over a database holding ``t``, some homomorphism of
some rooted subtree uses ``t`` only if, for some node ``n`` and some
``a ∈ λ(n)`` that unifies with ``t`` by ``θ``, the atoms of the branch to
``n`` are satisfiable under ``θ``.  When no ``(n, a)`` passes, every
rooted subtree has the same homomorphisms into the database with ``t``
as into the one without it, and every answer cached on one side of the
write holds on the other (docs/ALGORITHMS.md, "The touch test", has the
proof and what it means for inserts, deletes and multi-fact writes).

The test is one-sided: a fact that reaches a branch may still leave
``p(D)`` as it was.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.atoms import Atom
from ..core.database import Database
from ..core.mappings import Mapping
from ..core.terms import Constant, Variable
from ..cqalgs.naive import satisfiable
from .wdpt import WDPT


def unify(pattern: Atom, fact: Atom) -> Optional[Dict[Variable, Constant]]:
    """The assignment ``θ`` of ``pattern``'s variables with
    ``pattern·θ = fact``, or ``None`` when there is none (another
    relation or arity, a constant that differs, a repeated variable
    facing two constants).

    >>> from repro.core.atoms import atom
    >>> unify(atom("E", "?x", 2), atom("E", 1, 2))
    {?x: 1}
    >>> unify(atom("E", "?x", "?x"), atom("E", 1, 2)) is None
    True
    """
    if pattern.relation != fact.relation or len(pattern.args) != len(fact.args):
        return None
    theta: Dict[Variable, Constant] = {}
    for arg, value in zip(pattern.args, fact.args):
        if isinstance(arg, Variable):
            if theta.setdefault(arg, value) != value:
                return None
        elif arg != value:
            return None
    return theta


def can_touch(p: WDPT, db: Database, fact: Atom) -> bool:
    """Can ``fact`` — a ground atom **held by** ``db`` — be the image of
    an atom under a homomorphism from a rooted subtree of ``p`` into
    ``db``?  ``False`` means ``p`` has the same answers over ``db`` and
    over ``db`` without ``fact``.

    Unification is plain Python and filters first; each pair that
    survives costs one :func:`~repro.cqalgs.naive.satisfiable` call over
    the rest of the branch with ``θ`` pre-assigned — atoms handed over
    most-bound first, so the point lookups run (and fail) before any
    wider read.
    """
    for node, label in enumerate(p.labels):
        for a in label:
            theta = unify(a, fact)
            if theta is None:
                continue
            branch = {b for n in p.tree.path_to_root(node) for b in p.labels[n]}
            branch.discard(a)  # a·θ is the fact, and the fact is there
            most_bound_first = sorted(
                branch, key=lambda b: sum(v not in theta for v in b.variables())
            )
            if satisfiable(most_bound_first, db, Mapping.from_trusted(theta)):
                return True
    return False
