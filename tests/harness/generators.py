"""Seeded and hand-built instances that only tests use."""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple, Union

from repro.core.atoms import Atom
from repro.core.cq import ConjunctiveQuery
from repro.core.database import Database
from repro.core.mappings import Mapping
from repro.wdpt.tree import PatternTree
from repro.wdpt.wdpt import WDPT


def random_cq(
    n_atoms: int,
    n_variables: int,
    relations: Sequence[str] = ("E",),
    arity: int = 2,
    n_free: int = 1,
    seed: Union[int, random.Random, None] = 0,
) -> ConjunctiveQuery:
    """A random CQ over the given variable pool (connected not guaranteed)."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    pool = ["?v%d" % i for i in range(n_variables)]
    atoms = [
        Atom(rng.choice(list(relations)), tuple(rng.choice(pool) for _ in range(arity)))
        for _ in range(n_atoms)
    ]
    used = sorted({v for a in atoms for v in a.variables()})
    return ConjunctiveQuery(used[: max(0, n_free)], atoms)


def odd_cycle_edges(length: int) -> List[Tuple[int, int]]:
    """Edges of a cycle (odd lengths ≥ 5 are 3-colorable; triangles too;
    use :func:`complete_graph_edges` for non-colorable instances)."""
    return [(i, (i + 1) % length) for i in range(length)]


def complete_graph_edges(n: int) -> List[Tuple[int, int]]:
    """Edges of ``K_n`` (3-colorable iff ``n ≤ 3``)."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def sat_eval_instance(
    n_variables: int, clauses: Sequence[Sequence[int]]
) -> Tuple[Database, WDPT, Mapping]:
    """Encode CNF satisfiability into ``EVAL`` (the mechanism behind
    Theorem 5 / Proposition 1's NP-hardness, in the style of
    Proposition 3's appendix construction).

    Clauses use DIMACS conventions: literal ``+i`` is variable ``i``
    positive, ``−i`` negative (variables are 1-based).  Returns
    ``(D, p, h)`` with ``p ∈ ℓ-TW(1)`` and ``h ∈ p(D)`` iff the formula is
    satisfiable:

    * the root guesses an assignment (``v(u_i)`` with ``v(0), v(1) ∈ D``);
    * one optional child per clause matches exactly the assignments that
      *violate* the clause (every literal false), introducing a fresh free
      variable;
    * ``h`` binds only the root's anchor, so it is an answer iff some
      assignment blocks every violation gadget — i.e. satisfies every
      clause.
    """
    db = Database(
        [
            Atom("v", (0,)),
            Atom("v", (1,)),
            Atom("anchor", ("ok",)),
            Atom("false_pos", (0,)),   # a positive literal is false at 0
            Atom("false_neg", (1,)),   # a negative literal is false at 1
        ]
    )
    root: List[Atom] = [Atom("v", ("?u%d" % i,)) for i in range(1, n_variables + 1)]
    root.append(Atom("anchor", ("?x",)))
    labels: List[List[Atom]] = [root]
    parents: List[int] = []
    frees = ["?x"]
    for j, clause in enumerate(clauses):
        gadget: List[Atom] = []
        for literal in clause:
            index = abs(literal)
            if not 1 <= index <= n_variables:
                raise ValueError("literal %d out of range" % literal)
            relation = "false_pos" if literal > 0 else "false_neg"
            gadget.append(Atom(relation, ("?u%d" % index,)))
        xj = "?viol%d" % j
        gadget.append(Atom("anchor", (xj,)))
        labels.append(gadget)
        parents.append(0)
        frees.append(xj)
    p = WDPT(PatternTree(parents), labels, frees)
    return db, p, Mapping({"?x": "ok"})
