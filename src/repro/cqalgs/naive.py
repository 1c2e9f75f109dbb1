"""Backtracking CQ evaluation.

The general-purpose engine: sound and complete for every CQ, exponential in
query size in the worst case (CQ evaluation is NP-complete, Section 3.1).
It is the baseline against which the structure-exploiting engines
(:mod:`repro.cqalgs.yannakakis`, :mod:`repro.cqalgs.structured`) are
benchmarked, and the inner evaluator for the per-node CQs of WDPT
algorithms when no structure is declared.

The search instantiates atoms one at a time.  At each step the next atom is
chosen greedily by the *fail-first* heuristic — fewest matching facts under
the current partial assignment — which keeps the search tree small on the
workloads in scope.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from ..core.atoms import Atom
from ..core.cq import ConjunctiveQuery
from ..core.database import Database
from ..core.mappings import Mapping
from ..core.terms import Constant, Variable


def evaluate_naive(query: ConjunctiveQuery, db: Database) -> FrozenSet[Mapping]:
    """``q(D)``: all answer mappings ``h|_x̄`` (paper semantics).

    >>> from repro.core import atom, cq, Database
    >>> db = Database([atom("E", 1, 2), atom("E", 2, 3)])
    >>> sorted(len(m) for m in evaluate_naive(cq(["?x"], [atom("E", "?x", "?y")]), db))
    [1, 1]
    """
    frees = query.free_variables
    return frozenset(h.restrict(frees) for h in homomorphisms(query.atoms, db))


def is_answer(query: ConjunctiveQuery, db: Database, candidate: Mapping) -> bool:
    """Is ``candidate ∈ q(D)``?

    The candidate must be defined on exactly the free variables; the check
    then searches for a homomorphism extending it.
    """
    if candidate.domain() != frozenset(query.free_variables):
        return False
    return satisfiable(query.atoms, db, candidate)


def satisfiable(
    atoms: Iterable[Atom], db: Database, pre_assignment: Optional[Mapping] = None
) -> bool:
    """Is there a homomorphism from ``atoms`` to ``db`` extending
    ``pre_assignment``?  (Boolean CQ evaluation with parameters.)"""
    for _ in homomorphisms(atoms, db, pre_assignment, limit=1):
        return True
    return False


def homomorphisms(
    atoms: Iterable[Atom],
    db: Database,
    pre_assignment: Optional[Mapping] = None,
    limit: Optional[int] = None,
) -> Iterator[Mapping]:
    """Enumerate homomorphisms from ``atoms`` into ``db``.

    Each yielded mapping is total on the variables of ``atoms`` and extends
    ``pre_assignment``.  ``limit`` caps the number of results (handy for
    existence checks).  Duplicate total homomorphisms are never produced.
    """
    atom_list = list(atoms)
    assignment: Dict[Variable, Constant] = (
        dict(pre_assignment.items()) if pre_assignment is not None else {}
    )
    produced = 0
    for full in _search(atom_list, assignment, db):
        yield Mapping(full)
        produced += 1
        if limit is not None and produced >= limit:
            return


def count_homomorphisms(atoms: Iterable[Atom], db: Database) -> int:
    """Number of homomorphisms from ``atoms`` into ``db``."""
    return sum(1 for _ in homomorphisms(atoms, db))


def _search(
    remaining: List[Atom],
    assignment: Dict[Variable, Constant],
    db: Database,
) -> Iterator[Dict[Variable, Constant]]:
    if not remaining:
        yield dict(assignment)
        return
    index, candidates = _select_atom(remaining, assignment, db)
    chosen = remaining[index]
    rest = remaining[:index] + remaining[index + 1 :]
    for fact in candidates:
        bound: List[Variable] = []
        ok = True
        for pattern_arg, fact_arg in zip(chosen.args, fact.args):
            if isinstance(pattern_arg, Variable):
                assert isinstance(fact_arg, Constant)
                existing = assignment.get(pattern_arg)
                if existing is None:
                    assignment[pattern_arg] = fact_arg
                    bound.append(pattern_arg)
                elif existing != fact_arg:
                    ok = False
                    break
        if ok:
            yield from _search(rest, assignment, db)
        for v in bound:
            del assignment[v]


def _select_atom(
    remaining: List[Atom],
    assignment: Dict[Variable, Constant],
    db: Database,
) -> Tuple[int, List[Atom]]:
    """Fail-first: the atom with the fewest matching facts right now."""
    best_index = 0
    best_candidates: Optional[List[Atom]] = None
    for i, a in enumerate(remaining):
        instantiated = a.substitute(assignment)
        candidates = list(db.match(instantiated))
        if best_candidates is None or len(candidates) < len(best_candidates):
            best_index, best_candidates = i, candidates
            if not candidates:
                break
    assert best_candidates is not None
    return best_index, best_candidates
