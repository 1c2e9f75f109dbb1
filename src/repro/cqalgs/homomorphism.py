"""Homomorphisms between queries (atom sets).

Query-to-query homomorphisms are the engine behind the Chandra–Merlin
containment test, core computation, and the subsumption test for WDPTs.  A
homomorphism from atom set ``A`` to atom set ``B`` maps the variables of
``A`` to variables/constants of ``B`` such that every atom of ``A`` lands
in ``B`` (constants are fixed).  We reduce to database homomorphisms: map
``A`` into the canonical (frozen) database of ``B`` and unfreeze the result.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterable, Iterator, List, Mapping as TMapping, Optional

from ..core.atoms import Atom
from ..core.canonical import (
    canonical_database_of_atoms,
    freeze_variable,
    is_frozen_constant,
    unfreeze_constant,
)
from ..core.cq import ConjunctiveQuery
from ..core.database import Database
from ..core.mappings import Mapping
from ..core.terms import Constant, Term, Variable
from ..hypergraphs.gyo import join_tree_of_atoms
from .naive import homomorphisms as db_homomorphisms
from .yannakakis import evaluate_with_join_tree

#: A query-to-query homomorphism: variables → variables-or-constants.
QueryHomomorphism = Dict[Variable, Term]


def query_homomorphisms(
    source: Iterable[Atom],
    target: Iterable[Atom],
    fixed: Optional[TMapping[Variable, Term]] = None,
    limit: Optional[int] = None,
) -> Iterator[QueryHomomorphism]:
    """Enumerate homomorphisms from ``source`` atoms to ``target`` atoms.

    ``fixed`` pins selected source variables to a target variable or
    constant (used e.g. to force free variables onto themselves in
    containment tests); ``limit`` caps the number of results (``0``: none).
    """
    target_db = canonical_database_of_atoms(target)
    pre: Dict[Variable, Constant] = {}
    if fixed:
        for var, value in fixed.items():
            pre[var] = freeze_variable(value) if isinstance(value, Variable) else value
    for h in islice(_source_homomorphisms(source, target_db, Mapping(pre), limit), limit):
        yield _unfreeze(h)


def _source_homomorphisms(
    source: Iterable[Atom],
    target_db: Database,
    pre: Mapping,
    limit: Optional[int],
) -> Iterable[Mapping]:
    """Homomorphisms of ``source`` into ``target_db`` extending ``pre``.

    Unlimited enumerations of an acyclic source run set-at-a-time through
    the Yannakakis kernels (``pre`` substituted in, the remaining
    variables evaluated as one full CQ over the canonical database);
    cyclic sources and bounded enumerations (where backtracking's early
    exit wins) take the backtracking search.
    """
    atoms = tuple(sorted(set(source)))
    if limit is None and atoms:
        links = join_tree_of_atoms(atoms)
        if links is not None:
            if len(pre):
                substituted = tuple(a.substitute(pre) for a in atoms)
            else:
                substituted = atoms
            frees: set = set()
            for a in substituted:
                frees |= a.variables()
            q = ConjunctiveQuery(tuple(sorted(frees)), substituted)
            rows = evaluate_with_join_tree(q, target_db, substituted, links)
            if not len(pre):
                return rows
            base = pre.as_dict()
            out: List[Mapping] = []
            for m in rows:
                merged = dict(base)
                merged.update(m.items())
                out.append(Mapping.from_trusted(merged))
            return out
    return db_homomorphisms(atoms, target_db, pre)


def has_query_homomorphism(
    source: Iterable[Atom],
    target: Iterable[Atom],
    fixed: Optional[TMapping[Variable, Term]] = None,
) -> bool:
    """Existence version of :func:`query_homomorphisms`."""
    for _ in query_homomorphisms(source, target, fixed, limit=1):
        return True
    return False


def apply_homomorphism(atoms: Iterable[Atom], h: TMapping[Variable, Term]) -> frozenset:
    """Image of an atom set under a query homomorphism."""
    return frozenset(a.substitute(h) for a in atoms)


def is_query_homomorphism(
    source: Iterable[Atom], target: Iterable[Atom], h: TMapping[Variable, Term]
) -> bool:
    """Verify that ``h`` maps every atom of ``source`` into ``target``."""
    target_set = frozenset(target)
    return all(a.substitute(h) in target_set for a in source)


def _unfreeze(h: Mapping) -> QueryHomomorphism:
    out: QueryHomomorphism = {}
    for var, val in h.items():
        out[var] = unfreeze_constant(val) if is_frozen_constant(val) else val
    return out
