"""Answer enumeration with bounded memory.

The set-returning engines materialize ``q(D)`` in full.  For large answer
sets, :func:`enumerate_answers` streams answers instead:

* acyclic queries get the classical Yannakakis-based enumeration — a full
  semi-join reduction first (polynomial preprocessing), then a backtracking
  walk over the *reduced* relations, whose every partial assignment is
  guaranteed to extend to an answer.  This yields answers with polynomial
  delay;
* other queries fall back to streaming the naive engine (duplicate
  projections are suppressed with a seen-set, so memory is proportional to
  the number of *distinct* answers emitted so far).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Sequence, Set, Tuple

from ..core.atoms import Atom
from ..core.cq import ConjunctiveQuery
from ..core.database import Database
from ..core.mappings import Mapping
from ..hypergraphs.gyo import join_tree_of_atoms, join_tree_shape
from ..relalg.relation import Row, group_by, key_getter
from .naive import homomorphisms
from .yannakakis import scan_schedule, semijoin_reduce


def enumerate_answers(
    query: ConjunctiveQuery, db: Database, limit: Optional[int] = None
) -> Iterator[Mapping]:
    """Stream the distinct answers of ``q(D)``.

    >>> from repro.core import atom, cq, Database
    >>> db = Database([atom("E", 1, 2), atom("E", 2, 3)])
    >>> len(list(enumerate_answers(cq(["?x"], [atom("E", "?x", "?y")]), db)))
    2
    """
    atoms = sorted(query.atoms)
    links = join_tree_of_atoms(atoms)
    if links is not None:
        source: Iterator[Mapping] = _acyclic_stream(query, db, atoms, links)
    else:
        source = _naive_stream(query, db)
    emitted = 0
    for answer in source:
        yield answer
        emitted += 1
        if limit is not None and emitted >= limit:
            return


def _naive_stream(query: ConjunctiveQuery, db: Database) -> Iterator[Mapping]:
    seen: Set[Mapping] = set()
    frees = query.free_variables
    for h in homomorphisms(query.atoms, db):
        answer = h.restrict(frees)
        if answer not in seen:
            seen.add(answer)
            yield answer


def _acyclic_stream(
    query: ConjunctiveQuery,
    db: Database,
    atoms: Sequence[Atom],
    links: Sequence[Tuple[int, int]],
) -> Iterator[Mapping]:
    """Semi-join-reduce, then walk the join tree; every branch of the walk
    extends to a full answer, so delay is polynomial per answer."""
    relations = scan_schedule(atoms, links, db)
    tree = join_tree_shape(links, len(atoms))
    if relations is None or not semijoin_reduce(relations, tree):
        return
    # A homomorphism is a root row extended node by node, parents first.
    # Whatever a node shares with the nodes before it, it shares with its
    # parent (running intersection), so its candidates are one lookup by
    # the values already chosen, and the rest of each is new columns.
    schema = relations[tree.root].schema
    steps = []
    for node in tree.order[1:]:
        rel = relations[node]
        shared = [v for v in rel.schema if v in schema]
        steps.append((
            key_getter([schema.index(v) for v in shared]),
            group_by(rel, shared),
        ))
        schema += tuple(v for v in rel.schema if v not in shared)

    def extend(row: Row, i: int) -> Iterator[Row]:
        if i == len(steps):
            yield row
            return
        key_of, groups = steps[i]
        for rest in groups[key_of(row)]:
            yield from extend(row + rest, i + 1)

    # The Mapping boundary: an answer is the free columns of a full row,
    # its cells decoded as it is emitted.
    frees = sorted(query.free_variables, key=repr)
    at = [schema.index(v) for v in frees]
    answer_of = key_getter(at)
    codec = relations[tree.root].codec
    seen: Set[Any] = set()
    for row in relations[tree.root].rows:
        for full in extend(row, 0):
            answer = answer_of(full)
            if answer not in seen:
                seen.add(answer)
                cells: Iterable[Any] = [full[i] for i in at]
                if codec is not None:
                    cells = map(codec.decode, cells)
                yield Mapping.from_trusted(dict(zip(frees, cells)))
