"""Backtracking CQ evaluation.

The general-purpose engine: sound and complete for every CQ, exponential in
query size in the worst case (CQ evaluation is NP-complete, Section 3.1).
It is the baseline against which Yannakakis (:mod:`repro.cqalgs.yannakakis`)
and bucket elimination (:mod:`repro.cqalgs.structured`) are benchmarked,
the inner evaluator for the per-node CQs of WDPT algorithms when no
structure is declared, and the homomorphism test behind all of
Sections 4–6 (subsumption, approximation, ``φ_cq``).

**What is compiled.**  A call compiles its atom list once
(:func:`_compile`) and then only moves cells around:

* every variable the pre-assignment leaves open gets a *slot* number, and
  the partial assignment is one list of cells indexed by slot;
* every atom is read **once**, through the cell seam of the storage layer
  (:meth:`~repro.storage.base.StorageBackend.rows`), with the
  pre-assignment substituted in — so the backend does the lookup-only
  encoding of constants and the equalities of repeated variables, and an
  atom without a row ends the search before it starts;
* an atom keeps, per variable, the argument position to read it from.

The search instantiates atoms one at a time.  At each step the next atom is
chosen greedily by the *fail-first* heuristic — fewest candidate rows under
the current partial assignment.  The candidate list of every open atom is
kept current instead of being recomputed: binding a slot narrows only the
atoms that mention it, and an atom narrowed to nothing fails the branch on
the spot.  Narrowing reads a hash index of the atom's rows on that argument
position — built from the atom's *full* row list (the search backtracks: a
narrowed list belongs to one branch), and only on the second request for
the position: the first is one comparison pass, which is all a test that
ends on its first branch ever asks — and filters whichever of the index
entry and the current list is shorter by what else is bound.  No step is
asymptotically dearer than a posting lookup in the store, and the first
step of the search this one replaced already listed every atom's matches;
the constant is dearer where a relation is large and the test needs a
handful of branches (one pass and one hashing of the relation where the
store's own postings would have answered — ROADMAP item 5).

**Where cells become terms.**  Rows are tuples of cells of ``db.codec``
(``int`` codes on the memory backend, the ``Constant`` objects themselves
on a backend without a codec); they are compared as they are.  Only
:func:`homomorphisms` decodes, once per *yielded* result, into a
:class:`~repro.core.mappings.Mapping`; :func:`first_homomorphism` decodes
its one result into a plain dict, and :func:`satisfiable` consumes the raw
search and builds nothing.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.atoms import Atom
from ..core.cq import ConjunctiveQuery
from ..core.database import Database
from ..core.mappings import Mapping
from ..core.terms import Constant, Variable

#: One candidate fact of an atom: cells addressed by argument position.
Row = Sequence[Any]


def evaluate_naive(query: ConjunctiveQuery, db: Database) -> FrozenSet[Mapping]:
    """``q(D)``: all answer mappings ``h|_x̄`` (paper semantics).

    >>> from repro.core import atom, cq, Database
    >>> db = Database([atom("E", 1, 2), atom("E", 2, 3)])
    >>> sorted(len(m) for m in evaluate_naive(cq(["?x"], [atom("E", "?x", "?y")]), db))
    [1, 1]
    """
    frees = query.free_variables
    return frozenset(h.restrict(frees) for h in homomorphisms(query.atoms, db))


def satisfiable(
    atoms: Iterable[Atom], db: Database, pre_assignment: Optional[Mapping] = None
) -> bool:
    """Is there a homomorphism from ``atoms`` to ``db`` extending
    ``pre_assignment``?  (Boolean CQ evaluation with parameters.)"""
    pre = dict(pre_assignment.items()) if pre_assignment is not None else {}
    compiled = _compile(atoms, db, pre)
    if compiled is None:
        return False
    for _ in _search(*compiled):
        return True
    return False


def first_homomorphism(
    atoms: Iterable[Atom], db: Database, pre: Dict[Variable, Constant]
) -> Optional[Dict[Variable, Constant]]:
    """The first homomorphism from ``atoms`` into ``db`` extending ``pre``,
    as a fresh ``variable → constant`` dict (``pre`` included, total on
    the variables of ``atoms``), or ``None`` when there is none.

    :func:`satisfiable` with its certificate: one search, one decoded
    result, no :class:`~repro.core.mappings.Mapping`."""
    compiled = _compile(atoms, db, pre)
    if compiled is None:
        return None
    for cells in _search(*compiled):
        return _decoded(pre, compiled[0], cells, db.codec)
    return None


def homomorphisms(
    atoms: Iterable[Atom],
    db: Database,
    pre_assignment: Optional[Mapping] = None,
    limit: Optional[int] = None,
) -> Iterator[Mapping]:
    """Enumerate homomorphisms from ``atoms`` into ``db``.

    Each yielded mapping is total on the variables of ``atoms`` and extends
    ``pre_assignment``.  ``limit`` caps the number of results (``0``: none).
    Duplicate total homomorphisms are never produced.
    """
    pre = dict(pre_assignment.items()) if pre_assignment is not None else {}
    compiled = _compile(atoms, db, pre)
    if compiled is None:
        return
    variables = compiled[0]
    codec = db.codec
    for cells in islice(_search(*compiled), limit):
        yield Mapping.from_trusted(_decoded(pre, variables, cells, codec))


def _decoded(
    pre: Dict[Variable, Constant], variables: List[Variable], cells: List[Any], codec: Any
) -> Dict[Variable, Constant]:
    """``pre`` extended by one result of the search, its cells decoded."""
    full = dict(pre)
    full.update(zip(variables, cells if codec is None else map(codec.decode, cells)))
    return full


def _compile(
    atoms: Iterable[Atom], db: Database, pre: Dict[Variable, Constant]
) -> Optional[Tuple[List[Variable], List[List[Row]], List[List[Tuple[int, int]]]]]:
    """``(variables, rows, places)`` of one search, ``None`` when some atom
    matches nothing: ``variables[slot]`` is the variable of a slot (the
    variables of ``atoms`` outside ``pre``), ``rows[i]`` the rows of the
    ``i``-th distinct atom with ``pre`` substituted in, ``places[i]`` its
    ``(argument position, slot)`` pairs, one per variable it leaves open."""
    # Pre-assigned variables sit in the slot table too, below zero, so an
    # argument is looked up (and hashed) once.
    slots: Dict[Variable, int] = dict.fromkeys(pre, -1)
    n_pre = len(slots)
    rows: List[List[Row]] = []
    places: List[List[Tuple[int, int]]] = []
    for a in dict.fromkeys(atoms):
        place: Dict[int, int] = {}
        bound = False
        for pos, arg in enumerate(a.args):
            if isinstance(arg, Variable):
                slot = slots.setdefault(arg, len(slots) - n_pre)
                if slot < 0:
                    bound = True
                else:
                    place.setdefault(slot, pos)
        matching = db.rows(a.substitute(pre) if bound else a)
        if not isinstance(matching, list):
            matching = list(matching)
        if not matching:
            return None
        rows.append(matching)
        places.append([(pos, slot) for slot, pos in place.items()])
    return list(slots)[n_pre:], rows, places


def _search(
    variables: List[Variable], rows: List[List[Row]], places: List[List[Tuple[int, int]]]
) -> Iterator[List[Any]]:
    """The search over what :func:`_compile` returned: yields its one
    assignment list (cells by slot) each time it is total — read it before
    resuming."""
    n_slots = len(variables)
    assignment: List[Any] = [None] * n_slots  # no cell is None
    #: slot -> the (atom, position) pairs to narrow when it is bound
    watchers: List[List[Tuple[int, int]]] = [[] for _ in range(n_slots)]
    for i, place in enumerate(places):
        for pos, slot in place:
            watchers[slot].append((i, pos))
    candidates = list(rows)
    indexes: Dict[Tuple[int, int], Dict[Any, List[Row]]] = {}
    is_open = [True] * len(rows)

    def narrowed(i: int, pos: int, cell: Any) -> Sequence[Row]:
        """The candidates of atom ``i`` that hold ``cell`` at ``pos``."""
        current = candidates[i]
        index = indexes.get((i, pos))
        if index is None:
            # The first request for a position is one comparison pass and
            # hashes nothing: a test that succeeds or dies on its first
            # branch (97 % of the requests of Sections 4-6, and a Boolean
            # query over a large relation) never asks twice.  The index is
            # built when the search comes back.
            indexes[i, pos] = {}
            return [row for row in current if row[pos] == cell]
        if not index:
            for row in rows[i]:
                index.setdefault(row[pos], []).append(row)
        entry = index.get(cell, ())
        if current is rows[i]:
            return entry
        # Narrowed already: current ∩ entry, scanning the shorter of the two.
        if len(current) <= len(entry):
            return [row for row in current if row[pos] == cell]
        for at, slot in places[i]:
            if at != pos and assignment[slot] is not None:
                entry = [row for row in entry if row[at] == assignment[slot]]
        return entry

    # ``extend`` recurses through its ``again`` argument, not through a
    # closure cell holding itself: a self-referencing closure is a
    # reference cycle per search, which only the cyclic collector frees.
    def extend(remaining: List[int], again) -> Iterator[List[Any]]:
        if not remaining:
            yield assignment
            return
        sizes = [len(candidates[i]) for i in remaining]
        at = sizes.index(min(sizes))
        chosen = remaining[at]
        rest = remaining[:at] + remaining[at + 1:]
        binds = [(pos, slot) for pos, slot in places[chosen] if assignment[slot] is None]
        is_open[chosen] = False
        for row in candidates[chosen]:
            undo: List[Tuple[int, Sequence[Row]]] = []
            alive = True
            for pos, slot in binds:
                cell = assignment[slot] = row[pos]
                for i, there in watchers[slot]:
                    if is_open[i]:
                        fewer = narrowed(i, there, cell)
                        if not fewer:
                            alive = False
                            break
                        undo.append((i, candidates[i]))
                        candidates[i] = fewer
                if not alive:
                    break
            if alive:
                yield from again(rest, again)
            while undo:
                i, before = undo.pop()
                candidates[i] = before
            for _, slot in binds:
                assignment[slot] = None
        is_open[chosen] = True

    return extend(list(range(len(rows))), extend)
