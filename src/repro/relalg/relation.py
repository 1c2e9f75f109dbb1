"""Columnar relations and set-oriented kernels.

The evaluation stack's inner loops — Yannakakis' semi-join sweeps, the
join/projection phase, the per-node extension steps of the WDPT
evaluators — operate on *relations over variables*: sets of bindings of
a fixed variable set.  One immutable
:class:`~repro.core.mappings.Mapping` per binding would re-derive the
shared-variable layout of every operation from row contents and pay a
hash + dict per row per operation.

A :class:`Relation` instead carries an explicit **schema** — a tuple of
variables, fixed at creation — and its bindings as plain value tuples
aligned with that schema.  The kernels below (:func:`scan`,
:func:`semijoin`, :func:`hash_join`, :func:`project`, :func:`group_by`,
:func:`dedup`) resolve variable positions against the schemas **once per
call** (i.e. once per join-tree edge, not once per row) and then run
tight loops over the tuple arrays.  Conversion to and from ``Mapping``
happens only at API boundaries (:func:`from_mappings` /
:func:`to_mappings`).

:func:`scan` optionally takes a **seed**: a relation of key bindings
that the scanned atom must join with.  This is sideways information
passing at two levels: the WDPT evaluator seeds a child label with the
interface keys of its parent's relation, and inside one label the
columnar Yannakakis seeds each atom with the smallest relation already
scanned next to it in the join tree, so the scans of a query are a
schedule, not independent reads.  A seeded scan returns exactly
``semijoin(scan(pattern, db), seed)``; it chooses between one index
probe per distinct key and a full scan followed by the semi-join from
the two sizes it can observe, the key count and the backend's
:meth:`~repro.storage.base.StorageBackend.match_bound` for the pattern.

The boundary cases of the kernel semantics, pinned down by the unit
tests, are those of relational algebra over sets of bindings:

* a semi-join against an **empty** right side is empty, even when the
  two schemas share no variable;
* a semi-join with **no shared variables** against a non-empty right
  side keeps the left side unchanged;
* relations over the empty schema are Boolean: one zero-length row for
  *true*, no rows for *false*.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.atoms import Atom
from ..core.mappings import Mapping
from ..core.terms import Constant, Variable

#: One binding: constants aligned with the owning relation's schema.
Row = Tuple[Constant, ...]


class Relation:
    """A set of bindings of a fixed variable tuple.

    ``schema`` orders the variables; ``rows`` holds one constant tuple
    per binding, aligned with the schema.  Rows are duplicate-free by
    construction in every kernel below.  The positional index
    (variable → column) is computed once at construction and shared by
    every kernel invocation against this relation.
    """

    __slots__ = ("schema", "rows", "index")

    def __init__(self, schema: Sequence[Variable], rows: Iterable[Row] = ()):
        self.schema: Tuple[Variable, ...] = tuple(schema)
        self.rows: List[Row] = list(rows)
        self.index: Dict[Variable, int] = {v: i for i, v in enumerate(self.schema)}

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __repr__(self) -> str:
        return "Relation(%s, %d rows)" % (
            "(%s)" % ", ".join(repr(v) for v in self.schema),
            len(self.rows),
        )


def row_getter(positions: Sequence[int]) -> Callable[[Row], Row]:
    """``row -> tuple(row[i] for i in positions)``, resolved once per
    kernel call so the per-row work is one C-level ``itemgetter``."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (only,) = positions
        return lambda row: (row[only],)
    return lambda row: ()


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------
#: One index probe (substitute a key into the pattern, ``db.match`` the
#: result) costs about as much as reading this many facts in a full
#: ``db.match`` — measured at 6 on the memory backend and 3 on SQLite, for
#: one match per key.  A seeded scan probes while ``keys × this`` stays
#: under the pattern's match bound.
_PROBE_COST_IN_FACTS = 6

#: ``fact -> fact.args``: a scan turns facts into rows without a Python
#: frame per fact.
_ARGS = attrgetter("args")


def scan(
    pattern: Atom,
    db,
    seed: Optional[Relation] = None,
    bound: Optional[int] = None,
) -> Relation:
    """The relation of ``pattern`` over ``db``: the variable bindings of
    its matching facts, schema sorted by variable repr (the same order
    the SQL pushdown uses, so layouts agree across paths).

    With ``seed``, the bindings that also join with it —
    ``semijoin(scan(pattern, db), seed)``, computed with one index probe
    per distinct key when the keys are few against the facts a full scan
    would read: ``bound``, the caller's ``db.match_bound(pattern)`` when
    it already took one."""
    schema = sorted(pattern.variables(), key=repr)
    if seed is not None and not seed.rows:
        return Relation(schema, [])
    if not schema:
        # Ground pattern: Boolean relation (all matches project to ()).
        for _ in db.match(pattern):
            return Relation((), [()])
        return Relation((), [])
    take = row_getter([pattern.args.index(v) for v in schema])
    keys = None
    if seed is not None:
        shared = [v for v in schema if v in seed.index]
        if shared:
            keys = project(seed, shared)
    if keys is not None:
        if bound is None:
            bound = db.match_bound(pattern)
        if len(keys.rows) * _PROBE_COST_IN_FACTS < bound:
            # Distinct keys match disjoint facts: no duplicates.
            return Relation(schema, [
                take(fact.args)
                for key in keys.rows
                for fact in db.match(pattern.substitute(dict(zip(keys.schema, key))))
            ])
    # Distinct facts matching a pattern always differ at some variable
    # position, so the projection is already duplicate-free.
    full = Relation(schema, map(take, map(_ARGS, db.match(pattern))))
    return full if keys is None else semijoin(full, keys)


def semijoin(left: Relation, right: Relation) -> Relation:
    """``left ⋉ right`` on the schemas' common variables: the rows of
    ``left`` with a join partner in ``right``.  An empty right side
    empties the result even when no variable is shared; a non-empty one
    sharing no variable leaves ``left`` unchanged."""
    if not right.rows:
        return Relation(left.schema, [])
    shared = [v for v in left.schema if v in right.index]
    if not shared:
        return left
    if not left.rows:
        return Relation(left.schema, [])
    if len(shared) == 1:
        li = left.index[shared[0]]
        ri = right.index[shared[0]]
        keys: Set = {row[ri] for row in right.rows}
        return Relation(left.schema, [row for row in left.rows if row[li] in keys])
    left_key = row_getter([left.index[v] for v in shared])
    right_key = row_getter([right.index[v] for v in shared])
    key_set: Set[Row] = set(map(right_key, right.rows))
    return Relation(
        left.schema, [row for row in left.rows if left_key(row) in key_set]
    )


def hash_join(left: Relation, right: Relation) -> Relation:
    """Natural join; output schema is ``left.schema`` followed by the
    right-only variables.  The join of duplicate-free inputs is
    duplicate-free (a result row determines both input rows), so no
    dedup pass is needed."""
    shared = [v for v in left.schema if v in right.index]
    extra = [(v, right.index[v]) for v in right.schema if v not in left.index]
    schema = left.schema + tuple(v for v, _ in extra)
    if not left.rows or not right.rows:
        return Relation(schema, [])
    right_key = row_getter([right.index[v] for v in shared])
    extension = row_getter([i for _, i in extra])
    buckets: Dict[Row, List[Row]] = {}
    for row in right.rows:
        buckets.setdefault(right_key(row), []).append(extension(row))
    left_key = row_getter([left.index[v] for v in shared])
    rows: List[Row] = []
    for row in left.rows:
        matches = buckets.get(left_key(row))
        if matches is None:
            continue
        if len(matches) == 1:
            rows.append(row + matches[0])
        else:
            rows.extend([row + ext for ext in matches])
    return Relation(schema, rows)


def project(rel: Relation, keep: Iterable[Variable]) -> Relation:
    """Projection onto ``keep`` (missing variables dropped, like
    ``Mapping.restrict``), with duplicate elimination."""
    wanted = keep if isinstance(keep, (set, frozenset)) else set(keep)
    columns = [v for v in rel.schema if v in wanted]
    if len(columns) == len(rel.schema):
        return rel
    take = row_getter([rel.index[v] for v in columns])
    return Relation(tuple(columns), set(map(take, rel.rows)))


def group_by(rel: Relation, keys: Sequence[Variable]) -> Dict[Row, List[Row]]:
    """Partition ``rel`` by its bindings of ``keys`` (all in the schema):
    ``{key row: [rows of the remaining columns]}``, key rows ordered like
    ``keys``, the rest in schema order — the build side of a hash join
    kept as a lookup table, which is how the WDPT evaluator finds a
    parent row's OPT extensions (a missing key is a failed branch)."""
    key_of = row_getter([rel.index[v] for v in keys])
    rest_of = row_getter([i for i, v in enumerate(rel.schema) if v not in keys])
    groups: Dict[Row, List[Row]] = {}
    for row in rel.rows:
        groups.setdefault(key_of(row), []).append(rest_of(row))
    return groups


def dedup(rel: Relation) -> Relation:
    """The relation with duplicate rows removed (idempotent; the other
    kernels already produce duplicate-free output)."""
    return Relation(rel.schema, set(rel.rows))


# ---------------------------------------------------------------------------
# Mapping boundary
# ---------------------------------------------------------------------------
def from_mappings(mappings: Iterable[Mapping], schema: Sequence[Variable]) -> Relation:
    """Pack mappings (each total on ``schema``) into a relation."""
    ordered = tuple(schema)
    return Relation(ordered, {tuple(m[v] for v in ordered) for m in mappings})


def to_mappings(rel: Relation, partial: bool = False) -> FrozenSet[Mapping]:
    """Unpack a relation into the API-boundary ``Mapping`` set.

    With ``partial``, a ``None`` in a row means *unbound* and the
    variable is left out of that row's mapping — the WDPT evaluator pads
    the columns of a failed OPT branch this way, so one fixed-schema
    relation can hold maximal homomorphisms with different domains."""
    schema = rel.schema
    if partial:
        return frozenset(
            Mapping.from_trusted(
                {v: c for v, c in zip(schema, row) if c is not None}
            )
            for row in rel.rows
        )
    return frozenset(
        Mapping.from_trusted(dict(zip(schema, row))) for row in rel.rows
    )
