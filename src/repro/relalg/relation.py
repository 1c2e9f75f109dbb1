"""Columnar relations and set-oriented kernels.

The evaluation stack's inner loops — Yannakakis' semi-join sweeps, the
join/projection phase, the per-node extension steps of the WDPT
evaluators — operate on *relations over variables*: sets of bindings of
a fixed variable set.  One immutable
:class:`~repro.core.mappings.Mapping` per binding — a frozenset of
``(variable, constant)`` pairs — would re-derive the shared-variable
layout of every operation from row contents and pay a pair set per row
per operation.

A :class:`Relation` instead carries an explicit **schema** — a tuple of
variables, fixed at creation — and its bindings as plain tuples of
**cells** aligned with that schema.  The kernels below (:func:`scan`,
:func:`semijoin`, :func:`hash_join`, :func:`project`, :func:`group_by`,
:func:`dedup`) resolve variable positions against the schemas **once per
call** (i.e. once per join-tree edge, not once per row) and then run
over the tuple arrays with C-level ``itemgetter`` keys — the bare cell
for a one-column key, a tuple otherwise.

**Cells and codecs.**  What a cell *is* is not the kernels' business:
they hash it, compare it and copy it, nothing more, which is all a
semi-join program needs.  It is the business of the relation's
``codec`` slot, set where the relation is born: :func:`scan` copies
``db.codec`` (:class:`~repro.storage.base.StorageBackend`).  For the
memory backend that is its term dictionary and the cells are ``int``
codes; ``None`` means the cells are the ``Constant`` objects themselves
— SQLite, and every relation built by hand or by
``from_mappings(mappings, schema)``.  Either way every hash and
comparison between a scan and the ``Mapping`` boundary runs in C
(constants are hash-consed, :mod:`repro.core.terms`).  The codec
travels with the relation, never in module or thread-local state (many
databases, each with its own dictionary, coexist in a process), and a
kernel that takes two relations refuses them unless ``left.codec is
right.codec``: codes of two dictionaries, or a code and a ``Constant``,
must be a loud error, never a silently empty join.  Cells become terms, and terms
cells, only at the boundary — :func:`to_mappings` and
:func:`from_mappings`; the latter takes the database whose scans the
relation is to meet.  A row's Mapping is the set of its cells'
``(variable, constant)`` pairs (one shared pair per distinct cell of a
column), so :func:`to_mappings` builds the answer set with C iterators
alone.  A
``None`` cell is no term at all: the WDPT evaluator pads the columns of
a failed OPT branch with it (so code 0 is a value, and "unbound" is
``is None``).

:func:`scan` optionally takes a **seed**: a relation of key bindings
that the scanned atom must join with.  This is sideways information
passing at two levels: the WDPT evaluator seeds a child label with the
interface keys of its parent's relation, and inside one label the
columnar Yannakakis seeds each atom with the smallest relation already
scanned next to it in the join tree, so the scans of a query are a
schedule, not independent reads.  A seeded scan returns exactly
``semijoin(scan(pattern, db), seed)``; it chooses between one index
probe per distinct key (the backend's compiled
:meth:`~repro.storage.base.StorageBackend.probe`) and a full read
filtered by the key set from the sizes it can observe: the key count
times the backend's ``probe_cost`` against its
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

from itertools import compress, repeat
from operator import getitem, itemgetter
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.atoms import Atom
from ..core.mappings import Mapping
from ..core.terms import Variable
from ..exceptions import ReproError

#: One binding: cells aligned with the owning relation's schema.  What a
#: cell is belongs to the relation's codec — an ``int`` code of a term
#: dictionary, or the ``Constant`` itself (codec ``None``); a ``None``
#: cell pads the column of a failed OPT branch.
Row = Tuple[Any, ...]


class Relation:
    """A set of bindings of a fixed variable tuple.

    ``schema`` orders the variables; ``rows`` holds one cell tuple per
    binding, aligned with the schema.  Rows are duplicate-free by
    construction in every kernel below.  The positional index
    (variable → column) is computed once at construction and shared by
    every kernel invocation against this relation.  ``codec`` says what
    the cells are (see the module docstring): the kernels copy it to
    their result and refuse two relations whose codecs differ.
    """

    __slots__ = ("schema", "rows", "index", "codec")

    def __init__(
        self,
        schema: Sequence[Variable],
        rows: Iterable[Row] = (),
        codec: Any = None,
    ):
        self.schema: Tuple[Variable, ...] = tuple(schema)
        self.rows: List[Row] = list(rows)
        self.index: Dict[Variable, int] = {v: i for i, v in enumerate(self.schema)}
        self.codec = codec

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __repr__(self) -> str:
        return "Relation(%s, %d rows)" % (
            "(%s)" % ", ".join(repr(v) for v in self.schema),
            len(self.rows),
        )


def _same_codec(left, right) -> Any:
    """The codec two relations (or a relation and a database) share.
    Codes of two dictionaries, or a code and a ``Constant``, must never
    be compared: the join would be silently empty or wrong."""
    if left.codec is not right.codec:
        raise ReproError(
            "cannot combine cells of different codecs: %r has %r, %r has "
            "%r (None = Constant cells; convert through "
            "to_mappings/from_mappings(…, db))"
            % (left, left.codec, right, right.codec)
        )
    return left.codec


def _nothing(_row: Row) -> Row:
    return ()


#: ``(variable, cell) -> cell``: what keeps the bound pairs of a padded row.
_value = itemgetter(1)


def key_getter(positions: Sequence[int]) -> Callable[[Row], Any]:
    """``row -> its join key on positions``, resolved once per kernel
    call: the bare cell for one position, a tuple for several — either
    way one C-level ``itemgetter`` — and ``()`` for none."""
    return itemgetter(*positions) if positions else _nothing


def tuples_at(rows: Sequence[Row], positions: Sequence[int]) -> Iterable[Row]:
    """``tuple(row[i] for i in positions)`` per row, built in C."""
    if len(positions) > 1:
        return map(itemgetter(*positions), rows)
    if positions:
        return zip(map(itemgetter(positions[0]), rows))
    return repeat((), len(rows))


def _having(
    rows: Sequence[Row], positions: Sequence[int], keys: Collection[Any]
) -> Iterator[Row]:
    """The rows whose key on ``positions`` (non-empty) is in ``keys``."""
    return compress(rows, map(keys.__contains__, map(itemgetter(*positions), rows)))


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------
def scan(
    pattern: Atom,
    db,
    seed: Optional[Relation] = None,
    bound: Optional[int] = None,
) -> Relation:
    """The relation of ``pattern`` over ``db``: the variable bindings of
    its matching facts as cells of ``db.codec``, schema sorted by
    variable repr (the same order the SQL pushdown uses, so layouts agree
    across paths).

    With ``seed``, the bindings that also join with it —
    ``semijoin(scan(pattern, db), seed)``, computed with one index probe
    per distinct key (``db.probe``) when the keys are few against the
    facts a full read (``db.rows``) would touch: ``keys × db.probe_cost``
    against ``bound``, the caller's ``db.match_bound(pattern)`` when it
    already took one."""
    schema = sorted(pattern.variables(), key=repr)
    codec = db.codec
    if seed is not None:
        _same_codec(seed, db)
        if not seed.rows:
            return Relation(schema, [], codec)
    if not schema:
        # Ground pattern: Boolean relation (all matches project to ()).
        for _ in db.rows(pattern):
            return Relation((), [()], codec)
        return Relation((), [], codec)
    at = [pattern.args.index(v) for v in schema]
    shared = [v for v in schema if v in seed.index] if seed is not None else ()
    if not shared:
        # Distinct facts matching a pattern always differ at some variable
        # position, so the projection is already duplicate-free.
        return Relation(schema, tuples_at(db.rows(pattern), at), codec)
    keys = set(map(itemgetter(*[seed.index[v] for v in shared]), seed.rows))
    if bound is None:
        bound = db.match_bound(pattern)
    if len(keys) * db.probe_cost < bound:
        # Distinct keys match disjoint facts: no duplicates.
        return Relation(schema, tuples_at(db.probe(pattern, shared, keys), at), codec)
    rows = list(tuples_at(db.rows(pattern), at))
    return Relation(schema, _having(rows, [schema.index(v) for v in shared], keys), codec)


def semijoin(left: Relation, right: Relation) -> Relation:
    """``left ⋉ right`` on the schemas' common variables: the rows of
    ``left`` with a join partner in ``right``.  An empty right side
    empties the result even when no variable is shared; a non-empty one
    sharing no variable leaves ``left`` unchanged."""
    codec = _same_codec(left, right)
    if not right.rows:
        return Relation(left.schema, [], codec)
    shared = [v for v in left.schema if v in right.index]
    if not shared:
        return left
    if not left.rows:
        return Relation(left.schema, [], codec)
    keys = set(map(itemgetter(*[right.index[v] for v in shared]), right.rows))
    return Relation(
        left.schema, _having(left.rows, [left.index[v] for v in shared], keys), codec
    )


def hash_join(
    left: Relation, right: Relation, keep: Optional[Collection[Variable]] = None
) -> Relation:
    """Natural join; output schema is ``left.schema`` followed by the
    right-only variables.  The join of duplicate-free inputs is
    duplicate-free (a result row determines both input rows), so no
    dedup pass is needed.

    With ``keep``, the join projected onto it —
    ``project(hash_join(left, right), keep)`` — without building the wide
    rows first: only the kept columns of either side are emitted, into a
    set when a column was dropped (rows may then coincide)."""
    codec = _same_codec(left, right)
    shared = [v for v in left.schema if v in right.index]
    head = [v for v in left.schema if keep is None or v in keep]
    tail = [
        v for v in right.schema
        if v not in left.index and (keep is None or v in keep)
    ]
    schema = tuple(head + tail)
    if not left.rows or not right.rows:
        return Relation(schema, [], codec)
    heads: Iterable[Row] = left.rows
    if len(head) < len(left.schema):
        heads = tuples_at(left.rows, [left.index[v] for v in head])
    tails = tuples_at(right.rows, [right.index[v] for v in tail])
    if shared:
        buckets: Dict[Any, List[Row]] = {}
        right_key = itemgetter(*[right.index[v] for v in shared])
        for key, ext in zip(map(right_key, right.rows), tails):
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [ext]
            else:
                bucket.append(ext)
        left_key = itemgetter(*[left.index[v] for v in shared])
        found = map(buckets.get, map(left_key, left.rows), repeat(()))
    else:
        found = repeat(list(tails))  # cross product
    pairs = zip(heads, found)
    if len(schema) < len(left.schema) + len(right.schema) - len(shared):
        return Relation(schema, {row + ext for row, exts in pairs for ext in exts}, codec)
    return Relation(schema, [row + ext for row, exts in pairs for ext in exts], codec)


def project(rel: Relation, keep: Iterable[Variable]) -> Relation:
    """Projection onto ``keep`` (missing variables dropped, like
    ``Mapping.restrict``), with duplicate elimination."""
    wanted = keep if isinstance(keep, (set, frozenset)) else set(keep)
    columns = [v for v in rel.schema if v in wanted]
    if len(columns) == len(rel.schema):
        return rel
    if len(columns) > 1:
        rows: Iterable[Row] = set(
            map(itemgetter(*[rel.index[v] for v in columns]), rel.rows)
        )
    elif columns:
        # Dedup the bare cells, wrap only the distinct ones.
        rows = zip(set(map(itemgetter(rel.index[columns[0]]), rel.rows)))
    else:
        rows = [()] if rel.rows else []
    return Relation(columns, rows, rel.codec)


def group_by(rel: Relation, keys: Sequence[Variable]) -> Dict[Any, List[Row]]:
    """Partition ``rel`` by its bindings of ``keys`` (all in the schema):
    ``{key: [rows of the remaining columns]}``, a key being what
    :func:`key_getter` reads off a row (the bare cell for one variable, a
    tuple ordered like ``keys`` otherwise), the rest in schema order — the
    build side of a hash join kept as a lookup table, which is how the
    WDPT evaluator finds a parent row's OPT extensions (a missing key is
    a failed branch)."""
    key_of = key_getter([rel.index[v] for v in keys])
    rest = tuples_at(rel.rows, [i for i, v in enumerate(rel.schema) if v not in keys])
    groups: Dict[Any, List[Row]] = {}
    for key, row in zip(map(key_of, rel.rows), rest):
        group = groups.get(key)
        if group is None:
            groups[key] = [row]
        else:
            group.append(row)
    return groups


def dedup(rel: Relation) -> Relation:
    """The relation with duplicate rows removed (idempotent; the other
    kernels already produce duplicate-free output)."""
    return Relation(rel.schema, set(rel.rows), rel.codec)


# ---------------------------------------------------------------------------
# Mapping boundary
# ---------------------------------------------------------------------------
def from_mappings(
    mappings: Iterable[Mapping], schema: Sequence[Variable], db=None
) -> Relation:
    """Pack mappings (each total on ``schema``) into a relation — of
    ``Constant`` cells, or with ``db`` of the cells its scans produce, so
    the result can meet them in a kernel.  A constant ``db`` has never
    stored stays a ``Constant`` (its dictionary is not written to): it
    joins with nothing scanned and unpacks to itself."""
    ordered = tuple(schema)
    codec = None if db is None else db.codec
    # Each mapping's pairs as a dict, its values read in schema order.
    rows = tuples_at(list(map(dict, map(frozenset.__iter__, mappings))), ordered)
    if codec is not None:
        rows = map(tuple, map(map, repeat(codec.encode), rows))
    return Relation(ordered, set(rows), codec)


def to_mappings(rel: Relation, partial: bool = False) -> FrozenSet[Mapping]:
    """Unpack a relation into the API-boundary ``Mapping`` set, decoding
    its cells.

    A Mapping is the frozenset of its ``(variable, constant)`` pairs, and
    C iterators build the whole set, with no Python frame per row.  Each
    column's distinct cells (int codes, or ``Constant``s, which hash in C
    too) are decoded once, into one shared pair each, and rows pick their
    pairs from those tables — no new pair per binding, and so nothing
    more for the garbage collector to trace per binding than the Mapping
    itself.

    With ``partial``, a ``None`` in a row means *unbound* and the
    variable is left out of that row's mapping — the WDPT evaluator pads
    the columns of a failed OPT branch this way, so one fixed-schema
    relation can hold maximal homomorphisms with different domains.  A
    codec decodes ``None`` to itself, and no ``Constant`` is falsy."""
    rows = rel.rows
    codec = rel.codec
    pairs = []  # per column: cell -> its (variable, constant) pair
    for i, var in enumerate(rel.schema):
        cells = set(map(itemgetter(i), rows))  # iterated twice, in one order
        decoded = cells if codec is None else map(codec.decode, cells)
        pairs.append(dict(zip(cells, zip(repeat(var), decoded))))
    graphs: Iterable[Iterable[Any]] = map(map, repeat(getitem), repeat(pairs), rows)
    if partial:
        graphs = map(filter, repeat(_value), graphs)
    return frozenset(map(frozenset.__new__, repeat(Mapping), graphs))
