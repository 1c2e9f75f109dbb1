"""The hash-indexed in-memory backend.

The evaluation substrate the library grew up on (formerly
``repro.core.database.Database``, which is now a thin alias of this
class).  Facts are stored **dictionary-encoded**: a
:class:`TermDictionary` owned by the backend gives every constant it has
ever stored an ``int`` code, and a fact ``R(c₁, …, c_n)`` is the *row*
``(code(c₁), …, code(c_n), fact)`` — its arguments' codes, and behind
them the atom itself, which is the way back for the callers of
:meth:`~MemoryBackend.match` (the kernels address cells by argument
position and never see it).  There is one index, per relation:

* an insertion-ordered table ``args → row``, keyed by the fact's
  argument tuple, which the row already holds through its fact
  (membership as one C-level tuple lookup, ``facts()``, and the row to
  unlink on removal), and
* per argument position, the postings ``code → [row, …]``.

:meth:`MemoryBackend.match` answers "which facts unify with this
partially instantiated atom?" in time proportional to the smallest
candidate posting list, comparing ints, and maps the surviving rows to
their atoms in one C-level pass; the columnar kernels
(:mod:`repro.relalg`) skip that last step and compute on the rows
themselves (:meth:`~MemoryBackend.rows`, :meth:`~MemoryBackend.probe`),
so between a scan and the ``Mapping`` boundary every cell hashes and
compares in C.  The dictionary is keyed by the ``Constant`` itself,
which is keyed by its payload's type and value (:mod:`repro.core.terms`):
``1``, ``1.0`` and ``True`` are three constants, as on SQLite.  Removal
keeps the index and the active domain exact — the active domain *is*
the key set of the postings — and every successful mutation bumps
:attr:`~repro.storage.base.StorageBackend.data_version`.
"""

from __future__ import annotations

from itertools import chain, compress
from operator import itemgetter
from typing import (
    Any,
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.atoms import Atom, Schema
from ..core.terms import Constant, Term, Variable
from ..exceptions import NotGroundError
from .base import ProbeAtom, StorageBackend, allocate_backend_id

#: A stored fact: the dictionary codes of its arguments, then the fact
#: itself — so the way from a row back to its atom is ``row[-1]``.
CodeRow = Tuple[Any, ...]

_FACT = itemgetter(-1)


class _Passthrough(dict):
    """A dict that maps a missing key to itself."""

    __slots__ = ()

    def __missing__(self, key):
        return key


class TermDictionary:
    """The append-only ``Constant ↔ int`` dictionary of one backend.

    ``decode`` is a C-level dict lookup on an ``int``; ``encode`` is one
    on a ``Constant``, which is hash-consed (:mod:`repro.core.terms`), so
    it hashes by identity and a hit is an identity match, both in C.
    Reading never
    writes: a constant the store has never seen has no code, is its own
    cell (``encode(c) is c``, ``decode(c) is c``) and, being no ``int``,
    equals no stored cell — so a server does not grow its dictionary from
    query text and readers never write what :meth:`intern` writes.  Codes
    are never reused while the backend lives, and a term is recorded
    before its code is published, so whoever sees a code can decode it.
    """

    __slots__ = ("name", "_codes", "_terms", "encode", "decode", "code")

    def __init__(self, name: str):
        #: The owning backend's id — what a mixed-codec error shows.
        self.name = name
        self._codes: Dict[Constant, int] = _Passthrough()
        self._terms: Dict[int, Constant] = _Passthrough()
        self.encode = self._codes.__getitem__
        self.decode = self._terms.__getitem__
        #: ``code(constant)``: its code, ``None`` when it was never stored.
        self.code = self._codes.get

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:
        return "TermDictionary(%s, %d terms)" % (self.name, len(self))

    def intern(self, constant: Constant) -> int:
        """The code of ``constant``, issuing the next one when it is new
        (the write path: only :meth:`MemoryBackend.add` gets here)."""
        code = self.code(constant)
        if code is None:
            code = len(self._terms)
            self._terms[code] = constant
            self._codes[constant] = code
        return code


def _passing(rows: Iterable[CodeRow], constants, equal) -> Iterable[CodeRow]:
    """``rows`` filtered by ``(position, code)`` and ``(position,
    position)`` checks, one C-compared pass per check."""
    for pos, code in constants:
        rows = [r for r in rows if r[pos] == code]
    for pos, other in equal:
        rows = [r for r in rows if r[pos] == r[other]]
    return rows


def _any_passing(rows: Iterable[CodeRow], constants, equal) -> bool:
    """Does some row pass every ``(position, code)`` and ``(position,
    position)`` check?  Row by row, up to the first that does."""
    for row in rows:
        if all([row[pos] == code for pos, code in constants]) and all(
            [row[pos] == row[other] for pos, other in equal]
        ):
            return True
    return False


def _select(compiled) -> Sequence[CodeRow]:
    """The rows a compiled pattern (:meth:`MemoryBackend._compile`)
    matches: its posting list, or all rows, filtered by the checks the
    list leaves open."""
    table, _, rows, _, others, equal = compiled
    if rows is None:
        rows = list(table.values())
    if others or equal:
        rows = _passing(rows, others, equal)
    return rows


class MemoryBackend(StorageBackend):
    """A set of ground atoms with hash indexes.

    Parameters
    ----------
    facts:
        Initial ground atoms.  Non-ground atoms raise
        :class:`~repro.exceptions.NotGroundError`.
    schema:
        Optional explicit schema; when given, every inserted fact is checked
        against it.  When omitted, the schema is inferred incrementally.

    Examples
    --------
    >>> from repro.core.atoms import atom
    >>> db = MemoryBackend([atom("E", 1, 2), atom("E", 2, 3)])
    >>> len(db)
    2
    >>> sorted(db.match(atom("E", "?x", 3)))
    [E(2, 3)]
    >>> db.data_version
    2
    >>> db.discard(atom("E", 1, 2)), db.data_version
    (True, 3)
    """

    __slots__ = (
        "codec", "_relations", "_schema", "_explicit_schema", "_version",
        "_backend_id",
    )

    #: One :meth:`probe` key is a dict lookup: 0.137 µs against 0.133 µs
    #: a fact of a full read (same sweep as the base class's; building
    #: and compiling an atom per key, as before the compiled probe,
    #: made it 6).
    probe_cost = 1

    def __init__(self, facts: Iterable[Atom] = (), schema: Optional[Schema] = None):
        self._schema = schema if schema is not None else Schema()
        self._explicit_schema = schema is not None
        self._version = 0
        self._backend_id = allocate_backend_id("memory")
        self.codec = TermDictionary(self._backend_id)
        #: relation → (fact's args → row in insertion order, per
        #: position code → rows).  Every relation has one arity (the
        #: schema enforces it) and at least one fact.
        self._relations: Dict[
            str, Tuple[Dict[Tuple[Constant, ...], CodeRow], Tuple[Dict[int, List[CodeRow]], ...]]
        ] = {}
        for fact in facts:
            self.add(fact)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def backend_id(self) -> str:
        return self._backend_id

    @property
    def data_version(self) -> int:
        return self._version

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, fact: Atom) -> bool:
        """Insert ``fact``; return ``True`` iff it was not already present."""
        if self._insert(fact):
            self._version += 1
            return True
        return False

    def _insert(self, fact: Atom) -> bool:
        """The indexing work of :meth:`add` without the version bump —
        the shared inner step of ``add`` and the bulk :meth:`add_many`."""
        stored = self._relations.get(fact.relation)
        args = fact.args
        if stored is not None and args in stored[0]:
            return False
        codes = tuple(map(self.codec.code, args))
        if None in codes and not fact.is_ground():  # a stored term is a constant
            raise NotGroundError("database facts must be ground, got %r" % (fact,))
        if stored is None or len(stored[1]) != len(args):
            # Not a relation and arity the schema has already seen.
            if self._explicit_schema:
                self._schema.validate_atom(fact)
            else:
                self._schema.add_relation(fact.relation, len(args))
            stored = self._relations[fact.relation] = ({}, tuple({} for _ in args))
        table, columns = stored
        if None in codes:
            codes = tuple(map(self.codec.intern, args))
        row = table[args] = codes + (fact,)
        for column, code in zip(columns, codes):
            posting = column.get(code)
            if posting is None:
                column[code] = [row]
            else:
                posting.append(row)
        return True

    def add_many(self, facts: Iterable[Atom]) -> int:
        """Bulk insert with a **single** version bump (see the base
        class)."""
        new = sum(map(self._insert, facts))
        if new:
            self._version += 1
        return new

    def discard(self, fact: Atom) -> bool:
        """Delete ``fact`` if present, keeping the relation table and the
        postings (and with them the active domain) exact."""
        stored = self._relations.get(fact.relation)
        row = None if stored is None else stored[0].pop(fact.args, None)
        if row is None:
            return False
        table, columns = stored
        if not table:
            del self._relations[fact.relation]
        else:
            for column, code in zip(columns, row):
                posting = column[code]
                posting.remove(row)
                if not posting:
                    del column[code]
        self._version += 1
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        """The (explicit or inferred) schema of this database."""
        return self._schema

    def facts(self, relation: Optional[str] = None) -> Tuple[Atom, ...]:
        """All facts, or the facts of one relation."""
        if relation is None:
            return tuple(self)
        stored = self._relations.get(relation)
        return () if stored is None else tuple(map(_FACT, stored[0].values()))

    def relations(self) -> FrozenSet[str]:
        """Relation names with at least one fact."""
        return frozenset(self._relations)

    def active_domain(self) -> FrozenSet[Constant]:
        """All constants appearing in some fact (the active domain ``adom``)."""
        codes = set().union(
            *(column for _, columns in self._relations.values() for column in columns)
        )
        return frozenset(map(self.codec.decode, codes))

    def __contains__(self, fact: Atom) -> bool:
        stored = self._relations.get(fact.relation)
        return stored is not None and fact.args in stored[0]

    def __len__(self) -> int:
        return sum(len(table) for table, _ in self._relations.values())

    def __iter__(self) -> Iterator[Atom]:
        return map(_FACT, chain.from_iterable(
            [table.values() for table, _ in self._relations.values()]
        ))

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match(self, pattern: Atom) -> Iterator[Atom]:
        """The facts unifying with ``pattern``: its :meth:`rows`, mapped
        to their atoms.

        ``pattern`` may mix constants and variables; repeated variables
        impose equality between positions.
        """
        compiled = self._compile(pattern)
        if compiled is None:
            return iter(())
        if compiled[2] is None and not compiled[5]:  # every fact
            return map(_FACT, list(compiled[0].values()))
        return map(_FACT, _select(compiled))

    def rows(self, pattern: Atom) -> Sequence[CodeRow]:
        """The rows unifying with ``pattern``.  The pattern is compiled
        once (:meth:`_compile`); a ground one is a single table lookup,
        one with at most one constant and no repeated variable gets its
        posting list as it is, any other pays one int comparison per
        candidate row and open check."""
        compiled = self._compile(pattern)
        return () if compiled is None else _select(compiled)

    def exists(self, pattern: Atom) -> bool:
        """Whether :meth:`rows` of ``pattern`` is non-empty, read from the
        compiled pattern: a ground one is a single table lookup, and a
        posting list or a table is never empty, so only the checks it
        leaves open are tested — row by row, up to the first that passes."""
        compiled = self._compile(pattern)
        if compiled is None:
            return False
        table, _, rows, _, others, equal = compiled
        return not (others or equal) or _any_passing(
            table.values() if rows is None else rows, others, equal
        )

    def exists_substituted(
        self, program: Sequence[ProbeAtom], binding: Mapping[Variable, Term]
    ) -> bool:
        """The probe route's read (see the base class), building no
        ``Atom`` and compiling nothing: a ground atom is one C-level lookup
        of its filled argument tuple in its relation's table; an atom the
        binding leaves open reads the smallest posting list among its fixed
        positions (every row of the table when it has none) and checks the
        other fixed positions and its repeats, as :meth:`_compile` would.
        A relation or an arity the store lacks, and a constant the
        dictionary never stored, find nothing."""
        get = binding.get
        code_of = self.codec.code
        relations = self._relations
        for relation, template, ground, fixed, repeats in program:
            stored = relations.get(relation)
            if stored is None:
                return False
            table, columns = stored
            if ground:
                if tuple(map(get, template, template)) not in table:
                    return False
                continue
            if len(columns) != len(template):
                return False
            rows = None
            checks = []
            for pos, t in fixed:
                code = code_of(get(t, t))
                posting = None if code is None else columns[pos].get(code)
                if posting is None:
                    return False
                if rows is None:
                    rows, chosen = posting, (pos, code)
                elif len(posting) < len(rows):
                    checks.append(chosen)
                    rows, chosen = posting, (pos, code)
                else:
                    checks.append((pos, code))
            # A posting list or a table is never empty.
            if (checks or repeats) and not _any_passing(
                table.values() if rows is None else rows, checks, repeats
            ):
                return False
        return True

    def match_bound(self, pattern: Atom) -> int:
        """How many rows :meth:`rows` would read (O(arity))."""
        compiled = self._compile(pattern)
        if compiled is None:
            return 0
        return len(compiled[0] if compiled[2] is None else compiled[2])

    def probe(
        self,
        pattern: Atom,
        variables: Sequence[Variable],
        keys: Collection[Any],
    ) -> Iterable[CodeRow]:
        """The compiled probe (see the base class): the pattern's
        constants are looked up once, then every key is one posting
        lookup on the first key variable's position — no atom is built,
        nothing is compiled per key."""
        compiled = self._compile(pattern)
        if compiled is None:
            return ()
        _, columns, _, chosen, others, equal = compiled
        at = [pattern.args.index(v) for v in variables]
        firsts = keys if len(at) == 1 else set(map(itemgetter(0), keys))
        rows: Iterable[CodeRow] = chain.from_iterable(
            filter(None, map(columns[at[0]].get, firsts))
        )
        if len(at) > 1:
            rows = list(rows)
            rows = compress(rows, map(keys.__contains__, map(itemgetter(*at), rows)))
        return _passing(rows, others if chosen is None else others + [chosen], equal)

    def _compile(self, pattern: Atom):
        """``(table, postings per position, rows to read, chosen check,
        other checks, equality checks)`` for ``pattern``.  A check is
        ``(position, code)``, one per constant position: the *chosen* one
        has the smallest posting list, which is the rows to read
        (``None`` and ``None`` without a constant: every row of the
        table), the *others* are what reading that list leaves open.  An
        equality check is ``(first position, later position)``, one per
        repeat of a variable.  A ground pattern that is a fact compiles
        to its one row and no check.  ``None`` when nothing can match: an
        unknown relation, another arity, or a constant no fact has at
        that position."""
        stored = self._relations.get(pattern.relation)
        args = pattern.args
        if stored is None or len(stored[1]) != len(args):
            return None
        table, columns = stored
        if isinstance(args[0], Constant) and isinstance(args[-1], Constant):
            # Ground, unless a variable sits in between: one table lookup
            # on the argument tuple.
            row = table.get(args)
            if row is not None:
                return table, columns, (row,), None, (), ()
            if len(args) < 3:
                return None
        code_of = self.codec.code
        rows = chosen = seen = first_at = None
        others: List[Tuple[int, int]] = []
        equal: List[Tuple[int, int]] = []
        for pos, value in enumerate(args):
            if isinstance(value, Constant):
                code = code_of(value)
                posting = columns[pos].get(code)
                if posting is None:
                    return None
                if rows is None:
                    rows, chosen = posting, (pos, code)
                elif len(posting) < len(rows):
                    others.append(chosen)
                    rows, chosen = posting, (pos, code)
                else:
                    others.append((pos, code))
            elif seen is None:
                seen = pos  # a lone variable repeats nothing: no hashing
            else:
                if first_at is None:
                    first_at = {args[seen]: seen}
                if first_at.setdefault(value, pos) != pos:
                    equal.append((first_at[value], pos))
        return table, columns, rows, chosen, others, equal

    def copy(self) -> "MemoryBackend":
        """An independent copy sharing no mutable state.  The copy carries
        the schema (explicit schemas stay enforced), all facts, and the
        current data version — it gets its own ``backend_id`` and its own
        term dictionary."""
        clone = type(self)(
            schema=self._schema if self._explicit_schema else None
        )
        clone.update(self)
        clone._version = self._version
        return clone

    # Pickling (a copy for another interpreter): reconstruct from facts
    # + schema, then restore identity.
    def __reduce__(self):
        return (
            _restore_memory_backend,
            (
                type(self),
                tuple(self),
                self._schema if self._explicit_schema else None,
                self._version,
            ),
        )


def _restore_memory_backend(cls, facts, schema, version):
    backend = cls(facts, schema=schema)
    backend._version = version
    return backend
