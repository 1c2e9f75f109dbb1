"""The hash-indexed in-memory backend.

The evaluation substrate the library grew up on (formerly
``repro.core.database.Database``, which is now a thin alias of this
class).  Lookups needed by backtracking evaluation and by the semi-join
passes of Yannakakis' algorithm are served by two indexes:

* a per-relation fact list, and
* a per-``(relation, position, value)`` inverted index.

:meth:`MemoryBackend.match` answers "which facts unify with this
partially instantiated atom?" in time proportional to the smallest
candidate posting list, which is the inner loop of all evaluation
algorithms here.  Removal keeps both indexes and the reference-counted
active domain exact, and every successful mutation bumps
:attr:`~repro.storage.base.StorageBackend.data_version`.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.atoms import Atom, Schema
from ..core.terms import Constant
from ..exceptions import NotGroundError
from .base import StorageBackend, allocate_backend_id


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
        "_facts", "_by_relation", "_index", "_schema", "_adom_counts",
        "_explicit_schema", "_version", "_backend_id",
    )

    def __init__(self, facts: Iterable[Atom] = (), schema: Optional[Schema] = None):
        self._facts: Set[Atom] = set()
        self._by_relation: Dict[str, List[Atom]] = {}
        self._index: Dict[Tuple[str, int, Constant], List[Atom]] = {}
        self._schema = schema if schema is not None else Schema()
        self._explicit_schema = schema is not None
        self._adom_counts: Dict[Constant, int] = {}
        self._version = 0
        self._backend_id = allocate_backend_id("memory")
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
        if not fact.is_ground():
            raise NotGroundError("database facts must be ground, got %r" % (fact,))
        if self._explicit_schema:
            self._schema.validate_atom(fact)
        else:
            self._schema.add_relation(fact.relation, fact.arity)
        if fact in self._facts:
            return False
        self._facts.add(fact)
        self._by_relation.setdefault(fact.relation, []).append(fact)
        for pos, value in enumerate(fact.args):
            assert isinstance(value, Constant)
            self._index.setdefault((fact.relation, pos, value), []).append(fact)
            self._adom_counts[value] = self._adom_counts.get(value, 0) + 1
        return True

    def add_many(self, facts: Iterable[Atom]) -> int:
        """Bulk insert with a **single** version bump (see the base
        class): the fast path for shard/partition loads."""
        return len(self._add_new(facts))

    def _add_new(self, facts: Iterable[Atom]) -> List[Atom]:
        """Insert ``facts`` and return exactly the ones that were new,
        bumping the version once for the whole batch.  The sharded
        backend (:mod:`repro.dist`) records the returned list in its
        write-ahead log."""
        new = [fact for fact in facts if self._insert(fact)]
        if new:
            self._version += 1
        return new

    def discard(self, fact: Atom) -> bool:
        """Delete ``fact`` if present, keeping the per-relation list, the
        inverted index, and the active domain exact."""
        if fact not in self._facts:
            return False
        self._facts.remove(fact)
        by_rel = self._by_relation[fact.relation]
        by_rel.remove(fact)
        if not by_rel:
            del self._by_relation[fact.relation]
        for pos, value in enumerate(fact.args):
            key = (fact.relation, pos, value)
            posting = self._index[key]
            posting.remove(fact)
            if not posting:
                del self._index[key]
            remaining = self._adom_counts[value] - 1
            if remaining:
                self._adom_counts[value] = remaining
            else:
                del self._adom_counts[value]
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
            return tuple(self._facts)
        return tuple(self._by_relation.get(relation, ()))

    def relations(self) -> FrozenSet[str]:
        """Relation names with at least one fact."""
        return frozenset(self._by_relation)

    def active_domain(self) -> FrozenSet[Constant]:
        """All constants appearing in some fact (the active domain ``adom``)."""
        return frozenset(self._adom_counts)

    def __contains__(self, fact: Atom) -> bool:
        return fact in self._facts

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MemoryBackend):
            return other._facts == self._facts
        return super().__eq__(other)

    __hash__ = StorageBackend.__hash__  # mutable: raises TypeError

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._facts)

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match(self, pattern: Atom) -> Iterator[Atom]:
        """The facts unifying with ``pattern``.

        ``pattern`` may mix constants and variables; repeated variables
        impose equality between positions.  The pattern is compiled once
        (:meth:`_compile`) into the smallest posting list among its
        constant positions and the comparisons that list leaves open: a
        pattern with at most one constant and no repeated variable gets
        its posting list back as it is, any other pays one inline
        comparison per candidate fact and open check.
        """
        if pattern in self._facts:  # only a ground pattern can be a fact
            return iter((pattern,))
        facts, constants, equal = self._compile(pattern)
        for pos, value in constants:
            facts = [f for f in facts if f.args[pos] == value]
        for pos, other in equal:
            facts = [f for f in facts if f.args[pos] == f.args[other]]
        return iter(facts)

    def match_bound(self, pattern: Atom) -> int:
        """Length of the posting list :meth:`match` would read (O(arity))."""
        if pattern in self._facts:
            return 1
        return len(self._compile(pattern)[0])

    def _compile(
        self, pattern: Atom
    ) -> Tuple[Sequence[Atom], List[Tuple[int, Constant]], List[Tuple[int, int]]]:
        """``(posting list, constant checks, equality checks)`` for
        ``pattern``: the smallest inverted-index posting list among its
        constant positions (the relation's fact list when it has none),
        ``(position, constant)`` for every *other* constant position, and
        ``(first position, later position)`` for every repeat of a
        variable.  A fact of the list matches iff it passes the checks;
        nothing can match an unknown relation, another arity or an
        unindexed constant, which compile to the empty list."""
        relation = pattern.relation
        best: Optional[Sequence[Atom]] = self._by_relation.get(relation)
        if best is None or len(best[0].args) != len(pattern.args):
            return (), [], []
        posting_of = self._index.get
        args = pattern.args
        chosen = -1
        constants: List[Tuple[int, Constant]] = []
        first_at: Dict[object, int] = {}
        equal: List[Tuple[int, int]] = []
        for pos, value in enumerate(args):
            if isinstance(value, Constant):
                posting = posting_of((relation, pos, value))
                if posting is None:
                    return (), [], []
                if chosen < 0:
                    best, chosen = posting, pos
                elif len(posting) < len(best):
                    constants.append((chosen, args[chosen]))
                    best, chosen = posting, pos
                else:
                    constants.append((pos, value))
            elif first_at.setdefault(value, pos) != pos:
                equal.append((first_at[value], pos))
        return best, constants, equal

    def copy(self) -> "MemoryBackend":
        """An independent copy sharing no mutable state.  The copy carries
        the schema (explicit schemas stay enforced), all indexes, and the
        current data version — it gets its own ``backend_id``."""
        clone = type(self)(
            schema=self._schema if self._explicit_schema else None
        )
        clone.update(self._facts)
        clone._version = self._version
        return clone

    # Pickling (repro.parallel's process executor ships the database to
    # workers): reconstruct from facts + schema, then restore identity.
    def __reduce__(self):
        return (
            _restore_memory_backend,
            (
                type(self),
                tuple(self._facts),
                self._schema if self._explicit_schema else None,
                self._version,
            ),
        )


def _restore_memory_backend(cls, facts, schema, version):
    backend = cls(facts, schema=schema)
    backend._version = version
    return backend
