"""The storage-backend protocol every evaluation engine runs against.

A backend is a mutable set of ground atoms (facts) exposing exactly the
access paths the evaluators use: per-relation fact lists, pattern
:meth:`~StorageBackend.match` (the inner loop of backtracking search and
of Yannakakis' semi-join passes), the active domain, and mutation via
``add``/``update``/``remove``.  Two implementations ship with the
library:

* :class:`repro.storage.memory.MemoryBackend` — the hash-indexed
  in-memory store (the historical ``repro.core.database.Database``, which
  is now a thin alias of it);
* :class:`repro.storage.sqlite.SQLiteBackend` — one SQLite table per
  relation with per-position indexes, supporting on-disk open/save,
  serving ``rows``/``probe`` as one statement each (per key chunk), and
  deciding Boolean acyclic CQs by SQL pushdown of the bottom-up
  semi-join sweep.

Every backend carries two pieces of identity used by the result cache
(:mod:`repro.storage.cache`):

* ``backend_id`` — a stable identifier of the *database instance* (for
  on-disk SQLite files it is derived from the path, so re-opening the
  same file resumes the same cache lineage);
* ``data_version`` — a monotonically increasing epoch counter bumped on
  every successful mutation.  It is a sound *stamp*: an answer computed
  at version ``v`` and filed under ``(query fingerprint, backend_id)``
  may be served while the version still reads ``v``, and any write moves
  the version forward, so an entry nobody touches is never served stale.
  Only a writer that knows exactly what moved the version from ``v`` to
  ``v'`` — it made the write itself and the counter moved by what it
  wrote — and has shown that write cannot change the answer may re-stamp
  an entry ``v → v'``; that writer is :class:`~repro.engine.Session`'s
  write funnel.  A backend takes no part in it: it counts its mutations
  and answers ``rows``/``__contains__``.
"""

from __future__ import annotations

import abc
import itertools
from operator import attrgetter
from typing import (
    Any,
    Collection,
    FrozenSet,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..core.atoms import Atom, Schema
from ..core.terms import Constant, Term, Variable

#: ``fact -> fact.args``: facts become rows without a Python frame each.
_ARGS = attrgetter("args")

#: Process-wide allocator for anonymous backend ids.
_BACKEND_IDS = itertools.count(1)


def allocate_backend_id(kind: str) -> str:
    """A fresh ``"<kind>#<n>"`` identifier for an anonymous backend."""
    return "%s#%d" % (kind, next(_BACKEND_IDS))


class ProbeAtom(NamedTuple):
    """One atom of a *probe program*: what
    :meth:`StorageBackend.exists_substituted` reads for it.  A program is
    built once per (shape, bound-variable set) by
    :func:`repro.planner.plan.plan_node` and holds one entry per atom."""

    relation: str
    #: The atom's arguments: a constant stays, a bound variable is filled
    #: from the binding, an open variable is left as it is.
    template: Tuple[Term, ...]
    #: Every variable of the atom is bound: filled, it is a fact to look up.
    ground: bool
    #: An atom the binding leaves open: its ``(position, term)`` pairs
    #: whose value is fixed — a constant of the atom, or a bound variable
    #: filled from the binding (empty on a ground atom).
    fixed: Tuple[Tuple[int, Term], ...] = ()
    #: …and its ``(first position, later position)`` pairs, one per
    #: repeat of an open variable.
    repeats: Tuple[Tuple[int, int], ...] = ()


class StorageBackend(abc.ABC):
    """Abstract base of every fact store.

    Subclasses implement the storage primitives; the shared behaviour
    (``update``, ``match_count``, equality by fact set, the unhashable
    guard) lives here so all backends agree on semantics.
    """

    # ------------------------------------------------------------------
    # Optional capabilities
    # ------------------------------------------------------------------
    #: The backend decides a Boolean acyclic CQ — scans and the
    #: bottom-up semi-join sweep — as one native query
    #: (``sql_yannakakis(atoms, links) -> bool``, ``links`` the
    #: :class:`~repro.hypergraphs.gyo.JoinTree` of the engine's run or
    #: its child→parent edges).  Checked by
    #: :mod:`repro.cqalgs.yannakakis` for Boolean runs only: answers
    #: always run on the columnar kernels.
    supports_sql_yannakakis = False

    # ------------------------------------------------------------------
    # The cell seam of the columnar kernels (:mod:`repro.relalg`)
    # ------------------------------------------------------------------
    #: What the *cells* of this backend's rows are.  ``None``: the
    #: ``Constant`` objects themselves.  Otherwise a dictionary owned by
    #: the backend, with ``encode(constant) -> cell`` (lookup only — an
    #: unknown constant is its own cell and equals no stored one) and
    #: ``decode(cell) -> constant``.  A :class:`~repro.relalg.relation.
    #: Relation` read from this backend carries the same object, and the
    #: kernels refuse to combine relations whose codecs differ.
    codec: Any = None

    #: What one key of :meth:`probe` costs, in facts read by :meth:`rows`
    #: — a seeded scan probes while ``keys × probe_cost`` stays under the
    #: pattern's :meth:`match_bound`.  The default probe, measured on
    #: SQLite (4 000 facts, 10–250 keys, one match a key; EXPERIMENTS.md
    #: has the sweep): 9.3 µs a key against 3.2 µs a fact of a full
    #: read, and about one fact more for every further match of a key.
    #: Both shipped backends override :meth:`probe`; SQLite keeps this
    #: value.
    probe_cost = 3

    def rows(self, pattern: Atom) -> Iterable[Tuple[Any, ...]]:
        """One row per fact unifying with ``pattern``: at argument
        position ``i`` the fact's ``i``-th argument as a cell of
        :attr:`codec`.  Readers address cells by argument position and
        nothing else — a backend may keep cells of its own behind the
        arguments (the memory backend's rows end in the fact itself).
        Default: :meth:`match`, unwrapped."""
        return map(_ARGS, self.match(pattern))

    def probe(
        self,
        pattern: Atom,
        variables: Sequence[Variable],
        keys: Collection[Any],
    ) -> Iterable[Tuple[Any, ...]]:
        """:meth:`rows` of ``pattern`` restricted to the facts that bind
        ``variables`` (all occurring in ``pattern``) to one of ``keys``: a
        set of distinct keys, each the bare cell when there is one
        variable and a tuple aligned with ``variables`` otherwise.
        Distinct keys match disjoint facts, so no row repeats.  Default:
        one ``substitute`` + :meth:`match` per key (the reference the
        backends' compiled probes are tested against)."""
        if len(variables) == 1:
            (only,) = variables
            bindings: Iterable[dict] = ({only: key} for key in keys)
        else:
            bindings = (dict(zip(variables, key)) for key in keys)
        return itertools.chain.from_iterable(
            self.rows(pattern.substitute(binding)) for binding in bindings
        )

    def exists(self, pattern: Atom) -> bool:
        """Does some fact unify with ``pattern``?  ``bool(rows(pattern))``
        without building the rows — what the planner's ``probe`` route
        reads per atom, by default (:meth:`exists_substituted`).
        An unknown relation, another arity or a constant no fact has
        answer ``False``; repeated variables impose equality, as in
        :meth:`rows`.  Default: the first fact of :meth:`match`."""
        for _ in self.match(pattern):
            return True
        return False

    def exists_substituted(
        self, program: Sequence[ProbeAtom], binding: Mapping[Variable, Term]
    ) -> bool:
        """Does every atom of ``program``, with ``binding`` (variables to
        ``Constant`` terms) substituted, have a match?  The read of the planner's
        ``probe`` route, up to the first atom without one.  Default: each
        atom substituted and read with :meth:`exists`."""
        get = binding.get
        for entry in program:
            template = entry.template
            if not self.exists(Atom(entry.relation, map(get, template, template))):
                return False
        return True

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def backend_id(self) -> str:
        """Stable identifier of this database instance (part of a
        :class:`~repro.storage.cache.ResultCache` slot)."""

    @property
    @abc.abstractmethod
    def data_version(self) -> int:
        """Epoch counter: bumped on every successful mutation (the stamp
        of a result-cache entry)."""

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def add(self, fact: Atom) -> bool:
        """Insert ``fact``; return ``True`` iff it was not already present."""

    @abc.abstractmethod
    def discard(self, fact: Atom) -> bool:
        """Delete ``fact`` if present; return ``True`` iff it was removed."""

    def remove(self, fact: Atom) -> None:
        """Delete ``fact``; raise :class:`KeyError` when it is absent."""
        if not self.discard(fact):
            raise KeyError("fact not in database: %r" % (fact,))

    def update(self, facts: Iterable[Atom]) -> int:
        """Insert many facts; return how many were new."""
        return sum(1 for fact in facts if self.add(fact))

    def add_many(self, facts: Iterable[Atom]) -> int:
        """Bulk-ingest ``facts``; return how many were new.

        Semantically :meth:`update`, but a bulk ingest is allowed to bump
        :attr:`data_version` **once** for the whole batch instead of once
        per tuple, so large loads don't churn the version counter (and
        the caches stamped with it).  Backends override this with their
        native bulk path — SQLite uses ``executemany``, the memory
        backend inserts without per-fact bumps.  The default loops
        :meth:`add`.
        """
        return sum(1 for fact in facts if self.add(fact))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def schema(self) -> Schema:
        """The (explicit or inferred) schema of this database."""

    @abc.abstractmethod
    def facts(self, relation: Optional[str] = None) -> Tuple[Atom, ...]:
        """All facts, or the facts of one relation."""

    @abc.abstractmethod
    def relations(self) -> FrozenSet[str]:
        """Relation names with at least one fact."""

    @abc.abstractmethod
    def active_domain(self) -> FrozenSet[Constant]:
        """All constants appearing in some fact (the active domain)."""

    @abc.abstractmethod
    def __contains__(self, fact: Atom) -> bool: ...

    @abc.abstractmethod
    def __len__(self) -> int: ...

    @abc.abstractmethod
    def __iter__(self) -> Iterator[Atom]: ...

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def match(self, pattern: Atom) -> Iterator[Atom]:
        """Yield the facts unifying with ``pattern`` (which may mix
        constants and variables; repeated variables impose equality)."""

    def match_count(self, pattern: Atom) -> int:
        """Number of facts matching ``pattern`` (see :meth:`match`)."""
        return sum(1 for _ in self.match(pattern))

    def match_bound(self, pattern: Atom) -> int:
        """An upper bound on :meth:`match_count`, at most as expensive:
        how many facts a ``match(pattern)`` would have to read.  The
        columnar Yannakakis scans its atoms in increasing bound, and a
        seeded :func:`repro.relalg.relation.scan` weighs the bound
        against its key count to choose index probes or a full scan."""
        return self.match_count(pattern)

    @abc.abstractmethod
    def copy(self) -> "StorageBackend":
        """An independent copy sharing no mutable state, carrying the
        schema (explicit or inferred) and the current data version."""

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        """Backends are equal iff they hold the same fact set — across
        implementations (a SQLite copy of a memory database compares
        equal to it)."""
        if not isinstance(other, StorageBackend):
            return NotImplemented
        return frozenset(iter(self)) == frozenset(iter(other))

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:  # pragma: no cover - databases are mutable
        raise TypeError(
            "%s objects are mutable and unhashable; key caches by "
            "(backend_id, data_version) instead" % type(self).__name__
        )

    def __repr__(self) -> str:
        return "%s(%d facts over %d relations, v%d)" % (
            type(self).__name__, len(self), len(self.relations()),
            self.data_version,
        )
