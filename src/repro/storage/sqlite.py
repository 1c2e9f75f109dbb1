"""SQLite-backed storage: one table per relation, SQL-served matching.

A :class:`SQLiteBackend` stores each relation in its own table
(``r0``, ``r1``, … — the mapping lives in a catalog table, so arbitrary
relation names never reach SQL identifiers) with one ``TEXT`` column per
argument position, a covering UNIQUE index enforcing set semantics, and
one index per position serving :meth:`~SQLiteBackend.match` lookups.
Constants are encoded with a type tag (int/str/bool/float/None get
compact readable forms, anything else a pickle payload), so facts
round-trip exactly.

The columnar kernels (:mod:`repro.relalg`) read it through the cell
seam of :class:`~repro.storage.base.StorageBackend`, natively: a
:meth:`~SQLiteBackend.rows` read is one ``SELECT`` whose stored texts
are decoded once each per call into ``Constant`` cells (no ``Atom`` is
built), and a :meth:`~SQLiteBackend.probe` is one ``c_i IN (…)``
statement per chunk of keys that fits the bound-parameter limit.

Every connection is opened with the same fixed settings (no option
selects them).  Temporary B-trees — the ``DISTINCT`` scans and
materialised CTEs of the Boolean pushdown — live in RAM
(``temp_store=MEMORY``) instead of spilling to temp files; this bounds
no rows, so that statement's scratch is outside the row budget.  An
on-disk file is journaled to a write-ahead log (``journal_mode=WAL``) with
``synchronous=FULL``: a commit appends its pages to ``<file>-wal`` and
fsyncs that once (a rollback journal costs two fsyncs plus a journal
create and unlink), and every commit that returned survives a process
kill or a power loss.

Three capabilities the in-memory backend does not have:

* **Persistence** — construct with ``path=`` to operate directly on an
  on-disk file, :meth:`SQLiteBackend.open` to resume one, and
  :meth:`~SQLiteBackend.save` to snapshot the current state elsewhere
  (via SQLite's online backup).  The catalog and the data version live
  in the file, so an re-opened database resumes its cache lineage
  (same ``backend_id``, same ``data_version``).  While any connection
  has the file open, its ``-wal`` and ``-shm`` sidecars are part of the
  database (recent commits may live only in the log); the last
  :meth:`~SQLiteBackend.close` folds the log into the main file and
  deletes both, leaving one self-contained file.
* **Boolean SQL pushdown** — :meth:`~SQLiteBackend.sql_yannakakis`
  decides a Boolean acyclic CQ in one SQL statement: per-atom
  ``DISTINCT`` scans and the bottom-up ``EXISTS`` semi-join sweep as CTE
  layers, then ``SELECT EXISTS`` over the root.  ``repro.cqalgs.
  yannakakis`` sends every Boolean run on this backend there; answers
  run on the columnar kernels.
* **Concurrency** — the connection is shared across threads behind an
  ``RLock`` (the query service's executor threads may issue matches
  concurrently); pickling ships the facts (or, on disk, the path), so
  a copy can cross to another interpreter.  A process that reopens the
  path sees every commit made before it opened, and WAL readers do not
  block the writer.
"""

from __future__ import annotations

import base64
import os
import pickle
import sqlite3
import threading
from itertools import repeat
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
    Union,
)

from ..core.atoms import Atom, Schema
from ..core.terms import Constant, Term, Variable
from ..exceptions import NotGroundError, ReproError
from ..hypergraphs.gyo import JoinTree, join_tree_shape
from .base import ProbeAtom, StorageBackend, allocate_backend_id

#: Catalog table mapping relation names to their backing tables.
_CATALOG = "_repro_catalog"
#: Key/value metadata (schema version, data version).
_META = "_repro_meta"
#: On-disk layout version (bump on incompatible changes).
_LAYOUT = 1
#: Files SQLite keeps beside a database file ``<file>``: write-ahead log,
#: its shared-memory index, rollback journal.
_SIDECARS = ("-wal", "-shm", "-journal")


# ---------------------------------------------------------------------------
# Constant encoding: readable tags for the common payloads, pickle otherwise
# ---------------------------------------------------------------------------
def encode_value(value: Any) -> str:
    """Encode one constant payload as tagged TEXT (injective per value)."""
    if value is True:
        return "b1"
    if value is False:
        return "b0"
    if value is None:
        return "n"
    if isinstance(value, int):
        return "i%d" % value
    if isinstance(value, str):
        return "s" + value
    if isinstance(value, float):
        return "f%r" % value
    return "p" + base64.b64encode(
        pickle.dumps(value, protocol=4)
    ).decode("ascii")


def decode_value(text: str) -> Any:
    """Invert :func:`encode_value`."""
    tag, body = text[0], text[1:]
    if tag == "i":
        return int(body)
    if tag == "s":
        return body
    if tag == "b":
        return body == "1"
    if tag == "n":
        return None
    if tag == "f":
        return float(body)
    if tag == "p":
        return pickle.loads(base64.b64decode(body))
    raise ReproError("corrupt stored value %r" % (text,))


class SQLiteBackend(StorageBackend):
    """A fact store backed by a stdlib-``sqlite3`` database.

    Parameters
    ----------
    facts:
        Initial ground atoms.
    schema:
        Optional explicit schema (eager arity checking, as with the
        memory backend).
    path:
        SQLite file to operate on (created when missing; existing
        repro-layout files are resumed, and switched to write-ahead
        logging if they were not).  ``None`` (default) keeps the
        database in ``:memory:``.  ``facts`` are loaded in one
        transaction: one commit, one version bump per new fact.

    >>> from repro.core.atoms import atom
    >>> db = SQLiteBackend([atom("E", 1, 2), atom("E", 2, 3)])
    >>> sorted(db.match(atom("E", "?x", 3)))
    [E(2, 3)]
    >>> db.match_count(atom("E", "?x", "?y"))
    2
    """

    def __init__(
        self,
        facts: Iterable[Atom] = (),
        schema: Optional[Schema] = None,
        path: Optional[str] = None,
    ):
        self._path = os.path.abspath(path) if path is not None else None
        self._conn = sqlite3.connect(
            self._path if self._path is not None else ":memory:",
            check_same_thread=False,
        )
        # The package's only PRAGMAs (tests/test_cli.py pins that).
        # synchronous is set explicitly, after the mode switch, because a
        # build may default WAL connections to NORMAL, which can lose the
        # last commits on a power loss.
        self._conn.execute("PRAGMA temp_store=MEMORY")
        if self._path is not None:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=FULL")
        self._lock = threading.RLock()
        self._schema = schema if schema is not None else Schema()
        self._explicit_schema = schema is not None
        #: relation name -> (table name, arity)
        self._tables: Dict[str, Tuple[str, int]] = {}
        #: Probe-atom layout -> its ``SELECT 1`` (:meth:`exists_substituted`).
        self._probe_sql: Dict[tuple, str] = {}
        self._version = 0
        # ``Connection.getlimit`` is Python ≥ 3.11; 999 is what SQLite
        # builds before 3.32 default to, so it is safe everywhere.
        getlimit = getattr(self._conn, "getlimit", None)
        self._max_parameters: int = (
            getlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER) if getlimit else 999
        )
        if self._path is not None:
            self._backend_id = "sqlite:%s" % self._path
        else:
            self._backend_id = allocate_backend_id("sqlite")
        with self._lock, self._conn:
            self._init_layout()
        self.update(facts)

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def _init_layout(self) -> None:
        cur = self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' AND name=?",
            (_CATALOG,),
        )
        fresh = cur.fetchone() is None
        if fresh:
            # One commit for the layout: outside a transaction each
            # CREATE TABLE would commit (and fsync) on its own.
            self._conn.execute("BEGIN")
            self._conn.execute(
                "CREATE TABLE %s (relation TEXT PRIMARY KEY, tbl TEXT, arity INTEGER)"
                % _CATALOG
            )
            self._conn.execute(
                "CREATE TABLE %s (key TEXT PRIMARY KEY, value TEXT)" % _META
            )
            self._conn.execute(
                "INSERT INTO %s VALUES ('layout', ?)" % _META, (str(_LAYOUT),)
            )
            self._conn.execute(
                "INSERT INTO %s VALUES ('data_version', '0')" % _META
            )
            return
        layout = self._meta("layout")
        if layout != str(_LAYOUT):
            raise ReproError(
                "unsupported sqlite layout %r (expected %r)" % (layout, _LAYOUT)
            )
        for relation, tbl, arity in self._conn.execute(
            "SELECT relation, tbl, arity FROM %s" % _CATALOG
        ):
            self._tables[relation] = (tbl, int(arity))
            if not self._explicit_schema:
                self._schema.add_relation(relation, int(arity))
        self._version = int(self._meta("data_version") or 0)

    def _meta(self, key: str) -> Optional[str]:
        row = self._conn.execute(
            "SELECT value FROM %s WHERE key=?" % _META, (key,)
        ).fetchone()
        return row[0] if row is not None else None

    def _bump_version(self) -> None:
        self._version += 1
        self._conn.execute(
            "UPDATE %s SET value=? WHERE key='data_version'" % _META,
            (str(self._version),),
        )

    def _table_for(self, relation: str, arity: int) -> str:
        """The backing table of ``relation``, created on first insert."""
        entry = self._tables.get(relation)
        if entry is not None:
            return entry[0]
        tbl = "r%d" % len(self._tables)
        cols = ", ".join("c%d TEXT" % i for i in range(arity))
        self._conn.execute("CREATE TABLE %s (%s)" % (tbl, cols))
        all_cols = ", ".join("c%d" % i for i in range(arity))
        self._conn.execute(
            "CREATE UNIQUE INDEX %s_u ON %s (%s)" % (tbl, tbl, all_cols)
        )
        for i in range(arity):
            self._conn.execute(
                "CREATE INDEX %s_i%d ON %s (c%d)" % (tbl, i, tbl, i)
            )
        self._conn.execute(
            "INSERT INTO %s VALUES (?, ?, ?)" % _CATALOG, (relation, tbl, arity)
        )
        self._tables[relation] = (tbl, arity)
        return tbl

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
        # Through update: a fact of a new relation creates its table
        # inside the same one commit.
        return self.update((fact,)) == 1

    def _insert(self, fact: Atom) -> bool:
        """Insert one fact inside the caller's lock and transaction."""
        if not fact.is_ground():
            raise NotGroundError("database facts must be ground, got %r" % (fact,))
        if self._explicit_schema:
            self._schema.validate_atom(fact)
        else:
            self._schema.add_relation(fact.relation, fact.arity)
        row = tuple(encode_value(a.value) for a in fact.args)  # type: ignore[union-attr]
        tbl = self._table_for(fact.relation, fact.arity)
        cur = self._conn.execute(
            "INSERT OR IGNORE INTO %s VALUES (%s)"
            % (tbl, ", ".join("?" * fact.arity)),
            row,
        )
        if cur.rowcount == 0:
            return False
        self._bump_version()
        return True

    def discard(self, fact: Atom) -> bool:
        entry = self._tables.get(fact.relation)
        if entry is None or entry[1] != fact.arity:
            return False
        tbl = entry[0]
        where = " AND ".join("c%d=?" % i for i in range(fact.arity))
        row = tuple(encode_value(a.value) for a in fact.args)  # type: ignore[union-attr]
        with self._lock, self._conn:
            cur = self._conn.execute(
                "DELETE FROM %s WHERE %s" % (tbl, where), row
            )
            if cur.rowcount == 0:
                return False
            self._bump_version()
            return True

    def update(self, facts: Iterable[Atom]) -> int:
        """Insert each fact — one version bump per new fact — in
        **one** transaction: one commit however many facts, and a
        fact that raises leaves neither the facts before it nor their
        bumps (nor a table created for them) behind."""
        with self._lock:
            version, tables = self._version, dict(self._tables)
            # Explicit, so a CREATE TABLE for a new relation is inside it
            # (sqlite3 opens one implicitly only before an INSERT).
            self._conn.execute("BEGIN")
            try:
                added = sum(1 for fact in facts if self._insert(fact))
            except BaseException:
                self._conn.rollback()
                self._version, self._tables = version, tables
                self._probe_sql = {}
                if not self._explicit_schema:
                    self._schema = Schema(
                        {rel: arity for rel, (_, arity) in tables.items()}
                    )
                raise
            self._conn.commit()
            return added

    def add_many(self, facts: Iterable[Atom]) -> int:
        """Bulk insert via one ``executemany`` per relation, with a
        single version bump for the whole batch (see the base class).
        ``INSERT OR IGNORE`` against the unique row index dedups both
        against the stored facts and within the batch; the insert count
        comes from ``total_changes``."""
        grouped: Dict[Tuple[str, int], List[Tuple[str, ...]]] = {}
        for fact in facts:
            if not fact.is_ground():
                raise NotGroundError(
                    "database facts must be ground, got %r" % (fact,)
                )
            if self._explicit_schema:
                self._schema.validate_atom(fact)
            else:
                self._schema.add_relation(fact.relation, fact.arity)
            row = tuple(encode_value(a.value) for a in fact.args)  # type: ignore[union-attr]
            grouped.setdefault((fact.relation, fact.arity), []).append(row)
        added = 0
        with self._lock, self._conn:
            for (relation, arity), rows in grouped.items():
                tbl = self._table_for(relation, arity)
                before = self._conn.total_changes
                self._conn.executemany(
                    "INSERT OR IGNORE INTO %s VALUES (%s)"
                    % (tbl, ", ".join("?" * arity)),
                    rows,
                )
                added += self._conn.total_changes - before
            if added:
                self._bump_version()
        return added

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    def facts(self, relation: Optional[str] = None) -> Tuple[Atom, ...]:
        if relation is None:
            out: List[Atom] = []
            for rel in self._tables:
                out.extend(self.facts(rel))
            return tuple(out)
        entry = self._tables.get(relation)
        if entry is None:
            return ()
        with self._lock:
            rows = self._conn.execute("SELECT * FROM %s" % entry[0]).fetchall()
        return tuple(Atom(relation, row) for row in _decoded(rows))

    def relations(self) -> FrozenSet[str]:
        with self._lock:
            return frozenset(
                rel
                for rel, (tbl, _) in self._tables.items()
                if self._conn.execute(
                    "SELECT 1 FROM %s LIMIT 1" % tbl
                ).fetchone()
                is not None
            )

    def active_domain(self) -> FrozenSet[Constant]:
        out: set = set()
        with self._lock:
            for tbl, arity in self._tables.values():
                for i in range(arity):
                    for (value,) in self._conn.execute(
                        "SELECT DISTINCT c%d FROM %s" % (i, tbl)
                    ):
                        out.add(Constant(decode_value(value)))
        return frozenset(out)

    def __contains__(self, fact: Atom) -> bool:
        return fact.is_ground() and self.exists(fact)

    def __len__(self) -> int:
        with self._lock:
            return sum(
                self._conn.execute(
                    "SELECT COUNT(*) FROM %s" % tbl
                ).fetchone()[0]
                for tbl, _ in self._tables.values()
            )

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.facts())

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def _pattern_sql(self, pattern: Atom) -> Optional[Tuple[str, str, Tuple[str, ...]]]:
        """``(table, WHERE clause, parameters)`` for ``pattern``, or
        ``None`` when the relation/arity cannot match anything."""
        entry = self._tables.get(pattern.relation)
        if entry is None or entry[1] != pattern.arity:
            return None
        conditions: List[str] = []
        params: List[str] = []
        first_pos: Dict[Variable, int] = {}
        for pos, arg in enumerate(pattern.args):
            if isinstance(arg, Constant):
                conditions.append("c%d=?" % pos)
                params.append(encode_value(arg.value))
            else:
                seen = first_pos.setdefault(arg, pos)
                if seen != pos:
                    conditions.append("c%d=c%d" % (pos, seen))
        where = " AND ".join(conditions) if conditions else "1=1"
        return entry[0], where, tuple(params)

    def match(self, pattern: Atom) -> Iterator[Atom]:
        for row in self.rows(pattern):
            yield Atom(pattern.relation, row)

    def rows(self, pattern: Atom) -> List[Tuple[Constant, ...]]:
        """The cell seam (see the base class): one ``SELECT``, its rows
        as ``Constant`` cells, each distinct stored text decoded once per
        call and no ``Atom`` built."""
        plan = self._pattern_sql(pattern)
        if plan is None:
            return []
        tbl, where, params = plan
        with self._lock:
            found = self._conn.execute(
                "SELECT * FROM %s WHERE %s" % (tbl, where), params
            ).fetchall()
        return _decoded(found)

    def probe(
        self,
        pattern: Atom,
        variables: Sequence[Variable],
        keys: Collection[Constant],
    ) -> List[Tuple[Constant, ...]]:
        """The cell seam (see the base class): :meth:`rows` of
        ``pattern`` whose ``variables`` take one of ``keys``, as one
        ``c_i IN (…)`` statement — ``(c_i, c_j, …) IN (VALUES …)`` for a
        multi-variable key — per chunk of keys that fits SQLite's
        bound-parameter limit."""
        plan = self._pattern_sql(pattern)
        if plan is None or not keys:
            return []
        tbl, where, params = plan
        width = len(variables)
        columns = ", ".join("c%d" % pattern.args.index(v) for v in variables)
        if width == 1:
            encoded = [encode_value(key.value) for key in keys]
            test, one = "%s IN (%%s)" % columns, "?"
        else:
            encoded = [encode_value(cell.value) for key in keys for cell in key]
            test = "(%s) IN (VALUES %%s)" % columns
            one = "(%s)" % ", ".join("?" * width)
        per = max(1, (self._max_parameters - len(params)) // width) * width
        found: List[Tuple[str, ...]] = []
        with self._lock:
            for start in range(0, len(encoded), per):
                chunk = encoded[start:start + per]
                found += self._conn.execute(
                    "SELECT * FROM %s WHERE %s AND %s"
                    % (tbl, where, test % ", ".join([one] * (len(chunk) // width))),
                    params + tuple(chunk),
                ).fetchall()
        return _decoded(found)

    def exists(self, pattern: Atom) -> bool:
        """The existence read (see the base class): one ``SELECT 1 …
        LIMIT 1`` over the pattern's ``WHERE`` clause, nothing decoded."""
        plan = self._pattern_sql(pattern)
        if plan is None:
            return False
        tbl, where, params = plan
        with self._lock:
            return self._conn.execute(
                "SELECT 1 FROM %s WHERE %s LIMIT 1" % (tbl, where), params
            ).fetchone() is not None

    def exists_substituted(
        self, program: Sequence[ProbeAtom], binding: Mapping[Variable, Term]
    ) -> bool:
        """The probe route's read (see the base class), building no
        ``Atom``: per atom one ``SELECT 1 … LIMIT 1`` whose text is built
        once per probe-atom layout — relation, arity, fixed positions and
        repeats, never the values, so the memo is bounded by the schema —
        and the values it fixes (the template's constants and the bound
        variables) encoded per call.  A relation without a table, or an
        arity its table lacks, finds nothing and is not memoed: its table
        may come later."""
        get = binding.get
        with self._lock:
            memo = self._probe_sql
            for relation, template, ground, fixed, repeats in program:
                if ground:
                    key: tuple = (relation, len(template))
                    values = [get(t, t) for t in template]
                else:
                    key = (relation, len(template), tuple([pos for pos, _ in fixed]), repeats)
                    values = [get(t, t) for _, t in fixed]
                sql = memo.get(key)
                if sql is None:
                    sql = self._probe_statement(*key)
                    if sql is None:
                        return False
                    memo[key] = sql
                params = [encode_value(c.value) for c in values]  # type: ignore[union-attr]
                if self._conn.execute(sql, params).fetchone() is None:
                    return False
        return True

    def _probe_statement(
        self, relation: str, arity: int, positions: Optional[Sequence[int]] = None,
        repeats: Sequence[Tuple[int, int]] = (),
    ) -> Optional[str]:
        """The ``SELECT 1`` of a probe atom fixing ``positions`` (all of
        them when ``None``: a ground atom) with ``repeats``, or ``None``
        when ``relation`` has no table of that arity."""
        entry = self._tables.get(relation)
        if entry is None or entry[1] != arity:
            return None
        if positions is None:
            positions = range(arity)
        conditions = ["c%d=?" % pos for pos in positions]
        conditions += ["c%d=c%d" % (later, first) for first, later in repeats]
        return "SELECT 1 FROM %s WHERE %s LIMIT 1" % (
            entry[0], " AND ".join(conditions) or "1=1"
        )

    def match_count(self, pattern: Atom) -> int:
        plan = self._pattern_sql(pattern)
        if plan is None:
            return 0
        tbl, where, params = plan
        with self._lock:
            return self._conn.execute(
                "SELECT COUNT(*) FROM %s WHERE %s" % (tbl, where), params
            ).fetchone()[0]

    # ------------------------------------------------------------------
    # Boolean Yannakakis pushdown
    # ------------------------------------------------------------------
    #: The backend decides a Boolean join tree in one native statement
    #: (:meth:`sql_yannakakis`); :mod:`repro.cqalgs.yannakakis` sends its
    #: Boolean runs here.
    supports_sql_yannakakis = True

    def sql_yannakakis(
        self,
        atoms: Sequence[Atom],
        links: Union[JoinTree, Sequence[Tuple[int, int]]],
    ) -> bool:
        """Is the Boolean CQ over the join tree ``atoms``/``links``
        satisfiable?  ``links`` is the tree's
        :class:`~repro.hypergraphs.gyo.JoinTree` (what the Yannakakis
        engine passes) or its child→parent edges, whose shape is then
        derived here.  Decided by **one** SQL statement: the bottom-up
        semi-join sweep as a ``WITH`` chain.

        * ``s<i>`` — the scan of atom ``i``: its distinct variable
          bindings, columns ``v0, v1, …`` aligned with the variables
          sorted by repr (a ground atom is ``SELECT DISTINCT 1``, an atom
          over an absent relation or arity an empty relation);
        * ``u<i>`` — ``s<i>`` filtered by an ``EXISTS`` per child (a
          leaf's ``u`` *is* its ``s``).

        The root survives the sweep iff the query is satisfiable, so the
        statement is ``SELECT EXISTS`` over the root's ``u``.  It
        accounts no rows to a resource budget.
        """
        n = len(atoms)
        tree = links if isinstance(links, JoinTree) else join_tree_shape(links, n)
        root, children, _, order = tree
        atom_vars: List[List[Variable]] = [
            sorted(a.variables(), key=repr) for a in atoms
        ]
        ctes: List[str] = []
        params: List[str] = []
        #: current CTE name per node: its scan, then its sweep
        rel = ["s%d" % i for i in range(n)]

        for i, a in enumerate(atoms):
            vs = atom_vars[i]
            plan = self._pattern_sql(a)
            if plan is None:
                body = "SELECT %s WHERE 0" % (
                    ", ".join("NULL AS v%d" % j for j in range(len(vs))) or "1 AS one"
                )
            else:
                tbl, where, scan_params = plan
                params.extend(scan_params)
                select = ", ".join(
                    "c%d AS v%d" % (a.args.index(v), j) for j, v in enumerate(vs)
                ) or "1 AS one"
                body = "SELECT DISTINCT %s FROM %s WHERE %s" % (select, tbl, where)
            ctes.append("%s AS (%s)" % (rel[i], body))

        for node in reversed(order):
            if not children[node]:
                continue
            conditions: List[str] = []
            for child in children[node]:
                sub = "SELECT 1 FROM %s" % rel[child]
                shared = [v for v in atom_vars[node] if v in atom_vars[child]]
                if shared:
                    sub += " WHERE " + " AND ".join(
                        "%s.v%d = t.v%d"
                        % (rel[child], atom_vars[child].index(v), atom_vars[node].index(v))
                        for v in shared
                    )
                conditions.append("EXISTS (%s)" % sub)
            ctes.append(
                "u%d AS (SELECT * FROM %s t WHERE %s)"
                % (node, rel[node], " AND ".join(conditions))
            )
            rel[node] = "u%d" % node

        sql = "WITH %s SELECT EXISTS (SELECT 1 FROM %s)" % (", ".join(ctes), rel[root])
        with self._lock:
            return bool(self._conn.execute(sql, params).fetchone()[0])

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Snapshot the current state into a self-contained SQLite file
        at ``path``, replacing whatever is there.

        The online backup API copies the database — commits still in
        this backend's write-ahead log included — into a new file beside
        ``path``, which is committed (fsynced) and then renamed over
        ``path``: ``path`` holds its old content or the whole snapshot,
        never a mix.  Any ``-wal``/``-shm``/``-journal`` left at ``path``
        by an earlier database is deleted before the rename, since SQLite
        would replay a stale log into the new file.  Saving over the
        backend's own file raises :class:`ReproError`: it would unlink a
        live database and orphan its log (the same holds for a file
        another connection has open, which cannot be detected here).
        """
        target = os.path.abspath(path)
        if (
            self._path is not None
            and os.path.exists(target)
            and os.path.samefile(target, self._path)
        ):
            raise ReproError("cannot save the database at %s over itself" % target)
        scratch = "%s.%s.tmp" % (target, os.urandom(4).hex())
        try:
            with self._lock:
                dest = sqlite3.connect(scratch)
                try:
                    with dest:
                        self._conn.backup(dest)
                finally:
                    dest.close()
            for suffix in _SIDECARS:
                _remove_if_present(target + suffix)
            os.replace(scratch, target)
        finally:  # after the rename only a failed save leaves anything
            for suffix in ("",) + _SIDECARS:
                _remove_if_present(scratch + suffix)

    @classmethod
    def open(cls, path: str, schema: Optional[Schema] = None) -> "SQLiteBackend":
        """Resume the on-disk database at ``path`` (same ``backend_id``
        and ``data_version`` it was saved with, so result-cache lineage
        survives the round trip).

        Every commit acknowledged before the previous owner stopped is
        there, closed or killed: a log a killed process left behind is
        replayed on open.  A file written with a rollback journal is
        switched to write-ahead logging in place, facts, identity and
        version unchanged.  From here until the last connection closes,
        ``path``'s ``-wal``/``-shm`` sidecars are part of the database:
        copy or move the file only after :meth:`close`, or use
        :meth:`save`."""
        if not os.path.exists(path):
            raise ReproError("no sqlite database at %s" % path)
        return cls(schema=schema, path=path)

    def close(self) -> None:
        """Close the underlying connection (further use is an error).

        When this is the last connection to an on-disk file, SQLite
        checkpoints the write-ahead log into the main file and deletes the
        ``-wal``/``-shm`` sidecars: the main file alone then holds every
        fact.  While another connection (another process, a second
        backend on the same path) still has the file open, the log stays
        and belongs to the database.  Closing is not needed for
        durability — every acknowledged commit is already on disk."""
        with self._lock:
            self._conn.close()

    # ------------------------------------------------------------------
    # Copy / pickling
    # ------------------------------------------------------------------
    def _set_version(self, version: int) -> None:
        """Overwrite the stored data version (copies resume their
        original's lineage counter)."""
        with self._lock, self._conn:
            self._version = version
            self._conn.execute(
                "UPDATE %s SET value=? WHERE key='data_version'" % _META,
                (str(version),),
            )

    def copy(self) -> "SQLiteBackend":
        """An independent in-memory copy (schema, facts, and version
        carry over; the copy gets its own ``backend_id``)."""
        clone = SQLiteBackend(
            self.facts(), schema=self._schema if self._explicit_schema else None
        )
        clone._set_version(self._version)
        return clone

    def __reduce__(self):
        return (
            _restore_sqlite_backend,
            (
                self._path,
                tuple(self.facts()) if self._path is None else None,
                self._schema if self._explicit_schema else None,
                self._version,
            ),
        )


class _Cells(dict):
    """Stored text → its ``Constant``, decoded on first sight."""

    __slots__ = ()

    def __missing__(self, text: str) -> Constant:
        cell = self[text] = Constant(decode_value(text))
        return cell


def _decoded(rows: Iterable[Tuple[str, ...]]) -> List[Tuple[Constant, ...]]:
    """``rows`` of stored texts as rows of ``Constant`` cells, each
    distinct text decoded once (and one object per text)."""
    return list(map(tuple, map(map, repeat(_Cells().__getitem__), rows)))


def _restore_sqlite_backend(path, facts, schema, version):
    if path is not None:
        return SQLiteBackend(schema=schema, path=path)
    backend = SQLiteBackend(facts, schema=schema)
    backend._set_version(version)
    return backend


def _remove_if_present(path: str) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
