"""SQLite-backed storage: one table per relation, SQL-served matching.

A :class:`SQLiteBackend` stores each relation in its own table
(``r0``, ``r1``, … — the mapping lives in a catalog table, so arbitrary
relation names never reach SQL identifiers) with one ``TEXT`` column per
argument position, a covering UNIQUE index enforcing set semantics, and
one index per position serving :meth:`~SQLiteBackend.match` lookups.
Constants are encoded with a type tag (int/str/bool/float/None get
compact readable forms, anything else a pickle payload), so facts
round-trip exactly.

Three capabilities the in-memory backend does not have:

* **Persistence** — construct with ``path=`` to operate directly on an
  on-disk file, :meth:`SQLiteBackend.open` to resume one, and
  :meth:`~SQLiteBackend.save` to snapshot the current state elsewhere
  (via SQLite's online backup).  The catalog and the data version live
  in the file, so an re-opened database resumes its cache lineage
  (same ``backend_id``, same ``data_version``).
* **Whole-tree SQL pushdown** — :meth:`~SQLiteBackend.sql_yannakakis`
  runs the *entire* Yannakakis join plan as a single SQL statement: one
  CTE layer per phase (per-atom ``DISTINCT`` scans, bottom-up and
  top-down ``EXISTS`` semi-join sweeps, then the bottom-up
  join/projection phase), with only the final answer rows decoded back
  into Python; a seed relation of key bindings rides along as a
  ``VALUES`` CTE.  ``repro.cqalgs.yannakakis`` selects it automatically
  when the database is SQLite-backed (``REPRO_KERNELS=auto``).
* **Concurrency** — the connection is shared across threads behind an
  ``RLock`` (``repro.parallel``'s thread pools may issue matches
  concurrently); pickling ships the facts, so process pools work too.
"""

from __future__ import annotations

import base64
import os
import pickle
import sqlite3
import threading
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.atoms import Atom, Schema
from ..core.terms import Constant, Variable
from ..exceptions import NotGroundError, ReproError
from ..hypergraphs.gyo import join_tree_shape
from ..relalg.relation import Relation, semijoin
from .base import StorageBackend, allocate_backend_id

#: Catalog table mapping relation names to their backing tables.
_CATALOG = "_repro_catalog"
#: Key/value metadata (schema version, data version).
_META = "_repro_meta"
#: On-disk layout version (bump on incompatible changes).
_LAYOUT = 1


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
        repro-layout files are resumed).  ``None`` (default) keeps the
        database in ``:memory:``.

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
        self._lock = threading.RLock()
        self._schema = schema if schema is not None else Schema()
        self._explicit_schema = schema is not None
        #: relation name -> (table name, arity)
        self._tables: Dict[str, Tuple[str, int]] = {}
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
        for fact in facts:
            self.add(fact)

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
        with self._lock, self._conn:
            return self._insert(fact)

    def _insert(self, fact: Atom) -> bool:
        """:meth:`add` inside the caller's lock and transaction."""
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
        """:meth:`add` for each fact — one version bump per new fact —
        in **one** transaction: one commit however many facts, and a
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

    def _decode_row(self, relation: str, row: Sequence[str]) -> Atom:
        return Atom(relation, tuple(Constant(decode_value(v)) for v in row))

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
        return tuple(self._decode_row(relation, row) for row in rows)

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
        if not fact.is_ground():
            return False
        entry = self._tables.get(fact.relation)
        if entry is None or entry[1] != fact.arity:
            return False
        where = " AND ".join("c%d=?" % i for i in range(fact.arity))
        row = tuple(encode_value(a.value) for a in fact.args)  # type: ignore[union-attr]
        with self._lock:
            return (
                self._conn.execute(
                    "SELECT 1 FROM %s WHERE %s LIMIT 1" % (entry[0], where), row
                ).fetchone()
                is not None
            )

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
        plan = self._pattern_sql(pattern)
        if plan is None:
            return
        tbl, where, params = plan
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM %s WHERE %s" % (tbl, where), params
            ).fetchall()
        for row in rows:
            yield self._decode_row(pattern.relation, row)

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
    # Whole-tree Yannakakis pushdown
    # ------------------------------------------------------------------
    #: Capability flag :func:`repro.relalg.config.choose_kernel` checks.
    supports_sql_yannakakis = True

    def sql_yannakakis(
        self,
        atoms: Sequence[Atom],
        links: Sequence[Tuple[int, int]],
        frees: Iterable[Variable],
        exists_only: bool = False,
        seed: Optional[Relation] = None,
    ):
        """The whole Yannakakis join plan as **one** SQL statement.

        ``atoms`` are the join-tree nodes, ``links`` its child→parent
        edges, ``frees`` the output variables.  The statement is a
        ``WITH`` chain of four CTE layers mirroring the algorithm:

        * ``s<i>`` — the scan of atom ``i``: its distinct variable
          bindings, columns ``v0, v1, …`` aligned with the variables
          sorted by repr (ground atoms become the one-column Boolean
          relation ``SELECT DISTINCT 1``; atoms over an absent relation
          become a correctly-shaped empty relation);
        * ``u<i>`` — the bottom-up sweep: ``s<i>`` filtered by an
          ``EXISTS`` per child (leaves are skipped — their ``u`` *is*
          their ``s``);
        * ``d<i>`` — the top-down sweep: ``u<i>`` filtered by an
          ``EXISTS`` against the parent's ``d`` (the root's ``d`` is its
          ``u``);
        * ``a<i>`` — the join phase: ``d<i>`` joined with the children's
          ``a`` relations and projected (``DISTINCT``) onto the free
          variables plus the interface to the parent.  The running-
          intersection property of the join tree guarantees every
          variable shared between sibling subtrees occurs in atom ``i``,
          so all cross-child equalities route through ``t0`` and each
          kept column has a unique source.

        ``seed`` (a non-empty relation over some of ``frees``) keeps only
        the answers that join with it.  Its rows become a ``VALUES`` CTE
        named ``seed``: every scan sharing a variable with it gains an
        ``IN (SELECT … FROM seed)`` on the shared columns, and the final
        ``SELECT`` one over all its columns (a scan only sees the seed
        variables of its own atom).
        Past SQLite's bound-parameter limit the statement runs unseeded
        and the semi-join happens here, on the decoded answers.

        Returns the decoded answers as a
        :class:`~repro.relalg.relation.Relation` (columns sorted by
        variable repr), or — with ``exists_only``, the Boolean fast
        path — whether the root survives the bottom-up sweep (the
        ``d``/``a`` layers are then not even generated).
        """
        n = len(atoms)
        root, children, parent_of, order = join_tree_shape(links, n)

        atom_vars: List[List[Variable]] = [
            sorted(a.variables(), key=repr) for a in atoms
        ]
        var_sets = [set(vs) for vs in atom_vars]

        ctes: List[Tuple[str, str]] = []
        params: List[str] = []
        #: current CTE name per node, advanced layer by layer
        rel = ["s%d" % i for i in range(n)]

        # --- seed --------------------------------------------------------
        if seed is not None and exists_only:
            raise ReproError("sql_yannakakis: a seed needs the answers, not exists_only")
        seed_column: Dict[Variable, int] = {}
        if seed is not None and seed.schema:
            constants = sum(
                isinstance(arg, Constant) for a in atoms for arg in a.args
            )
            width = len(seed.schema)
            if len(seed.rows) * width + constants <= self._max_parameters:
                seed_column = {v: j for j, v in enumerate(seed.schema)}
                params.extend(
                    encode_value(c.value) for row in seed.rows for c in row
                )
                ctes.append((
                    "seed(%s)" % ", ".join("k%d" % j for j in range(width)),
                    "VALUES %s" % ", ".join(
                        ["(%s)" % ", ".join("?" * width)] * len(seed.rows)
                    ),
                ))

        def joins_seed(column_of: Dict[Variable, str]) -> str:
            """Membership of ``column_of``'s columns (SQL column per
            variable) in the seed, on the variables the two share."""
            shared = [v for v in column_of if v in seed_column]
            return "(%s) IN (SELECT %s FROM seed)" % (
                ", ".join(column_of[v] for v in shared),
                ", ".join("k%d" % seed_column[v] for v in shared),
            )

        # --- scans -----------------------------------------------------
        for i, a in enumerate(atoms):
            vs = atom_vars[i]
            plan = self._pattern_sql(a)
            if plan is None:
                cols = ", ".join(
                    "NULL AS v%d" % j for j in range(len(vs))
                ) or "1 AS one"
                body = "SELECT %s WHERE 0" % cols
            else:
                tbl, where, scan_params = plan
                params.extend(scan_params)
                if vs:
                    pos_of = {
                        v: next(p for p, arg in enumerate(a.args) if arg == v)
                        for v in vs
                    }
                    select = ", ".join(
                        "c%d AS v%d" % (pos_of[v], j) for j, v in enumerate(vs)
                    )
                    if not seed_column.keys().isdisjoint(vs):
                        where += " AND " + joins_seed(
                            {v: "c%d" % pos_of[v] for v in vs}
                        )
                else:
                    select = "1 AS one"
                body = "SELECT DISTINCT %s FROM %s WHERE %s" % (
                    select, tbl, where,
                )
            ctes.append((rel[i], body))

        # --- bottom-up sweep -------------------------------------------
        for node in reversed(order):
            if not children[node]:
                continue
            conditions: List[str] = []
            for child in children[node]:
                shared = [v for v in atom_vars[node] if v in var_sets[child]]
                sub = "SELECT 1 FROM %s" % rel[child]
                if shared:
                    sub += " WHERE " + " AND ".join(
                        "%s.v%d = t.v%d"
                        % (
                            rel[child],
                            atom_vars[child].index(v),
                            atom_vars[node].index(v),
                        )
                        for v in shared
                    )
                conditions.append("EXISTS (%s)" % sub)
            ctes.append(
                (
                    "u%d" % node,
                    "SELECT * FROM %s t WHERE %s"
                    % (rel[node], " AND ".join(conditions)),
                )
            )
            rel[node] = "u%d" % node

        if exists_only:
            sql = "WITH %s SELECT EXISTS (SELECT 1 FROM %s)" % (
                ", ".join("%s AS (%s)" % (name, body) for name, body in ctes),
                rel[root],
            )
            with self._lock:
                return bool(self._conn.execute(sql, params).fetchone()[0])

        # --- top-down sweep --------------------------------------------
        for node in order:
            if node == root:
                continue
            parent = parent_of[node]
            shared = [v for v in atom_vars[node] if v in var_sets[parent]]
            sub = "SELECT 1 FROM %s" % rel[parent]
            if shared:
                sub += " WHERE " + " AND ".join(
                    "%s.v%d = t.v%d"
                    % (
                        rel[parent],
                        atom_vars[parent].index(v),
                        atom_vars[node].index(v),
                    )
                    for v in shared
                )
            ctes.append(
                (
                    "d%d" % node,
                    "SELECT * FROM %s t WHERE EXISTS (%s)" % (rel[node], sub),
                )
            )
            rel[node] = "d%d" % node

        # --- join phase ------------------------------------------------
        subtree: List[set] = [set(vs) for vs in var_sets]
        for node in reversed(order):
            for child in children[node]:
                subtree[node] |= subtree[child]
        free_set = set(frees)
        a_schema: List[List[Variable]] = [[] for _ in range(n)]
        for node in reversed(order):
            if node == root:
                keep = free_set & subtree[node]
            else:
                keep = (free_set & subtree[node]) | (
                    subtree[node] & var_sets[parent_of[node]]
                )
            a_schema[node] = sorted(keep, key=repr)
            source: List[str] = ["%s t0" % rel[node]]
            for k, child in enumerate(children[node]):
                alias = "t%d" % (k + 1)
                join_on = [v for v in a_schema[child] if v in var_sets[node]]
                condition = " AND ".join(
                    "%s.v%d = t0.v%d"
                    % (alias, a_schema[child].index(v), atom_vars[node].index(v))
                    for v in join_on
                ) or "1=1"
                source.append(
                    "JOIN a%d %s ON %s" % (child, alias, condition)
                )
            columns: List[str] = []
            for j, v in enumerate(a_schema[node]):
                if v in var_sets[node]:
                    columns.append("t0.v%d AS v%d" % (atom_vars[node].index(v), j))
                else:
                    # Unique by the running-intersection property.
                    k, child = next(
                        (k, c)
                        for k, c in enumerate(children[node])
                        if v in subtree[c]
                    )
                    columns.append(
                        "t%d.v%d AS v%d"
                        % (k + 1, a_schema[child].index(v), j)
                    )
            ctes.append(
                (
                    "a%d" % node,
                    "SELECT DISTINCT %s FROM %s"
                    % (", ".join(columns) or "1 AS one", " ".join(source)),
                )
            )
            rel[node] = "a%d" % node

        out_schema = a_schema[root]
        sql = "WITH %s SELECT * FROM %s" % (
            ", ".join("%s AS (%s)" % (name, body) for name, body in ctes),
            rel[root],
        )
        if seed_column:
            sql += " WHERE " + joins_seed(
                {v: "%s.v%d" % (rel[root], j) for j, v in enumerate(out_schema)}
            )
        with self._lock:
            rows = self._conn.execute(sql, params).fetchall()
        if not out_schema:
            return Relation((), [()] if rows else [])
        answers = Relation(
            out_schema,
            [tuple(Constant(decode_value(text)) for text in row) for row in rows],
        )
        if seed is not None and not seed_column:
            return semijoin(answers, seed)
        return answers

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Snapshot the current state into the SQLite file at ``path``
        (overwriting it) via the online backup API."""
        target = os.path.abspath(path)
        if os.path.exists(target):
            os.remove(target)
        with self._lock:
            dest = sqlite3.connect(target)
            try:
                with dest:
                    self._conn.backup(dest)
            finally:
                dest.close()

    @classmethod
    def open(cls, path: str, schema: Optional[Schema] = None) -> "SQLiteBackend":
        """Resume the on-disk database at ``path`` (same ``backend_id``
        and ``data_version`` it was saved with, so result-cache lineage
        survives the round trip)."""
        if not os.path.exists(path):
            raise ReproError("no sqlite database at %s" % path)
        return cls(schema=schema, path=path)

    def close(self) -> None:
        """Close the underlying connection (further use is an error)."""
        with self._lock:
            self._conn.close()

    # ------------------------------------------------------------------
    # Copy / pickling
    # ------------------------------------------------------------------
    def copy(self) -> "SQLiteBackend":
        """An independent in-memory copy (schema, facts, and version
        carry over; the copy gets its own ``backend_id``)."""
        clone = SQLiteBackend(
            schema=self._schema if self._explicit_schema else None
        )
        clone.update(self.facts())
        with clone._lock, clone._conn:
            clone._version = self._version
            clone._conn.execute(
                "UPDATE %s SET value=? WHERE key='data_version'" % _META,
                (str(self._version),),
            )
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


def _restore_sqlite_backend(path, facts, schema, version):
    if path is not None:
        return SQLiteBackend(schema=schema, path=path)
    backend = SQLiteBackend(facts, schema=schema)
    with backend._lock, backend._conn:
        backend._version = version
        backend._conn.execute(
            "UPDATE %s SET value=? WHERE key='data_version'" % _META,
            (str(version),),
        )
    return backend
