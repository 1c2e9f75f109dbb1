"""Unit tests for repro.storage: protocol, SQLite backend, persistence,
SQL pushdown, and pickling."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import Schema, atom
from repro.core.cq import ConjunctiveQuery, cq
from repro.core.database import Database
from repro.core.mappings import Mapping
from repro.core.terms import Constant, Variable
from repro.cqalgs.yannakakis import (
    evaluate_acyclic,
    relation_with_join_tree,
    satisfiable_with_join_tree,
)
from repro.engine import Session
from repro.exceptions import (
    NotGroundError,
    ReproError,
    ResourceBudgetExceeded,
    SchemaError,
)
from repro.relalg.config import MODES, force_kernels
from repro.relalg.relation import from_mappings, scan, to_mappings
from repro.storage import (
    BACKENDS,
    MemoryBackend,
    SQLiteBackend,
    StorageBackend,
    to_backend,
)
from repro.storage.sqlite import decode_value, encode_value
from repro.telemetry.resources import ResourceBudget
from repro.workloads.generators import random_database, random_wdpt

FACTS = [atom("E", 1, 2), atom("E", 2, 3), atom("E", 2, 2), atom("U", 1)]


@pytest.fixture(params=sorted(BACKENDS))
def db(request):
    return BACKENDS[request.param](FACTS)


# ---------------------------------------------------------------------------
# match against a brute-force filter
# ---------------------------------------------------------------------------
def _unifies(pattern, fact):
    """Definition of ``match``, fact by fact: same relation and arity,
    constants equal, one value per variable."""
    if pattern.relation != fact.relation or len(pattern.args) != len(fact.args):
        return False
    binding = {}
    for want, have in zip(pattern.args, fact.args):
        if isinstance(want, Constant):
            if want != have:
                return False
        elif binding.setdefault(want, have) != have:
            return False
    return True


_TERMS = st.sampled_from([0, 1, 2, "a", "?x", "?y", "?z"])
_PATTERNS = st.one_of(
    st.builds(atom, st.sampled_from(["E", "T"]), _TERMS, _TERMS, _TERMS),
    st.builds(atom, st.sampled_from(["E", "F", "Z"]), _TERMS, _TERMS),
)
_VALUES = st.sampled_from([0, 1, 2, "a"])
_GROUND = st.one_of(
    st.builds(atom, st.just("T"), _VALUES, _VALUES, _VALUES),
    st.builds(atom, st.sampled_from(["E", "F"]), _VALUES, _VALUES),
)


@pytest.mark.parametrize("kind", sorted(BACKENDS))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    facts=st.lists(_GROUND, max_size=25),
    gone=st.lists(_GROUND, max_size=10),
    patterns=st.lists(_PATTERNS, min_size=1, max_size=12),
)
def test_match_is_a_filter_over_facts(kind, facts, gone, patterns):
    """Any mix of constants, repeated variables, ground patterns, a wrong
    arity (``E``/3) and an unknown relation — before and after facts
    leave the posting lists (some emptying a posting, a relation or the
    store), and after half of them come back."""
    db = BACKENDS[kind](facts)
    alive = set(facts)
    for removed, added in ((), ()), (gone, ()), ((), gone[::2]):
        for fact in removed:
            assert db.discard(fact) is (fact in alive)
            alive.discard(fact)
        for fact in added:
            assert db.add(fact) is (fact not in alive)
            alive.add(fact)
        decode = (lambda cell: cell) if db.codec is None else db.codec.decode
        for pattern in patterns:
            expected = sorted(f for f in alive if _unifies(pattern, f))
            assert sorted(db.match(pattern)) == expected, pattern
            assert db.match_count(pattern) == len(expected), pattern
            assert db.match_bound(pattern) >= len(expected), pattern
            width = len(pattern.args)  # cells by argument position, no further
            rows = sorted(tuple(map(decode, row[:width])) for row in db.rows(pattern))
            assert rows == sorted(f.args for f in expected), pattern
        # The index after any history is the index of a fresh load.
        rebuilt = _state(BACKENDS[kind](alive))
        assert rebuilt[0] == len(alive)
        for same in (db, db.copy(), pickle.loads(pickle.dumps(db))):
            assert _state(same) == rebuilt


def _state(db):
    """Everything a store says about its contents, order-insensitively."""
    return (
        len(db),
        sorted(db),
        {name: sorted(db.facts(name)) for name in sorted(db.relations())},
        db.active_domain(),
        db.facts("Z"),
    )


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
def test_constants_the_store_has_never_seen(kind):
    """A pattern constant no fact holds matches nothing, on every read
    path — and reading never writes: the term dictionary (where the
    backend has one) is as long after a thousand such queries as before."""
    x, y = Variable("x"), Variable("y")
    with Session(FACTS, backend=kind, cache=False) as session:
        db = session.database
        terms = None if db.codec is None else len(db.codec)
        for i in range(1000):
            never = "never-%d" % i
            pattern = atom("E", never, "?y")
            assert db.match_bound(pattern) == db.match_count(pattern) == 0
            assert list(db.rows(pattern)) == list(db.match(atom("E", "?x", never))) == []
            assert atom("E", 1, never) not in db and not db.discard(atom("E", never, 2))
            for mode in MODES if i % 100 == 0 else ():
                with force_kernels(mode):
                    assert len(scan(pattern, db)) == 0
                    assert not satisfiable_with_join_tree([pattern], [], db)
                    query = cq(["?x"], [atom("E", "?x", "?y"), atom("E", "?y", never)])
                    assert session.planner.evaluate_cq(query, db) == frozenset()
                    seed = from_mappings([Mapping({y: never}), Mapping({y: 2})], [y], db)
                    found = relation_with_join_tree([atom("E", "?x", "?y")], [], db, [x, y], seed)
                    assert to_mappings(found) == {Mapping({x: 1, y: 2}), Mapping({x: 2, y: 2})}
        assert terms is None or len(db.codec) == terms


@pytest.mark.parametrize("kind", sorted(BACKENDS))
def test_row_budget_is_enforced_and_accounted(kind):
    """``hard_intermediate_rows`` kills a query over either store, and a
    generous budget returns the memory answers with the rows accounted.
    On the columnar kernels: the SQL pushdown's Boolean statement accounts
    no rows (ROADMAP item 2a), a hole this test leaves named."""
    relations = ("E", "F")
    facts = random_database(30, relations=relations, domain_size=4, seed=3).facts()
    query = random_wdpt(
        depth=2, fanout=2, atoms_per_node=1, fresh_vars_per_node=1,
        relations=relations, seed=3,
    )
    expected = Session(MemoryBackend(facts), cache=False).query(query).answers
    generous = ResourceBudget(hard_intermediate_rows=10 ** 6)
    tiny = ResourceBudget(hard_intermediate_rows=1)
    with force_kernels("columnar"):
        with Session(facts, backend=kind, cache=False, budgets=generous) as session:
            result = session.query(query)
            assert result.answers == expected
            assert result.resources.peak_intermediate_rows > 0
        with Session(facts, backend=kind, cache=False, budgets=tiny) as session:
            with pytest.raises(ResourceBudgetExceeded):
                session.query(query)


# ---------------------------------------------------------------------------
# Protocol conformance (both backends through one suite)
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_is_storage_backend(self, db):
        assert isinstance(db, StorageBackend)

    def test_database_alias_is_memory_backend(self):
        assert issubclass(Database, MemoryBackend)
        assert isinstance(Database(FACTS), StorageBackend)

    def test_len_iter_contains(self, db):
        assert len(db) == 4
        assert set(db) == set(FACTS)
        assert atom("E", 1, 2) in db
        assert atom("E", 9, 9) not in db

    def test_match_with_constants_and_repeats(self, db):
        assert sorted(db.match(atom("E", 2, "?y"))) == [
            atom("E", 2, 2), atom("E", 2, 3),
        ]
        assert list(db.match(atom("E", "?x", "?x"))) == [atom("E", 2, 2)]
        assert db.match_count(atom("E", "?x", "?y")) == 3
        assert list(db.match(atom("Z", "?x"))) == []
        assert list(db.match(atom("E", "?x", "?y", "?z"))) == []

    def test_relations_facts_active_domain(self, db):
        assert db.relations() == {"E", "U"}
        assert len(db.facts("E")) == 3
        assert db.active_domain() == {Constant(1), Constant(2), Constant(3)}

    def test_add_remove_roundtrip(self, db):
        assert db.add(atom("E", 7, 8))
        assert not db.add(atom("E", 7, 8))
        db.remove(atom("E", 7, 8))
        assert atom("E", 7, 8) not in db
        with pytest.raises(KeyError):
            db.remove(atom("E", 7, 8))

    def test_version_bumps_on_mutation_only(self, db):
        v = db.data_version
        db.add(atom("E", 7, 8))
        assert db.data_version == v + 1
        db.add(atom("E", 7, 8))  # duplicate: no-op
        assert db.data_version == v + 1
        db.discard(atom("E", 7, 8))
        assert db.data_version == v + 2
        db.discard(atom("E", 7, 8))  # absent: no-op
        assert db.data_version == v + 2

    def test_add_many_bumps_version_once(self, db):
        before = db.data_version
        batch = [atom("E", 7, 8), atom("E", 8, 9), atom("F", 1, 1)]
        assert db.add_many(batch) == 3
        assert db.data_version == before + 1
        # A batch of pure duplicates is a no-op: no new version, so
        # version-stamped caches stay valid.
        assert db.add_many(batch) == 0
        assert db.data_version == before + 1

    def test_non_ground_rejected(self, db):
        with pytest.raises(NotGroundError):
            db.add(atom("E", "?x", 1))

    def test_copy_independent_and_versioned(self, db):
        clone = db.copy()
        assert clone == db
        assert clone.data_version == db.data_version
        assert clone.backend_id != db.backend_id
        clone.add(atom("E", 9, 9))
        assert len(db) == 4 and len(clone) == 5

    def test_unhashable(self, db):
        with pytest.raises(TypeError):
            hash(db)

    def test_pickle_roundtrip(self, db):
        restored = pickle.loads(pickle.dumps(db))
        assert restored == db
        assert restored.data_version == db.data_version
        assert type(restored) is type(db)


class TestCrossBackend:
    def test_equality_across_kinds(self):
        mem, sql = MemoryBackend(FACTS), SQLiteBackend(FACTS)
        assert mem == sql
        assert sql == mem
        sql.add(atom("E", 9, 9))
        assert mem != sql

    def test_to_backend_converts_and_passes_through(self):
        mem = MemoryBackend(FACTS)
        assert to_backend(mem, "memory") is mem
        sql = to_backend(mem, "sqlite")
        assert isinstance(sql, SQLiteBackend) and sql == mem
        back = to_backend(sql, "memory")
        assert isinstance(back, MemoryBackend) and back == mem

    def test_to_backend_unknown_kind(self):
        with pytest.raises(ValueError):
            to_backend(FACTS, "parquet")


# ---------------------------------------------------------------------------
# Value codec
# ---------------------------------------------------------------------------
class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [0, -17, 2 ** 70, "", "hello", "i123", True, False, None,
         3.5, float("inf"), (1, "two"), frozenset({1, 2})],
    )
    def test_roundtrip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_tags_are_injective_across_types(self):
        # 1, "1", True, "i1" must all encode distinctly.
        encoded = {encode_value(v) for v in (1, "1", True, "i1")}
        assert len(encoded) == 4


# ---------------------------------------------------------------------------
# SQLite specifics: schema, persistence, pushdown
# ---------------------------------------------------------------------------
class TestSQLiteBackend:
    def test_explicit_schema_enforced(self):
        db = SQLiteBackend(schema=Schema({"E": 2}))
        db.add(atom("E", 1, 2))
        with pytest.raises(SchemaError):
            db.add(atom("F", 1))

    def test_hostile_relation_names_are_safe(self):
        # Relation names never reach SQL identifiers (catalog indirection).
        name = 'x"; DROP TABLE r0; --'
        db = SQLiteBackend([atom(name, 1)])
        assert list(db.match(atom(name, "?x"))) == [atom(name, 1)]
        assert db.relations() == {name}

    def test_save_open_roundtrip(self, tmp_path):
        path = str(tmp_path / "facts.sqlite")
        db = SQLiteBackend(FACTS)
        db.add(atom("E", 7, 8))
        db.save(path)
        restored = SQLiteBackend.open(path)
        assert restored == db
        assert restored.data_version == db.data_version
        assert restored.backend_id == "sqlite:%s" % path
        restored.close()

    def test_on_disk_resume_keeps_identity(self, tmp_path):
        path = str(tmp_path / "facts.sqlite")
        db = SQLiteBackend(FACTS, path=path)
        version, backend_id = db.data_version, db.backend_id
        db.close()
        resumed = SQLiteBackend.open(path)
        assert resumed.data_version == version
        assert resumed.backend_id == backend_id
        assert set(resumed) == set(FACTS)
        resumed.close()

    def test_open_missing_file_raises(self, tmp_path):
        with pytest.raises(ReproError):
            SQLiteBackend.open(str(tmp_path / "absent.sqlite"))

    def test_pickled_on_disk_backend_reopens_file(self, tmp_path):
        path = str(tmp_path / "facts.sqlite")
        db = SQLiteBackend(FACTS, path=path)
        restored = pickle.loads(pickle.dumps(db))
        assert restored.backend_id == db.backend_id
        assert restored == db
        restored.close()
        db.close()

    def test_update_is_one_transaction_with_a_bump_per_fact(self, tmp_path):
        session = Session(FACTS, path=str(tmp_path / "facts.sqlite"))
        db = session.database
        version = db.data_version
        statements = []
        db._conn.set_trace_callback(statements.append)
        triples = [("s%d" % i, "p", "o") for i in range(50)] + [("s0", "p", "o")]
        assert session.add_triples(triples) == 50
        db._conn.set_trace_callback(None)
        assert [s for s in statements if s in ("BEGIN", "COMMIT", "ROLLBACK")] == [
            "BEGIN", "COMMIT",
        ]
        assert not db._conn.in_transaction
        assert db.data_version == version + 50
        db.close()
        reopened = SQLiteBackend.open(str(tmp_path / "facts.sqlite"))
        assert reopened.data_version == version + 50 and len(reopened) == len(FACTS) + 50
        reopened.close()

    def test_update_that_raises_leaves_nothing_behind(self, tmp_path):
        path = str(tmp_path / "facts.sqlite")
        db = SQLiteBackend(FACTS, path=path)
        version, before = db.data_version, set(db)
        batch = [atom("New", i, i) for i in range(50)]
        batch[29] = atom("New", "?x", 29)
        with pytest.raises(NotGroundError):
            db.update(batch)
        assert (db.data_version, set(db)) == (version, before)
        assert "New" not in db.schema and not db._conn.in_transaction
        # The rolled-back relation can be created again, under its table name.
        assert db.add(atom("New", 1, 2, 3))
        assert db.data_version == version + 1
        db.close()
        reopened = SQLiteBackend.open(path)
        assert (reopened.data_version, set(reopened)) == (
            version + 1, before | {atom("New", 1, 2, 3)},
        )
        reopened.close()


class TestSQLPushdown:
    def _graph(self):
        facts = [atom("E", i, (i * 3 + 1) % 7) for i in range(7)]
        facts += [atom("E", i, (i + 1) % 5) for i in range(5)]
        facts += [atom("L", i, "c%d" % (i % 2)) for i in range(5)]
        facts += [atom("U", i) for i in (0, 2, 4)]
        return facts

    @pytest.mark.parametrize(
        "free,atoms",
        [
            (("?x", "?z"), [atom("E", "?x", "?y"), atom("E", "?y", "?z")]),
            (("?x", "?c"),
             [atom("E", "?x", "?y"), atom("L", "?y", "?c"), atom("U", "?x")]),
            (("?x",), [atom("E", "?x", "?x")]),
            ((), [atom("E", "?x", "?y"), atom("L", "?y", "?c")]),
            (("?x",), [atom("Z", "?x", "?y")]),
        ],
    )
    def test_matches_python_yannakakis(self, free, atoms):
        q = ConjunctiveQuery(free, atoms)
        facts = self._graph()
        assert evaluate_acyclic(q, SQLiteBackend(facts)) == evaluate_acyclic(
            q, MemoryBackend(facts)
        )
