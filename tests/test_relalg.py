"""The columnar relation layer: per-kernel unit tests and cross-path
parity properties.

The unit half pins down the edge semantics of the kernels (empty right
side of a semi-join, no shared variables, Boolean relations over the
empty schema).  The property half drives random acyclic CQs and WDPTs
through the kernels over the memory and the SQLite backend (and Boolean
checks through SQLite's SQL pushdown) and requires the answer sets of
the independent references, the backtracking search and the literal
Definition 2 evaluator.
"""

import importlib

import pytest

from repro.core.atoms import Atom, atom
from repro.core.database import Database
from repro.core.mappings import Mapping, maximal_mappings
from repro.core.terms import Constant, Variable
from repro.cqalgs.naive import evaluate_naive, satisfiable
from repro.cqalgs.yannakakis import (
    evaluate_acyclic,
    relation_with_join_tree,
    satisfiable_with_join_tree,
)
from repro.exceptions import ReproError
from repro.hypergraphs.gyo import join_tree_of_atoms, join_tree_shape
from repro.relalg import (
    Relation,
    dedup,
    from_mappings,
    group_by,
    hash_join,
    project,
    scan,
    semijoin,
    to_mappings,
)

# The module itself: ``repro.core`` exports a ``terms`` function.
_terms = importlib.import_module("repro.core.terms")

X, Y, Z = Variable("x"), Variable("y"), Variable("z")
a, b, c = Constant("a"), Constant("b"), Constant("c")


def _rel(schema, rows):
    return Relation(tuple(schema), [tuple(r) for r in rows])


# ---------------------------------------------------------------------------
# Kernel unit tests: the edge cases the parity suite relies on
# ---------------------------------------------------------------------------
def test_scan_projects_and_dedups_repeated_variables():
    db = Database()
    db.add(Atom("E", ("a", "a")))
    db.add(Atom("E", ("a", "b")))
    db.add(Atom("E", ("b", "b")))
    rel = scan(atom("E", "?x", "?x"), db)
    assert rel.schema == (X,)
    assert len(rel.rows) == 2
    assert to_mappings(rel) == {Mapping({X: a}), Mapping({X: b})}


def test_scan_ground_pattern_is_boolean():
    db = Database()
    db.add(Atom("E", ("a", "b")))
    assert scan(atom("E", "a", "b"), db).rows == [()]
    assert scan(atom("E", "b", "a"), db).rows == []


def test_semijoin_empty_right_empties_left_even_without_shared_vars():
    left = _rel([X], [(a,), (b,)])
    assert semijoin(left, _rel([Z], [])).rows == []


def test_semijoin_no_shared_vars_keeps_left_unchanged():
    left = _rel([X], [(a,), (b,)])
    out = semijoin(left, _rel([Z], [(c,)]))
    assert out.schema == (X,) and sorted(out.rows) == [(a,), (b,)]


def test_semijoin_filters_on_multi_variable_key():
    left = _rel([X, Y, Z], [(a, b, c), (a, c, c), (b, b, a)])
    right = _rel([Y, X], [(b, a), (c, b)])
    out = semijoin(left, right)
    assert out.rows == [(a, b, c)]


def test_semijoin_against_boolean_relations():
    left = _rel([X], [(a,)])
    assert semijoin(left, Relation((), [()])).rows == [(a,)]
    assert semijoin(left, Relation((), [])).rows == []


def test_hash_join_schema_and_rows():
    left = _rel([X, Y], [(a, b), (b, c)])
    right = _rel([Y, Z], [(b, c), (b, a), (a, a)])
    out = hash_join(left, right)
    assert out.schema == (X, Y, Z)
    assert sorted(out.rows) == [(a, b, a), (a, b, c)]


def test_hash_join_without_shared_vars_is_cross_product():
    out = hash_join(_rel([X], [(a,), (b,)]), _rel([Z], [(c,)]))
    assert out.schema == (X, Z)
    assert sorted(out.rows) == [(a, c), (b, c)]


def test_hash_join_with_empty_side_is_empty():
    assert hash_join(_rel([X], []), _rel([X], [(a,)])).rows == []
    assert hash_join(_rel([X], [(a,)]), _rel([X], [])).rows == []


def test_project_dedups_and_handles_missing_variables():
    rel = _rel([X, Y], [(a, b), (a, c)])
    out = project(rel, [X, Z])
    assert out.schema == (X,)
    assert list(out.rows) == [(a,)]


def test_project_onto_empty_schema_is_boolean():
    assert list(project(_rel([X], [(a,)]), []).rows) == [()]
    assert list(project(_rel([X], []), []).rows) == []


def test_dedup_removes_duplicate_rows():
    rel = Relation((X,), [(a,), (a,), (b,)])
    assert sorted(dedup(rel).rows) == [(a,), (b,)]


def test_mapping_round_trip():
    mappings = frozenset(
        [Mapping({X: a, Y: b}), Mapping({X: b, Y: c})]
    )
    rel = from_mappings(mappings, (X, Y))
    assert to_mappings(rel) == mappings
    assert to_mappings(Relation((), [()])) == frozenset([Mapping()])
    assert to_mappings(Relation((), [])) == frozenset()


# ---------------------------------------------------------------------------
# Cells: what is between a scan and the Mapping boundary
# ---------------------------------------------------------------------------
def test_relations_over_different_codecs_do_not_mix():
    """Codes of two dictionaries, or a code and a ``Constant``, must not
    meet in a kernel: a loud error, never an empty or wrong join."""
    facts = [Atom("E", ("a", "b")), Atom("E", ("b", "c"))]
    one, other = Database(facts), Database(reversed(facts))
    scanned = scan(atom("E", "?x", "?y"), one)
    elsewhere = scan(atom("E", "?y", "?z"), other)
    by_hand = _rel([Y, Z], [(b, c)])
    for kernel in (semijoin, hash_join):
        for stranger in (elsewhere, by_hand):
            for left, right in ((scanned, stranger), (stranger, scanned)):
                with pytest.raises(ReproError) as error:
                    kernel(left, right)
                assert one.backend_id in str(error.value)
                assert (other.backend_id in str(error.value)) is (stranger is elsewhere)
    with pytest.raises(ReproError, match=one.backend_id):
        scan(atom("E", "?x", "?y"), other, seed=scanned)
    # The way across is the Mapping boundary.
    moved = from_mappings(to_mappings(elsewhere), elsewhere.schema, one)
    assert len(hash_join(scanned, moved)) == 1


class _TermCalls:
    """Counts new terms (each files one entry in an interning table) and
    ``Atom.__init__`` calls while installed."""

    def __init__(self, monkeypatch):
        self.counts = {"new": 0, "atom": 0}
        monkeypatch.setattr(_terms, "_Entry", self._counting(_terms._Entry, "new"))
        monkeypatch.setattr(Atom, "__init__", self._counting(Atom.__init__, "atom"))

    def _counting(self, method, key):
        def counted(*args):
            self.counts[key] += 1
            return method(*args)
        return counted


def test_no_term_is_hashed_or_compared_between_scan_and_boundary(monkeypatch):
    """Structural, not wall-clock: terms hash and compare with
    ``object``'s C slots (they are hash-consed), and a join-heavy CQ over
    the memory backend makes no term and no atom between its first scan
    and the returned relation — with or without a pattern constant."""
    for cls in (Variable, Constant):
        assert cls.__hash__ is object.__hash__ and cls.__eq__ is object.__eq__
    db = random_graph_database(40, 160, seed=3)
    atoms = tuple(sorted(path_cq(5).atoms))
    links = join_tree_of_atoms(atoms)
    frees = [Variable("x0"), Variable("x5")]
    anchored = tuple(a.substitute({Variable("x0"): Constant(7)}) for a in atoms)
    calls = _TermCalls(monkeypatch)
    tree = join_tree_shape(links, len(atoms))
    answers = relation_with_join_tree(atoms, tree, db, frees)
    assert len(answers) > 100
    assert len(relation_with_join_tree(anchored, tree, db, frees[1:])) > 1
    assert calls.counts == {"new": 0, "atom": 0}


def test_an_opt_extension_builds_no_atom_per_interface_key(monkeypatch):
    """The ``eval_opt`` shape: a child label seeded with the interface
    keys of its parent's rows runs on the compiled probe — no
    ``substitute``, no ``Atom``, no new term per key."""
    facts = [atom("works_in", e, e % 5) for e in range(150)]
    facts += [atom("phone", e, 1000 + i) for e in range(0, 1500, 3) for i in (0, 1)]
    db = Database(facts)
    e = Variable("e")
    works_in, phone = atom("works_in", "?e", "?d"), atom("phone", "?e", "?p")
    calls = _TermCalls(monkeypatch)
    with tracing() as tracer:
        parent = scan(works_in, db)
        keys = project(parent, [e])
        assert len(keys) == 150 and len(keys) * db.probe_cost < db.match_bound(phone)
        child = relation_with_join_tree(
            [phone], join_tree_shape([], 1), db, [e, Variable("p")], seed=keys
        )
        groups = group_by(child, [e])
    (span,) = tracer.find("yannakakis.scan")
    assert span.attrs["seeded_by"] == ["seed"]
    assert span.attrs["facts_read"] == [len(child)] == [100]
    assert len(groups) == 50
    assert calls.counts == {"new": 0, "atom": 0}


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
def test_from_mappings_keeps_constants_the_store_never_saw(kind):
    """Packing for a database writes nothing into its dictionary: an
    unknown constant stays itself, joins with nothing scanned, is equal
    only to itself, and comes back out of ``to_mappings``."""
    with Session([atom("E", 1, 2), atom("E", 2, 3)], backend=kind) as session:
        db = session.database
        size = None if db.codec is None else len(db.codec)
        mappings = {
            Mapping({X: 1, Y: "never"}), Mapping({X: 2, Y: "seen"}),
            Mapping({X: "never", Y: 3}), Mapping({X: 2, Y: 3}),
        }
        packed = from_mappings(mappings, (X, Y), db)
        assert to_mappings(packed) == mappings
        # Three stored constants and two unknown ones: five distinct cells.
        assert len(set(packed.rows)) == 4
        assert len({cell for row in packed.rows for cell in row}) == 5
        scanned = scan(atom("E", "?x", "?y"), db)
        assert to_mappings(semijoin(packed, scanned)) == {Mapping({X: 2, Y: 3})}
        assert to_mappings(semijoin(scanned, project(packed, [X]))) == {
            Mapping({X: 1, Y: 2}), Mapping({X: 2, Y: 3}),
        }
        assert size is None or len(db.codec) == size


# ---------------------------------------------------------------------------
# Cross-path parity properties
# ---------------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.engine import Session  # noqa: E402
from repro.storage import SQLiteBackend  # noqa: E402
from repro.telemetry.tracer import tracing  # noqa: E402
from repro.wdpt.evaluation import evaluate_reference  # noqa: E402
from repro.wdpt.wdpt import wdpt_from_nested  # noqa: E402
from repro.workloads.generators import (
    path_cq,
    random_database,
    random_graph_database,
    random_wdpt,
    star_cq,
)
from tests.harness.generators import random_cq

RELATIONS = ("E", "F")


def _db(seed, n_facts=25, domain_size=4):
    return random_database(
        n_facts, relations=RELATIONS, domain_size=domain_size, seed=seed
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    left=st.lists(st.tuples(*[st.integers(0, 3)] * 3), max_size=8),
    right=st.lists(st.tuples(*[st.integers(0, 3)] * 3), max_size=8),
    left_schema=st.permutations("abx"),
    right_schema=st.sampled_from(["abc", "acd", "cde", "bad"]),
    widths=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    keep=st.sets(st.sampled_from("abcdex")),
)
def test_join_onto_kept_columns_is_join_then_project(
    left, right, left_schema, right_schema, widths, keep
):
    """``hash_join(l, r, keep)`` against ``project(hash_join(l, r), keep)``:
    empty sides, no shared variable, ``keep`` missing a join variable,
    zero-column sides and results."""
    left_schema = [Variable(name) for name in left_schema[: widths[0]]]
    right_schema = [Variable(name) for name in right_schema[: widths[1]]]
    l = dedup(_rel(left_schema, [row[: widths[0]] for row in left]))
    r = dedup(_rel(right_schema, [row[: widths[1]] for row in right]))
    keep = {Variable(name) for name in keep}
    fused, wide = hash_join(l, r, keep), project(hash_join(l, r), keep)
    assert fused.schema == wide.schema
    assert len(fused.rows) == len(set(fused.rows))
    assert set(fused.rows) == set(wide.rows)


def _acyclic_queries(seed, length, rays):
    queries = [path_cq(length), star_cq(rays), path_cq(length, frees=[])]
    q = random_cq(4, 4, relations=RELATIONS, seed=seed)
    if join_tree_of_atoms(tuple(sorted(q.atoms))) is not None:
        queries.append(q)
    return queries


@pytest.mark.parametrize("backend, boolean", [("sqlite", "sql"), ("memory", "columnar")])
def test_planned_kernel_is_the_kernel_that_runs(backend, boolean, monkeypatch):
    """The kernel the dispatch site picks, and names on the ``yannakakis``
    spans, is the one that runs: answers on the columnar kernels over
    every backend, a Boolean check whose open atoms share a variable as
    one SQL statement where the backend can decide it natively.  A spy on
    ``SQLiteBackend.sql_yannakakis`` agrees: an answer query never enters
    it, nor does an ``ask`` whose every check is bound down to single
    atoms (those are ``probe`` runs), ``Session.is_partial`` does (on
    SQLite)."""
    entered = []
    pushdown = SQLiteBackend.sql_yannakakis

    def spy(self, atoms, links):
        entered.append(len(atoms))
        return pushdown(self, atoms, links)

    monkeypatch.setattr(SQLiteBackend, "sql_yannakakis", spy)
    p = wdpt_from_nested(
        ([atom("E", "?x", "?y")], [([atom("F", "?y", "?z")], [])]),
        free_variables=["?x", "?z"],
    )
    facts = [atom("E", 1, 2), atom("E", 2, 3), atom("F", 2, 7)]
    with Session(facts, backend=backend, cache=False) as session:
        with tracing() as tracer:
            answers = session.query(p).answers
            session.query_maximal(p)
        assert answers and not entered
        assert {span.attrs["kernel"] for span in tracer.find("yannakakis")} == {"columnar"}
        with tracing() as tracer:
            assert session.ask(p, max(answers, key=len))
        routes = {span.attrs["engine"] for span in tracer.find("planner.satisfiable")}
        assert routes == {"probe"} and not list(tracer.find("yannakakis"))
        assert not entered
        with tracing() as tracer:  # E(1, ?y), F(?y, 7): ?y joins two atoms
            assert session.is_partial(p, max(answers, key=len))
        ran = {span.attrs["kernel"] for span in tracer.find("yannakakis")}
    assert ran == {boolean}
    assert bool(entered) is (boolean == "sql")


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10 ** 6),
    length=st.integers(min_value=1, max_value=4),
    rays=st.integers(min_value=1, max_value=3),
)
def test_columnar_legacy_sql_parity_on_acyclic_cqs(seed, length, rays):
    """The columnar kernels over the memory and the SQLite backend
    against the backtracking search."""
    db = _db(seed)
    lite = SQLiteBackend(db.facts())
    for q in _acyclic_queries(seed, length, rays):
        expected = evaluate_naive(q, db)
        assert evaluate_acyclic(q, db) == expected
        assert evaluate_acyclic(q, lite) == expected


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10 ** 6),
    length=st.integers(min_value=1, max_value=4),
)
def test_boolean_fast_path_parity(seed, length):
    db = _db(seed)
    lite = SQLiteBackend(db.facts())
    atoms = tuple(sorted(path_cq(length).atoms))
    links = join_tree_of_atoms(atoms)
    assert links is not None
    expected = satisfiable(atoms, db)
    tree = join_tree_shape(links, len(atoms))
    assert satisfiable_with_join_tree(atoms, tree, db) is expected
    # on SQLite this is the Boolean SQL pushdown
    assert satisfiable_with_join_tree(atoms, tree, lite) is expected


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_wdpt_evaluation_parity_across_kernel_modes(seed):
    """Both executors: answers on the columnar kernels over either
    backend, and ``ask`` — in SQL on SQLite — on each answer."""
    db = _db(seed, n_facts=15, domain_size=3)
    query = random_wdpt(
        depth=2,
        fanout=2,
        atoms_per_node=1,
        fresh_vars_per_node=1,
        relations=RELATIONS,
        seed=seed,
    )
    expected = evaluate_reference(query, db)
    expected_max = maximal_mappings(expected)
    for backend in ("memory", "sqlite"):
        session = Session(db.facts(), backend=backend, cache=False)
        assert session.query(query).answers == expected
        assert session.query_maximal(query).answers == expected_max
        assert all(session.ask(query, h) for h in sorted(expected, key=repr)[:3])
