"""The columnar relation layer: per-kernel unit tests and cross-path
parity properties.

The unit half pins down the edge semantics of the kernels (empty right
side of a semi-join, no shared variables, Boolean relations over the
empty schema).  The property half drives random acyclic CQs and WDPTs
through the ``columnar`` kernels and (on SQLite) the whole-tree SQL
pushdown and requires the answer sets of the independent references,
the backtracking search and the literal Definition 2 evaluator.
"""

import pytest

from repro.core.atoms import Atom, atom
from repro.core.database import Database
from repro.core.mappings import Mapping, maximal_mappings
from repro.core.terms import Constant, Variable
from repro.cqalgs.naive import evaluate_naive, satisfiable
from repro.cqalgs.yannakakis import evaluate_acyclic, satisfiable_with_join_tree
from repro.hypergraphs.gyo import join_tree_of_atoms
from repro.relalg import (
    Relation,
    dedup,
    from_mappings,
    hash_join,
    project,
    scan,
    semijoin,
    to_mappings,
)
from repro.relalg.config import (
    KERNELS_ENV,
    choose_kernel,
    force_kernels,
    kernel_mode,
)

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
    assert sorted(rel.rows) == [(a,), (b,)]


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
# Kernel selection policy
# ---------------------------------------------------------------------------
class _SQLCapable:
    supports_sql_yannakakis = True


def test_kernel_mode_reads_environment(monkeypatch):
    monkeypatch.delenv(KERNELS_ENV, raising=False)
    assert kernel_mode() == "auto"
    monkeypatch.setenv(KERNELS_ENV, "COLUMNAR")
    assert kernel_mode() == "columnar"
    for not_a_mode in ("vectorized", "legacy"):
        monkeypatch.setenv(KERNELS_ENV, not_a_mode)
        with pytest.raises(ValueError, match="not a kernel mode"):
            kernel_mode()


def test_force_kernels_overrides_environment(monkeypatch):
    monkeypatch.setenv(KERNELS_ENV, "auto")
    with force_kernels("columnar"):
        assert kernel_mode() == "columnar"
        with force_kernels("auto"):
            assert kernel_mode() == "auto"
        assert kernel_mode() == "columnar"
    assert kernel_mode() == "auto"
    for not_a_mode in ("nope", "legacy"):
        with pytest.raises(ValueError):
            with force_kernels(not_a_mode):
                pass


def test_choose_kernel_matrix():
    db = Database()
    with force_kernels("columnar"):
        assert choose_kernel(_SQLCapable()) == "columnar"
    with force_kernels("auto"):
        assert choose_kernel(db) == "columnar"
        assert choose_kernel(_SQLCapable()) == "sql"
        assert choose_kernel(None) == "columnar"  # a plan built without a database
    with pytest.raises(TypeError):
        choose_kernel(_SQLCapable(), None)  # the database and nothing else


# ---------------------------------------------------------------------------
# Cross-path parity properties
# ---------------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.engine import Session  # noqa: E402
from repro.storage import SQLiteBackend  # noqa: E402
from repro.telemetry.obslog import QueryLog  # noqa: E402
from repro.telemetry.tracer import tracing  # noqa: E402
from repro.wdpt.evaluation import evaluate_reference  # noqa: E402
from repro.wdpt.wdpt import wdpt_from_nested  # noqa: E402
from repro.workloads.generators import (  # noqa: E402
    path_cq,
    random_cq,
    random_database,
    random_wdpt,
    star_cq,
)

RELATIONS = ("E", "F")


def _db(seed, n_facts=25, domain_size=4):
    return random_database(
        n_facts, relations=RELATIONS, domain_size=domain_size, seed=seed
    )


def _acyclic_queries(seed, length, rays):
    queries = [path_cq(length), star_cq(rays), path_cq(length, frees=[])]
    q = random_cq(4, 4, relations=RELATIONS, seed=seed)
    if join_tree_of_atoms(tuple(sorted(q.atoms))) is not None:
        queries.append(q)
    return queries


@pytest.mark.parametrize("backend, expected", [("sqlite", "sql"), ("sharded", "dist")])
def test_planned_kernel_is_the_kernel_that_runs(backend, expected):
    """The kernel on the ``QueryPlan`` and the ``query.plan`` event is the
    one the ``yannakakis`` spans of the same query report."""
    p = wdpt_from_nested(
        ([atom("E", "?x", "?y")], [([atom("F", "?y", "?z")], [])]),
        free_variables=["?x", "?z"],
    )
    log = QueryLog()
    facts = [atom("E", 1, 2), atom("E", 2, 3), atom("F", 2, 7)]
    with force_kernels("auto"), Session(facts, obslog=log, backend=backend) as session:
        with tracing() as tracer:
            assert session.query(p).answers
        plan = session.planner.plan_cq(path_cq(1), session.database)
    (event,) = log.events("query.plan")
    ran = {span.attrs["kernel"] for span in tracer.find("yannakakis")}
    assert ran == {expected}
    assert event["kernel"] == plan.kernel == expected


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10 ** 6),
    length=st.integers(min_value=1, max_value=4),
    rays=st.integers(min_value=1, max_value=3),
)
def test_columnar_legacy_sql_parity_on_acyclic_cqs(seed, length, rays):
    db = _db(seed)
    lite = SQLiteBackend(db.facts())
    for q in _acyclic_queries(seed, length, rays):
        expected = evaluate_naive(q, db)
        with force_kernels("columnar"):
            assert evaluate_acyclic(q, db) == expected
        with force_kernels("auto"):
            # on SQLite this is the whole-tree SQL pushdown
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
    with force_kernels("columnar"):
        assert satisfiable_with_join_tree(atoms, links, db) is expected
    with force_kernels("auto"):
        assert satisfiable_with_join_tree(atoms, links, lite) is expected


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_wdpt_evaluation_parity_across_kernel_modes(seed):
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
    for mode in ("columnar", "auto"):
        with force_kernels(mode):
            assert Session(db, cache=False).query(query).answers == expected
            assert (
                Session(db, cache=False).query_maximal(query).answers
                == expected_max
            )
