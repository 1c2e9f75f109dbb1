"""Unit tests for bounded-treewidth / bounded-hypertreewidth evaluation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import atom
from repro.core.cq import cq
from repro.core.database import Database
from repro.core.mappings import Mapping
from repro.cqalgs.dispatch import evaluate, holds
from repro.cqalgs.naive import evaluate_naive, satisfiable
from repro.cqalgs.structured import (
    evaluate_bounded_hypertreewidth,
    evaluate_bounded_treewidth,
    satisfiable_with_decomposition,
)
from repro.exceptions import ClassMembershipError, ResourceBudgetExceeded
from repro.hypergraphs.hypergraph import hypergraph_of_cq
from repro.hypergraphs.treedecomp import TreeDecomposition
from repro.hypergraphs.treewidth import tree_decomposition
from repro.planner import ENGINE_TREEWIDTH, Planner, StructuralProfile
from repro.storage import MemoryBackend, SQLiteBackend
from repro.telemetry.resources import ResourceBudget, ResourceMonitor
from repro.telemetry.tracer import Tracer, tracing
from repro.workloads.generators import (
    cycle_cq,
    grid_cq,
    path_cq,
    random_graph_database,
)


@pytest.fixture
def db():
    return random_graph_database(7, 22, seed=7)


@pytest.mark.parametrize(
    "query",
    [
        path_cq(3),
        cycle_cq(4),
        cycle_cq(5),
        grid_cq(2, 3),
        cq(["?x"], [atom("E", "?x", "?y"), atom("E", "?y", "?z"), atom("E", "?z", "?x")]),
    ],
    ids=["path3", "cycle4", "cycle5", "grid2x3", "triangle-free-x"],
)
def test_td_engine_agrees_with_naive(db, query):
    assert evaluate_bounded_treewidth(query, db) == evaluate_naive(query, db)


@pytest.mark.parametrize(
    "query",
    [path_cq(3), cycle_cq(4), cq([], [atom("E", "?x", "?y"), atom("E", "?y", "?x")])],
    ids=["path3", "cycle4", "two-cycle"],
)
def test_hw_engine_agrees_with_naive(db, query):
    assert evaluate_bounded_hypertreewidth(query, db) == evaluate_naive(query, db)


def test_width_bound_enforced(db):
    tri = cycle_cq(3)
    with pytest.raises(ClassMembershipError):
        evaluate_bounded_treewidth(tri, db, k=1)
    assert evaluate_bounded_treewidth(tri, db, k=2) == evaluate_naive(tri, db)


def test_hw_bound_enforced(db):
    tri = cycle_cq(3)
    with pytest.raises(ClassMembershipError):
        evaluate_bounded_hypertreewidth(tri, db, k=1)


def test_ground_atom_filters():
    db = Database([atom("E", 1, 2), atom("M", 5)])
    q_ok = cq(["?x"], [atom("E", "?x", "?y"), atom("M", 5)])
    q_fail = cq(["?x"], [atom("E", "?x", "?y"), atom("M", 6)])
    assert evaluate_bounded_treewidth(q_ok, db) == evaluate_naive(q_ok, db)
    assert evaluate_bounded_treewidth(q_fail, db) == frozenset()


def test_constants_inside_atoms(db):
    q = cq(["?y"], [atom("E", 0, "?y"), atom("E", "?y", "?z"), atom("E", "?z", 0)])
    assert evaluate_bounded_treewidth(q, db) == evaluate_naive(q, db)


def test_repeated_variables(db):
    q = cq(["?x"], [atom("E", "?x", "?x"), atom("E", "?x", "?y")])
    assert evaluate_bounded_treewidth(q, db) == evaluate_naive(q, db)


VALUES = (0, 1, 2)


@st.composite
def cyclic_cq_and_facts(draw):
    """A triangle or 4-cycle over ``E``/``F`` with pendant atoms hanging
    off it and, now and then, a repeated variable, a ground atom (present
    or not) and an atom over the empty relation ``Z``; free variables
    (maybe none); a small database; values for some of the variables."""
    n = draw(st.sampled_from([3, 4]))
    cycle = ["?c%d" % i for i in range(n)]
    edge = st.sampled_from("EF")
    atoms = [atom(draw(edge), cycle[i], cycle[(i + 1) % n]) for i in range(n)]
    for j in range(draw(st.integers(0, 2))):
        atoms.append(atom(draw(edge), draw(st.sampled_from(cycle)), "?p%d" % j))
    extras = draw(st.sets(st.sampled_from(["repeat", "ground", "empty"])))
    if "repeat" in extras:
        atoms.append(atom(draw(edge), *[draw(st.sampled_from(cycle))] * 2))
    if "ground" in extras:
        atoms.append(atom("U", draw(st.sampled_from(VALUES))))
    if "empty" in extras:
        atoms.append(atom("Z", draw(st.sampled_from(cycle)), "?z"))
    variables = sorted({v for a in atoms for v in a.variables()})
    frees = draw(st.sets(st.sampled_from(variables)))
    pairs = st.sets(st.tuples(*[st.sampled_from(VALUES)] * 2), min_size=3)
    facts = [atom(r, *pair) for r in "EF" for pair in sorted(draw(pairs))]
    facts += [atom("U", value) for value in sorted(draw(st.sets(st.sampled_from(VALUES))))]
    bound = sorted(draw(st.sets(st.sampled_from(variables))))
    binding = Mapping({v: draw(st.sampled_from(VALUES)) for v in bound})
    return cq(sorted(frees), atoms), facts, binding


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cyclic_cq_and_facts())
def test_both_engines_agree_with_naive_on_random_cyclic_cqs(case):
    query, facts, binding = case
    expected = evaluate_naive(query, MemoryBackend(facts))
    # The Boolean form, on the atoms with some variables bound, over the
    # unsubstituted query's decomposition cut down to what is left.
    bound_atoms = [a.substitute(binding.as_dict()) for a in sorted(query.atoms)]
    keep = frozenset(v for a in bound_atoms for v in a.variables())
    td = tree_decomposition(hypergraph_of_cq(query))
    td = TreeDecomposition([bag & keep for bag in td.bags], td.tree_edges)
    bound_expected = satisfiable(bound_atoms, MemoryBackend(facts))
    for backend in (MemoryBackend, SQLiteBackend):
        db = backend(facts)
        assert evaluate_bounded_treewidth(query, db) == expected, backend.__name__
        assert evaluate_bounded_hypertreewidth(query, db) == expected, backend.__name__
        assert (
            satisfiable_with_decomposition(bound_atoms, td, db) is bound_expected
        ), backend.__name__


TRIANGLE = [atom("E", "?x", "?y"), atom("E", "?y", "?z"), atom("E", "?z", "?x")]


def _span_names(run):
    tracer = Tracer()
    with tracing(tracer):
        run()
    return {span.name for span in tracer.walk()}


@pytest.mark.parametrize("backend", [MemoryBackend, SQLiteBackend])
def test_boolean_run_over_a_decomposition_stops_after_the_bottom_up_sweep(backend):
    """Deciding non-emptiness needs the bottom-up sweep only: no top-down
    sweep, no join phase — and no plan or estimate is built to get there."""
    db = backend([atom("E", 0, 1), atom("E", 1, 2), atom("E", 2, 0), atom("E", 2, 3)])
    profile = StructuralProfile(TRIANGLE)
    assert profile.engine == ENGINE_TREEWIDTH
    planner = Planner()
    verdicts = []
    routed = _span_names(
        lambda: verdicts.append(
            planner.satisfiable_substituted(profile, Mapping({"?x": 0}).as_dict(), db)
        )
    )
    direct = _span_names(
        lambda: verdicts.append(
            satisfiable_with_decomposition(TRIANGLE, profile.tree_decomposition, db)
        )
    )
    assert verdicts == [True, True]
    assert planner.plans_built == 0
    for names in (routed, direct):
        assert "yannakakis.semijoin_up" in names
        assert not names & {"yannakakis.semijoin_down", "yannakakis.join"}
        assert "planner.estimate" not in names
    assert "planner.satisfiable" in routed
    # The same check on a value no triangle passes through.
    assert not planner.satisfiable_substituted(
        profile, Mapping({"?x": 3}).as_dict(), db
    )


def test_routed_triangle_matches_the_backtracking_search(db):
    """On a treewidth-routed label both forms of the dispatch site return
    what the reference search returns, memory and SQLite."""
    query = cq(["?x", "?y"], TRIANGLE)
    for backend in (MemoryBackend, SQLiteBackend):
        store = backend(db.facts())
        planner = Planner()
        assert planner.evaluate_cq(query, store) == evaluate_naive(query, store)
        profile = planner.profile_cq(query)
        for value in range(7):
            binding = Mapping({"?x": value})
            assert planner.satisfiable_substituted(
                profile, binding.as_dict(), store
            ) is satisfiable(TRIANGLE, store, binding)
        assert planner.engine_selections == {ENGINE_TREEWIDTH: 8}


def test_hard_row_budget_stops_a_bag_where_it_blows_up():
    """The triangle's one bag joins to 40·39·38 rows; the kill comes at
    the first intermediate over the limit, not after the finished bag."""
    db = Database([atom("E", i, j) for i in range(40) for j in range(40) if i != j])
    with ResourceMonitor(ResourceBudget(hard_intermediate_rows=100)):
        with pytest.raises(ResourceBudgetExceeded) as kill:
            evaluate_bounded_treewidth(cycle_cq(3), db)
    assert kill.value.observed == 40 * 39


class TestDispatch:
    def test_auto_acyclic(self, db):
        q = path_cq(3)
        assert evaluate(q, db) == evaluate_naive(q, db)

    def test_auto_cyclic_small_width(self, db):
        q = cycle_cq(4)
        assert evaluate(q, db) == evaluate_naive(q, db)

    def test_explicit_methods_agree(self, db):
        q = cycle_cq(4)
        results = {
            evaluate(q, db, method=m)
            for m in ("naive", "treewidth", "hypertreewidth")
        }
        assert len(results) == 1

    def test_unknown_method(self, db):
        with pytest.raises(ValueError):
            evaluate(path_cq(2), db, method="quantum")

    def test_holds(self, db):
        assert holds(cq([], [atom("E", "?x", "?y")]), db)
        assert not holds(cq([], [atom("Z", "?x")]), db)

    def test_holds_with_free_variables_assembles_no_answers(self, db):
        """Non-emptiness of ``q(D)`` is satisfiability of the body, so a
        query with free variables runs no engine either."""
        q = cq(["?x"], [atom("E", "?x", "?y")])
        assert _span_names(lambda: holds(q, db)) == set()
        assert holds(q, db) and evaluate(q, db)
        assert not holds(cq(["?x"], [atom("E", "?x", "?y"), atom("Z", "?y")]), db)
