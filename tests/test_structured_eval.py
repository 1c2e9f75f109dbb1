"""Unit tests for bounded-treewidth evaluation by bucket elimination."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import atom
from repro.core.cq import cq
from repro.core.database import Database
from repro.core.mappings import Mapping
from repro.core.cq import ConjunctiveQuery
from repro.core.terms import Variable
from repro.cqalgs.dispatch import evaluate, holds
from repro.cqalgs.naive import evaluate_naive, first_homomorphism, satisfiable
from repro.cqalgs.structured import (
    _eliminate,
    evaluate_bounded_treewidth,
    relation_by_elimination,
    satisfiable_by_elimination,
)
from repro.exceptions import ClassMembershipError, ResourceBudgetExceeded
from repro.hypergraphs.hypergraph import hypergraph_of_cq
from repro.hypergraphs.treewidth import elimination_order, treewidth_exact
from repro.planner import ENGINE_TREEWIDTH, Planner, StructuralProfile
from repro.relalg.relation import from_mappings, hash_join, scan, semijoin, to_mappings
from repro.storage import MemoryBackend, SQLiteBackend
from repro.telemetry.resources import ResourceBudget, ResourceMonitor
from repro.telemetry.tracer import Tracer, tracing
from repro.workloads.generators import (
    cycle_cq,
    grid_cq,
    path_cq,
    random_graph_database,
)


def _bindings(query, db):
    """No variable bound; then the first one, and the first two, bound to
    their values in a match (when there is one) and to a stored value."""
    variables = sorted(query.variables(), key=repr)
    match = first_homomorphism(sorted(query.atoms), db, {})
    stored = [c for fact in sorted(db.facts()) for c in fact.args][:1]
    out = [{}]
    for n in (1, 2):
        some = variables[:n]
        if match is not None:
            out.append({v: match[v] for v in some})
        out += [{v: c for v in some} for c in stored]
    return out


def assert_elimination_agrees(query, facts, bindings=()):
    """On memory and SQLite: the elimination engine's answers are
    ``evaluate_naive``'s, and its Boolean form over the order with the
    bound variables dropped is ``naive.satisfiable``'s verdict under 0, 1
    and 2 bound variables (and under each of ``bindings``)."""
    order = elimination_order(hypergraph_of_cq(query))
    atoms = sorted(query.atoms)
    for backend in (MemoryBackend, SQLiteBackend):
        db = backend(facts)
        assert evaluate_bounded_treewidth(query, db) == evaluate_naive(query, db), (
            backend.__name__
        )
        for binding in _bindings(query, db) + list(bindings):
            kept = [v for v in order if v not in binding]
            bound = [a.substitute(binding) for a in atoms]
            expected = satisfiable(atoms, db, Mapping(binding))
            assert satisfiable_by_elimination(bound, kept, db) is expected, (
                backend.__name__, binding,
            )


@pytest.fixture
def db():
    return random_graph_database(7, 22, seed=7)


SHAPES = [
    path_cq(3),
    cycle_cq(4),
    cycle_cq(5),
    grid_cq(2, 3),
    cq(["?x"], [atom("E", "?x", "?y"), atom("E", "?y", "?z"), atom("E", "?z", "?x")]),
    cq([], [atom("E", "?x", "?y"), atom("E", "?y", "?x")]),
]
SHAPE_IDS = ["path3", "cycle4", "cycle5", "grid2x3", "triangle-free-x", "two-cycle"]


@pytest.mark.parametrize("query", SHAPES, ids=SHAPE_IDS)
def test_td_engine_agrees_with_naive(db, query):
    assert_elimination_agrees(query, db.facts())


@pytest.mark.parametrize(
    "query, width",
    [(path_cq(3), 1), (cycle_cq(4), 2), (cq([], [atom("E", "?x", "?y"), atom("E", "?y", "?x")]), 1)],
    ids=["path3", "cycle4", "two-cycle"],
)
def test_hw_engine_agrees_with_naive(db, query, width):
    """Bounded-hypertreewidth queries (Theorem 3) are answered by the
    planner's route for their width — Yannakakis at width 1, elimination
    beyond — with ``evaluate_naive``'s answers on memory and SQLite."""
    planner = Planner()
    assert planner.profile_cq(query).hypertreewidth == width
    for backend in (MemoryBackend, SQLiteBackend):
        facts = backend(db.facts())
        assert planner.evaluate_cq(query, facts) == evaluate_naive(query, facts), (
            backend.__name__
        )


@pytest.mark.parametrize("query", SHAPES, ids=SHAPE_IDS)
def test_every_bucket_has_at_most_width_plus_one_variables(db, query):
    tracer = Tracer()
    with tracing(tracer):
        evaluate_bounded_treewidth(query, db)
    (span,) = tracer.find("elimination")
    width = treewidth_exact(hypergraph_of_cq(query))
    assert len(span.attrs["bucket_variables"]) == len(query.variables())
    assert max(span.attrs["bucket_variables"]) <= width + 1


def test_no_bucket_is_a_domain_product():
    """The all-free triangle over 300 vertices and 1 500 edges peaks at
    the largest join of two of its atoms that share a variable (7 356
    rows), not at a 299 × 299 domain product."""
    db = random_graph_database(300, 1500, seed=7)
    query = ConjunctiveQuery(["?x0", "?x1", "?x2"], cycle_cq(3).atoms)
    atoms = sorted(query.atoms)
    pairs = max(
        len(hash_join(scan(a, db), scan(b, db)))
        for i, a in enumerate(atoms)
        for b in atoms[i + 1:]
        if a.variables() & b.variables()
    )
    with ResourceMonitor() as monitor:
        answers = evaluate_bounded_treewidth(query, db)
    assert answers == evaluate_naive(query, db) and len(answers) == 127
    assert pairs == 7356
    assert monitor.usage.peak_intermediate_rows <= pairs


def test_seeded_buckets_read_only_what_a_key_can_join():
    """``L(?x, ?l) OPT triangle`` with ``?x`` last in the order, as the
    evaluator runs it for 10 keys over 300 vertices and 1 500 edges: the
    seed scans the two atoms on ``?x``, so the largest bucket is at least
    10× below the unseeded run's (214 against 7 356 rows), and the seeded
    answers are the unseeded ones that join the keys."""
    db = MemoryBackend(random_graph_database(300, 1500, seed=7).facts())
    a, b, x = Variable("?a"), Variable("?b"), Variable("?x")
    atoms = [atom("E", "?x", "?a"), atom("E", "?a", "?b"), atom("E", "?b", "?x")]
    keys = from_mappings([Mapping({x: v}) for v in range(0, 300, 30)], [x], db)
    peaks, answers = [], []
    for seed in (None, keys):
        with tracing() as tracer:
            answers.append(relation_by_elimination(atoms, [a, b, x], db, [x, a, b], seed))
        (span,) = tracer.find("elimination")
        peaks.append(max(span.attrs["bucket_rows"]))
    assert peaks[0] >= 10 * peaks[1]
    assert to_mappings(answers[1]) == to_mappings(semijoin(answers[0], keys))


@pytest.mark.parametrize("backend", [MemoryBackend, SQLiteBackend])
def test_a_bucket_whose_only_factor_is_a_message_adds_no_node(backend):
    """The 4-cycle through ``?x`` and ``?y`` seeded with 10 ``(?x, ?y)``
    keys (an OPT child under ``P(?x, ?y)``), over 300 vertices and 1 500
    edges.  In the order ``?a, ?b, ?x, ?y`` the bucket of ``?y`` receives
    only the message of bucket ``?x``: it forwards it, so the bucket tree
    has 3 nodes, not 4, and the answers are ``evaluate_naive``'s that join
    the keys."""
    db = backend(random_graph_database(300, 1500, seed=7).facts())
    a, b, x, y = (Variable(n) for n in ("?a", "?b", "?x", "?y"))
    square = [atom("E", "?x", "?a"), atom("E", "?a", "?y"), atom("E", "?y", "?b"),
              atom("E", "?b", "?x")]
    order = [a, b, x, y]
    assert StructuralProfile(square).elimination_order == order
    successors = {}
    for fact in db.facts():
        successors.setdefault(fact.args[0], []).append(fact.args[1])
    pairs = sorted({(u, w) for u, vs in successors.items() for v in vs
                    for w in successors.get(v, ())}, key=repr)[::37][:10]
    keys = from_mappings([Mapping({x: u, y: w}) for u, w in pairs], [x, y], db)
    relations, tree = _eliminate(square, order, db, keys, False)
    assert len(relations) == len(tree.order) == 3
    with tracing() as tracer:
        answers = relation_by_elimination(square, order, db, [x, a, y, b], keys)
    (span,) = tracer.find("elimination")
    assert len(span.attrs["bucket_rows"]) == 4
    expected = {
        m for m in evaluate_naive(ConjunctiveQuery(["?x", "?a", "?y", "?b"], square), db)
        if (m[x], m[y]) in pairs
    }
    assert expected and to_mappings(answers) == expected


def test_answers_form_runs_only_the_top_down_sweep(db):
    """Each bucket joined its children's messages, so the bucket relations
    are bottom-up consistent: the answers form sweeps top-down only."""
    with tracing() as tracer:
        evaluate_bounded_treewidth(cycle_cq(4), db)
    names = {span.name for span in tracer.walk()}
    assert "yannakakis.semijoin_down" in names
    assert "yannakakis.semijoin_up" not in names


def test_a_bound_atom_without_a_match_decides_the_check_before_any_bucket(monkeypatch):
    """The 4-cycle through ``9``, which has out-edges but no in-edge: the
    last atom of the order, ``E(?x3, 9)``, has no match, and the check
    says so without scanning or joining a bucket."""
    import repro.cqalgs.structured as structured

    db = Database([atom("E", 9, 1), atom("E", 1, 2), atom("E", 2, 3), atom("E", 3, 4)])
    atoms = [atom("E", 9, "?x1"), atom("E", "?x1", "?x2"), atom("E", "?x2", "?x3"),
             atom("E", "?x3", 9)]
    order = [Variable("?x1"), Variable("?x2"), Variable("?x3")]
    calls = []
    for name in ("scan", "hash_join"):
        original = getattr(structured, name)
        monkeypatch.setattr(
            structured, name, lambda *a, n=name, f=original, **k: calls.append(n) or f(*a, **k)
        )
    assert satisfiable_by_elimination(atoms, order, db) is False
    assert calls == []
    assert satisfiable_by_elimination(atoms[:3], order, db) is True  # no false stop


def test_width_bound_enforced(db):
    tri = cycle_cq(3)
    with pytest.raises(ClassMembershipError):
        evaluate_bounded_treewidth(tri, db, k=1)
    assert evaluate_bounded_treewidth(tri, db, k=2) == evaluate_naive(tri, db)


def test_ground_atom_filters():
    db = Database([atom("E", 1, 2), atom("M", 5)])
    q_ok = cq(["?x"], [atom("E", "?x", "?y"), atom("M", 5)])
    q_fail = cq(["?x"], [atom("E", "?x", "?y"), atom("M", 6)])
    assert_elimination_agrees(q_ok, db.facts())
    assert evaluate_bounded_treewidth(q_fail, db) == frozenset()


def test_constants_inside_atoms(db):
    q = cq(["?y"], [atom("E", 0, "?y"), atom("E", "?y", "?z"), atom("E", "?z", 0)])
    assert_elimination_agrees(q, db.facts())


def test_repeated_variables(db):
    q = cq(["?x"], [atom("E", "?x", "?x"), atom("E", "?x", "?y")])
    assert_elimination_agrees(q, db.facts())


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
    """The answers form and the Boolean form, the latter under the drawn
    binding too, over the unsubstituted query's order with the bound
    variables dropped."""
    query, facts, binding = case
    assert_elimination_agrees(query, facts, [binding.as_dict()])


TRIANGLE = [atom("E", "?x", "?y"), atom("E", "?y", "?z"), atom("E", "?z", "?x")]


def _span_names(run):
    tracer = Tracer()
    with tracing(tracer):
        run()
    return {span.name for span in tracer.walk()}


@pytest.mark.parametrize("backend", [MemoryBackend, SQLiteBackend])
def test_boolean_run_over_a_decomposition_stops_after_the_bottom_up_sweep(backend):
    """Deciding non-emptiness needs the one bottom-up pass over the
    buckets: no semi-join program, no join phase — and one plan serves
    every value of ``?x``."""
    db = backend([atom("E", 0, 1), atom("E", 1, 2), atom("E", 2, 0), atom("E", 2, 3)])
    planner = Planner()
    profile = planner.profile_cq(cq([], TRIANGLE))
    assert profile.boolean_plan({Variable("?x"): 0}).engine == ENGINE_TREEWIDTH
    verdicts = []
    routed = _span_names(
        lambda: verdicts.append(
            planner.satisfiable_substituted(profile, Mapping({"?x": 0}).as_dict(), db)
        )
    )
    direct = _span_names(
        lambda: verdicts.append(
            satisfiable_by_elimination(TRIANGLE, profile.elimination_order, db)
        )
    )
    assert verdicts == [True, True]
    assert planner.plans_built == 1
    for names in (routed, direct):
        assert "elimination" in names
        assert not [name for name in names if name.startswith("yannakakis")]
    assert "planner.satisfiable" in routed
    # The same check on a value no triangle passes through.
    assert not planner.satisfiable_substituted(
        profile, Mapping({"?x": 3}).as_dict(), db
    )
    assert planner.plans_built == 1


def test_routed_triangle_matches_the_backtracking_search(db):
    """On the triangle, the answers plan and the Boolean plan under a
    bound ``?x`` (both Theorem 2) return what the reference search
    returns, memory and SQLite."""
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
    """The triangle's first bucket joins to 40·39·38 rows; the kill comes
    at the first intermediate over the limit (a scan), not after the
    finished bucket."""
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
        results = {evaluate(q, db), evaluate_bounded_treewidth(q, db), evaluate_naive(q, db)}
        assert len(results) == 1

    def test_unknown_method(self, db):
        """There is no engine knob: the planner picks the engine."""
        with pytest.raises(TypeError):
            evaluate(path_cq(2), db, method="naive")

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
