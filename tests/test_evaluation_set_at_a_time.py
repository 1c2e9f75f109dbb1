"""The set-at-a-time top-down evaluator (:mod:`repro.wdpt.evaluation`).

Differential: on random WDPTs × databases, and on pinned shapes that hit
each branch of the recursion, ``evaluate`` equals the literal Definition 2
evaluator across backends.  Structural: one
node CQ per evaluated tree node (no wall clock), resource accounting that
sees them, no ⊑-filter on a projection-free tree, and a seeded ``scan``
that agrees with scan-then-semijoin on both sides of its probe/scan
choice.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.atoms import atom
from repro.core.mappings import Mapping, maximal_mappings
from repro.core.terms import Variable
from repro.cqalgs.yannakakis import relation_with_join_tree
from repro.engine import Session
from repro.hypergraphs.gyo import join_tree_shape
from repro.relalg.relation import (
    Relation,
    from_mappings,
    group_by,
    scan,
    semijoin,
    to_mappings,
)
from repro.storage import MemoryBackend, SQLiteBackend
from repro.telemetry.tracer import tracing
from repro.wdpt.evaluation import (
    evaluate,
    evaluate_max,
    evaluate_reference,
    maximal_homomorphisms,
)
from repro.wdpt.transform import free_branch_nodes, prune_non_free_branches
from repro.wdpt.wdpt import wdpt_from_nested
from repro.workloads.datasets import company_directory
from repro.workloads.generators import random_database, random_wdpt
from tests.harness.oracles import count_homomorphisms

COMMON = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,  # a differential sweep this wide must not flake on size
    suppress_health_check=[
        HealthCheck.too_slow, HealthCheck.data_too_large, HealthCheck.filter_too_much,
    ],
)

BACKENDS = (MemoryBackend, SQLiteBackend)


def _everywhere(p, facts):
    """``evaluate(p, ·)`` under every backend."""
    for backend in BACKENDS:
        yield backend.__name__, evaluate(p, backend(facts))


def _assert_matches_reference(p, facts):
    expected = evaluate_reference(p, MemoryBackend(facts))
    for config, answers in _everywhere(p, facts):
        assert answers == expected, config
    assert maximal_mappings(expected) == evaluate_max(p, MemoryBackend(facts))
    return expected


@st.composite
def wdpt_and_facts(draw):
    seed = draw(st.integers(0, 10**6))
    # Children that share nothing with their parent multiply the answer
    # set (a cross product per node): keep those trees shallow.
    shared = draw(st.integers(0, 2))
    p = random_wdpt(
        depth=1 if shared == 0 else draw(st.integers(1, 2)),
        fanout=draw(st.integers(1, 2)),
        atoms_per_node=draw(st.integers(1, 2)),
        fresh_vars_per_node=draw(st.integers(1, 2)),
        shared_vars_per_child=shared,
        relations=("E", "F"),
        free_fraction=draw(st.sampled_from([0.3, 0.7, 1.0])),
        seed=seed,
    )
    db = random_database(
        draw(st.integers(3, 10)),
        relations=draw(st.sampled_from([("E",), ("E", "F")])),
        domain_size=draw(st.integers(2, 4)),
        seed=seed + 1,
    )
    # The oracle's maximality filter is quadratic in the homomorphisms.
    assume(len(maximal_homomorphisms(p, db)) <= 500)
    return p, db.facts()


@COMMON
@given(wdpt_and_facts())
def test_evaluate_matches_reference_on_random_inputs(pair):
    p, facts = pair
    _assert_matches_reference(p, facts)


@COMMON
@given(wdpt_and_facts())
def test_maximal_homomorphisms_keep_every_variable(pair):
    """``maximal_homomorphisms`` skips nothing: its projections are
    ``p(D)`` and each one is a homomorphism of a rooted subtree."""
    p, facts = pair
    db = MemoryBackend(facts)
    maximal = maximal_homomorphisms(p, db)
    assert {h.restrict(p.free_variables) for h in maximal} == evaluate_reference(p, db)
    for h in maximal:
        nodes = [n for n in p.tree.nodes() if p.node_variables(n) <= h.domain()]
        assert h.domain() == frozenset().union(*(p.node_variables(n) for n in nodes))


# ---------------------------------------------------------------------------
# Pinned shapes, one per branch of the recursion
# ---------------------------------------------------------------------------
EDGES = [atom("E", 1, 2), atom("E", 2, 3), atom("E", 3, 1), atom("E", 3, 3)]


def _two_node(child_label, frees, root_label=(("E", "?x", "?y"),)):
    return wdpt_from_nested(
        ([atom(*a) for a in root_label], [([atom(*a) for a in child_label], [])]),
        free_variables=frees,
    )


PINNED = {
    "empty interface": (
        _two_node([("formed_in", "band_7", "?z")], ["?x", "?z"]),
        EDGES + [atom("formed_in", "band_7", 1999), atom("formed_in", "band_8", 2001)],
    ),
    "empty interface, failed": (
        _two_node([("formed_in", "band_7", "?z")], ["?x", "?z"]),
        EDGES + [atom("formed_in", "band_8", 2001)],
    ),
    "ground child atom, present": (
        _two_node([("G", "a", "b"), ("F", "?y", "?z")], ["?x", "?y", "?z"]),
        EDGES + [atom("G", "a", "b"), atom("F", 2, "u"), atom("F", 3, "v")],
    ),
    "ground child atom, absent": (
        _two_node([("G", "a", "b"), ("F", "?y", "?z")], ["?x", "?y", "?z"]),
        EDGES + [atom("G", "a", "c"), atom("F", 2, "u")],
    ),
    "repeated variable": (
        _two_node([("E", "?y", "?z", ), ("E", "?z", "?z")], ["?x", "?y", "?z"]),
        EDGES,
    ),
    "cyclic child label": (
        _two_node(
            [("E", "?y", "?a"), ("E", "?a", "?b"), ("E", "?b", "?y")],
            ["?x", "?y", "?a", "?b"],
        ),
        EDGES,
    ),
    # The interface ?z is last in the label's order (?a, ?b, ?c, ?z): the
    # keys join only the last bucket, and seed the scans on ?z.  Key 4 is
    # on no 4-cycle: its branch fails.
    "cyclic child, interface last in the order": (
        wdpt_from_nested(
            (
                [atom("L", "?z", "?l")],
                [([atom("E", "?z", "?a"), atom("E", "?a", "?b"),
                   atom("E", "?b", "?c"), atom("E", "?c", "?z")], [])],
            ),
            free_variables=["?z", "?l", "?a", "?b", "?c"],
        ),
        EDGES + [atom("L", 1, "p"), atom("L", 2, "q"), atom("L", 4, "r")],
    ),
    # A two-variable interface {x, y} that no atom of the 4-cycle holds:
    # (x, y) = (3, 1) is on a cycle but is no key, (1, 1) is a key on none.
    "cyclic child, two-variable interface": (
        wdpt_from_nested(
            (
                [atom("P", "?x", "?y")],
                [([atom("E", "?x", "?a"), atom("E", "?a", "?y"),
                   atom("E", "?y", "?b"), atom("E", "?b", "?x")], [])],
            ),
            free_variables=["?x", "?y", "?a", "?b"],
        ),
        EDGES + [atom("P", 1, 3), atom("P", 3, 3), atom("P", 2, 1), atom("P", 1, 1),
                 atom("P", 2, 2)],
    ),
    "absent relation": (
        _two_node([("nowhere", "?y", "?z")], ["?x", "?y", "?z"]),
        EDGES,
    ),
    # "zero" is the first constant the memory backend interns: code 0, in
    # a column the failed branches pad with None — a value, not unbound.
    "code 0 in a padded column": (
        _two_node([("F", "?z", "?y")], ["?x", "?y", "?z"]),
        [atom("F", "zero", 2)] + EDGES,
    ),
    # Each atom alone lets (1, 4) and (3, 2) through; only the semi-join
    # on the whole interface {x, y} rejects them.
    "interface over two atoms": (
        _two_node([("A", "?x", "?u"), ("B", "?y", "?u")], ["?x", "?y", "?u"]),
        [atom("E", 1, 2), atom("E", 3, 4), atom("E", 5, 6),
         atom("A", 1, "k"), atom("A", 3, "k"), atom("B", 2, "k"), atom("B", 4, "k")],
    ),
    "non-free subtree": (
        wdpt_from_nested(
            (
                [atom("E", "?x", "?y")],
                [
                    ([atom("E", "?y", "?z")], [([atom("E", "?z", "?w")], [])]),
                    ([atom("F", "?x", "?v")], []),
                ],
            ),
            free_variables=["?x", "?v"],
        ),
        EDGES + [atom("F", 1, "p"), atom("F", 1, "q")],
    ),
    # Two OPT children joined onto the root's rows in turn: F's groups
    # have several rows, G's key 2 has none (padded).  ?y, the interface
    # to F, is existential: the rows carry it through both joins and lose
    # it only at the final projection, where (1, 2) and (1, 4) merge.
    "outer-join carry": (
        wdpt_from_nested(
            (
                [atom("E", "?x", "?y")],
                [([atom("F", "?y", "?z")], []), ([atom("G", "?x", "?w")], [])],
            ),
            free_variables=["?x", "?z", "?w"],
        ),
        EDGES + [atom("E", 1, 4), atom("F", 2, "a"), atom("F", 2, "b"),
                 atom("F", 3, "c"), atom("F", 4, "a"),
                 atom("G", 1, "p"), atom("G", 3, "q"), atom("G", 3, "r")],
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_shape_matches_reference(name):
    p, facts = PINNED[name]
    expected = _assert_matches_reference(p, facts)
    assert expected, "the pinned case should not be vacuous"


def test_interface_over_two_atoms_is_filtered_exactly():
    p, facts = PINNED["interface over two atoms"]
    answers = evaluate(p, MemoryBackend(facts))
    assert Mapping({"?x": 1, "?y": 2, "?u": "k"}) in answers
    assert Mapping({"?x": 5, "?y": 6}) in answers
    assert len(answers) == 3


def test_outer_join_carry_pads_failed_branches_and_merges_projected_rows():
    p, facts = PINNED["outer-join carry"]
    answers = evaluate(p, MemoryBackend(facts))
    expected = [
        {"?x": 1, "?z": "a", "?w": "p"}, {"?x": 1, "?z": "b", "?w": "p"},
        {"?x": 2, "?z": "c"}, {"?x": 3, "?w": "q"}, {"?x": 3, "?w": "r"},
        {"?x": 3, "?z": "c", "?w": "q"}, {"?x": 3, "?z": "c", "?w": "r"},
    ]
    assert answers == {Mapping(m) for m in expected}
    # (3, 1) found no F row: its answers are below those of (3, 3).
    assert len(evaluate_max(p, MemoryBackend(facts))) == 5


@pytest.mark.parametrize("name, expected", [
    ("cyclic child, interface last in the order", [
        {"?z": 1, "?l": "p", "?a": 2, "?b": 3, "?c": 3},
        {"?z": 2, "?l": "q", "?a": 3, "?b": 3, "?c": 1},
        {"?z": 4, "?l": "r"},
    ]),
    ("cyclic child, two-variable interface", [
        {"?x": 1, "?y": 3, "?a": 2, "?b": 3},
        {"?x": 3, "?y": 3, "?a": 3, "?b": 3},
        {"?x": 1, "?y": 1}, {"?x": 2, "?y": 1}, {"?x": 2, "?y": 2},
    ]),
])
def test_cyclic_children_answer_exactly(name, expected):
    p, facts = PINNED[name]
    for backend in BACKENDS:
        assert evaluate(p, backend(facts)) == {Mapping(m) for m in expected}, backend


def test_a_cyclic_child_runs_one_seeded_elimination_for_all_its_keys():
    """``L(?x, ?l) OPT triangle`` with 12 keys, 3 of them on a triangle:
    the child's answers are one bucket elimination seeded by the keys, not
    a search per key, and ``node_stats`` names that one run."""
    triangle = [atom("E", "?x", "?a"), atom("E", "?a", "?b"), atom("E", "?b", "?x")]
    p = wdpt_from_nested(
        ([atom("L", "?x", "?l")], [(triangle, [])]), free_variables=["?x", "?l", "?a", "?b"]
    )
    facts = EDGES + [atom("L", key, "l%d" % key) for key in range(1, 13)]
    for backend in BACKENDS:
        with tracing() as tracer:
            answers = evaluate(p, backend(facts))
        assert answers == evaluate_reference(p, MemoryBackend(facts))
        assert len(list(tracer.find("elimination"))) == 1
        (span,) = tracer.find("wdpt.maximal_homomorphisms")
        assert span.attrs["node_stats"][1]["engines"] == {"treewidth": 1}


def test_seeded_yannakakis_is_the_semijoin_of_the_unseeded_answers():
    """Every backend, seeds that one atom covers and seeds that none does,
    and SQLite's probes on both sides of its bound-parameter limit."""
    _, facts = PINNED["interface over two atoms"]
    # Facts that join with nothing: enough of them that the seeded scans
    # probe by key instead of reading in full.
    facts = facts + [atom(r, i, "%s%d" % (r, i)) for r in "AB" for i in range(100, 140)]
    x, y, u = Variable("x"), Variable("y"), Variable("u")
    atoms = [atom("A", "?x", "?u"), atom("B", "?y", "?u")]
    links = [(1, 0)]
    probes = {}
    for backend, limit in ((MemoryBackend, None), (_CountingSQLite, None), (_CountingSQLite, 1)):
        db = backend(facts)
        if limit is not None:
            db._max_parameters = limit  # one key per statement
        seeds = [
            from_mappings([Mapping({x: 1, y: 2}), Mapping({x: 3, y: 2})], (x, y), db),
            from_mappings([Mapping({x: 3}), Mapping({x: 7})], (x,), db),
            from_mappings([Mapping()], (), db),
            from_mappings([], (x,), db),
        ]
        full = relation_with_join_tree(
            atoms, join_tree_shape(links, len(atoms)), db, [x, y, u]
        )
        for seed in seeds:
            got = relation_with_join_tree(
                atoms, join_tree_shape(links, len(atoms)), db, [x, y, u], seed=seed
            )
            assert to_mappings(got) == to_mappings(semijoin(full, seed))
        if backend is _CountingSQLite:
            probes[limit] = db.reads.count("probe")
    # The limit cut a two-key probe in two.
    assert 0 < probes[None] < probes[1]
    with pytest.raises(ValueError):
        relation_with_join_tree(
            atoms, join_tree_shape(links, len(atoms)), db, [x], seed=seeds[0]
        )


# ---------------------------------------------------------------------------
# Structure: one node CQ per evaluated node
# ---------------------------------------------------------------------------
def _company_query(frees=("?e", "?d", "?p", "?m", "?o")):
    return wdpt_from_nested(
        (
            [atom("works_in", "?e", "?d")],
            [
                ([atom("phone", "?e", "?p")], []),
                ([atom("reports_to", "?e", "?m")],
                 [([atom("office", "?m", "?o")], [])]),
            ],
        ),
        free_variables=list(frees),
    )


@pytest.mark.parametrize(
    "frees, evaluated",
    [
        (("?e", "?d", "?p", "?m", "?o"), 4),
        (("?e", "?m"), 2),  # phone and office bind no free variable
        (("?e", "?o"), 3),  # reports_to stays: it leads to ?o
        (("?d",), 1),
    ],
)
def test_one_yannakakis_run_per_evaluated_node(frees, evaluated):
    p = _company_query(frees)
    assert len(free_branch_nodes(p)) == evaluated
    _assert_one_run_per_node(p, evaluated)


def test_no_child_cq_below_an_empty_root():
    p = _two_node([("works_in", "?y", "?z")], ["?x", "?z"], [("nowhere", "?x", "?y")])
    _assert_one_run_per_node(p, 1)


def _assert_one_run_per_node(p, evaluated):
    with Session(
        company_directory(3, 4, seed=1), track_resources=True, cache=False
    ) as session:
        with tracing() as tracer:
            result = session.query(p)
        assert len(list(tracer.find("yannakakis"))) == evaluated
        assert result.resources.subqueries == evaluated
        assert result.answers == evaluate_reference(p, session.database)


def test_node_stats_count_path_homomorphisms():
    """``candidates`` is the number of homomorphisms of the root→node
    path CQ, ``extensions`` their maximal subtree extensions — and a node
    outside the Lemma 1 keep-set reports nothing."""
    db = company_directory(3, 4, seed=1)
    for frees in (("?e", "?d", "?p", "?m", "?o"), ("?e", "?m")):
        p = _company_query(frees)
        with tracing() as tracer:
            evaluate(p, db)
        (span,) = tracer.find("wdpt.maximal_homomorphisms")
        stats = span.attrs["node_stats"]
        kept = free_branch_nodes(p)
        assert set(stats) <= kept
        for node, row in stats.items():
            path = p.tree.path_to_root(node)
            assert row["candidates"] == count_homomorphisms(p.atoms_of(path), db)
        pruned = prune_non_free_branches(p)
        assert stats[0]["extensions"] == len(maximal_homomorphisms(pruned, db))
        assert span.attrs["maximal"] == stats[0]["extensions"]


# ---------------------------------------------------------------------------
# p_m(D) = p(D) on projection-free trees: no ⊑-filter
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize(
    "frees, filters", [(("?e", "?d", "?p", "?m", "?o"), 0), (("?e", "?o"), 1)]
)
def test_only_a_projected_tree_runs_the_maximality_filter(
    monkeypatch, backend, frees, filters
):
    p = _company_query(frees)
    assert p.is_projection_free() == (filters == 0)
    with Session(company_directory(3, 4, seed=1), backend=backend, cache=False) as session:
        expected = maximal_mappings(evaluate_reference(p, session.database))
        calls = []
        monkeypatch.setattr(
            "repro.wdpt.evaluation.maximal_mappings",
            lambda mappings: calls.append(1) or maximal_mappings(mappings),
        )
        assert evaluate_max(p, session.database) == expected
        assert len(calls) == filters
        result = session.query_maximal(p)
        assert result.answers == expected
        assert len(calls) == 2 * filters
        assert session.query(p).maximal() == expected
        assert len(calls) == 3 * filters


def test_evaluate_max_span_says_whether_it_filtered():
    db = company_directory(3, 4, seed=1)
    for frees, filtered in ((("?e", "?d", "?p", "?m", "?o"), False), (("?e", "?o"), True)):
        p = _company_query(frees)
        with tracing() as tracer:
            answers = evaluate_max(p, db)
        (span,) = tracer.find("wdpt.evaluate_max")
        assert span.attrs["filtered"] is filtered
        assert span.attrs["answers"] == len(answers)


# ---------------------------------------------------------------------------
# relalg: seeded scan and group-by
# ---------------------------------------------------------------------------
class _CountingMemory(MemoryBackend):
    """Records the reads a scan makes through the cell seam: ``"rows"``
    per full read, the key count per compiled probe."""

    __slots__ = ("reads",)

    def __init__(self, facts):
        self.reads = []
        super().__init__(facts)

    def rows(self, pattern):
        self.reads.append("rows")
        return super().rows(pattern)

    def probe(self, pattern, variables, keys):
        self.reads.append(len(keys))
        return super().probe(pattern, variables, keys)


class _CountingSQLite(SQLiteBackend):
    """The same for SQLite, counted in the statements that read facts:
    ``"rows"`` per full read, ``"probe"`` per ``IN`` statement of a probe
    (one per chunk of keys)."""

    def __init__(self, facts):
        super().__init__(facts)
        self.reads = []
        self._conn.set_trace_callback(self._traced)

    def _traced(self, statement):
        if statement.startswith("SELECT * FROM"):
            self.reads.append("probe" if " IN (" in statement else "rows")


def _rows(rel):
    return rel.schema, sorted(rel.rows, key=repr)


def test_seeded_scan_equals_scan_then_semijoin_on_both_sides_of_its_choice():
    facts = [atom("R", i, i % 7, "c") for i in range(200)]
    pattern = atom("R", "?a", "?b", "c")
    a, b, z = Variable("a"), Variable("b"), Variable("z")
    # 999 is a constant no backend has stored: a key that matches nothing.
    few = [Mapping({a: i, z: 0}) for i in (3, 5, 999)], (a, z)
    many = [Mapping({z: 0, a: i}) for i in range(0, 400, 2)], (z, a)
    pairs = [Mapping({b: 3, a: 3}), Mapping({b: 4, a: 3})], (b, a)
    for backend in (_CountingMemory, _CountingSQLite):
        db = backend(facts)
        # 200 facts to read in full: every backend's break-even lies
        # between few (2-3 keys) and many (200 keys).
        assert 3 * db.probe_cost < db.match_bound(pattern) <= 200 * db.probe_cost
        for seed, probes in ((few, 3), (many, None), (pairs, 2)):
            seed = from_mappings(*seed, db)
            expected = semijoin(scan(pattern, db), seed)
            db.reads = []
            got = scan(pattern, db, seed)
            assert _rows(got) == _rows(expected)
            assert len(got) > 0
            # Few keys: one probe — on SQLite one statement for all of
            # them.  Many: one full read.
            if isinstance(db, _CountingMemory):
                assert sum(r for r in db.reads if r != "rows") == (probes or 0)
            else:
                assert db.reads.count("probe") == (1 if probes else 0)
            assert db.reads.count("rows") == (0 if probes else 1)
        unrelated = from_mappings([Mapping({z: 0})], (z,), db)
        assert scan(pattern, db, unrelated).rows == scan(pattern, db).rows
        assert scan(pattern, db, from_mappings([], (a,), db)).rows == []
        assert scan(atom("R", 1, 1, "c"), db, from_mappings(*few, db)).rows == [()]


def test_group_by_partitions_rows_by_key():
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    rel = Relation((x, y, z), [(1, "a", 10), (1, "b", 11), (2, "a", 12)])
    # One key column: the key is the bare cell, not a 1-tuple.
    assert group_by(rel, [x]) == {1: [("a", 10), ("b", 11)], 2: [("a", 12)]}
    assert group_by(rel, [y, x])[("a", 2)] == [(12,)]
    assert group_by(rel, []) == {(): rel.rows}
    assert group_by(rel, [x, y, z])[(2, "a", 12)] == [()]
