"""The set-at-a-time top-down evaluator (:mod:`repro.wdpt.evaluation`).

Differential: on random WDPTs × databases, and on pinned shapes that hit
each branch of the recursion, ``evaluate`` equals the literal Definition 2
evaluator across backends and kernel modes.  Structural: one
node CQ per evaluated tree node (no wall clock), resource accounting that
sees them, and a seeded ``scan`` that agrees with scan-then-semijoin on
both sides of its probe/scan choice.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.atoms import atom
from repro.core.mappings import Mapping, maximal_mappings
from repro.core.terms import Variable
from repro.cqalgs.naive import count_homomorphisms
from repro.cqalgs.yannakakis import relation_with_join_tree
from repro.engine import Session
from repro.relalg.config import MODES, force_kernels
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
    """``evaluate(p, ·)`` under every backend × kernel mode."""
    for backend in BACKENDS:
        db = backend(facts)
        for mode in MODES:
            with force_kernels(mode):
                yield (backend.__name__, mode), evaluate(p, db)


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


def test_seeded_yannakakis_is_the_semijoin_of_the_unseeded_answers():
    """Every kernel, seeds that one atom covers and seeds that none does,
    and the SQL statement on both sides of its parameter limit."""
    _, facts = PINNED["interface over two atoms"]
    x, y, u = Variable("x"), Variable("y"), Variable("u")
    atoms = [atom("A", "?x", "?u"), atom("B", "?y", "?u")]
    links = [(1, 0)]
    for backend in BACKENDS:
        db = backend(facts)
        seeds = [
            from_mappings([Mapping({x: 1, y: 2}), Mapping({x: 3, y: 2})], (x, y), db),
            from_mappings([Mapping({x: 3}), Mapping({x: 7})], (x,), db),
            from_mappings([Mapping()], (), db),
            from_mappings([], (x,), db),
        ]
        limits = [None, 1] if backend is SQLiteBackend else [None]
        for mode in MODES:
            for limit in limits:
                if limit is not None:
                    db._max_parameters = limit
                with force_kernels(mode):
                    full = relation_with_join_tree(atoms, links, db, [x, y, u])
                    for seed in seeds:
                        got = relation_with_join_tree(
                            atoms, links, db, [x, y, u], seed=seed
                        )
                        assert to_mappings(got) == to_mappings(semijoin(full, seed))
    with pytest.raises(ValueError):
        relation_with_join_tree(atoms, links, db, [x], seed=seeds[0])


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
        for mode in MODES:
            with force_kernels(mode), tracing() as tracer:
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
    """The same for a backend that inherits the seam's default: every
    read, full or per key, is one ``match``."""

    def __init__(self, facts):
        self.reads = []
        super().__init__(facts)

    def match(self, pattern):
        self.reads.append("rows" if pattern.variables() >= {Variable("a")} else 1)
        return super().match(pattern)


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
            # Few keys: one index probe each.  Many: one full read.
            assert sum(r for r in db.reads if r != "rows") == (probes or 0)
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
