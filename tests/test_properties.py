"""Property-based tests (hypothesis) for core invariants.

Strategies build small random structures; the properties assert the
cross-engine and order-theoretic invariants the library's correctness
rests on:

* ⊑ is a partial order on mappings; ``maximal_mappings`` matches the
  brute-force definition;
* all CQ engines agree;
* both WDPT evaluators agree, and the Theorem 6/8/9 algorithms agree with
  the enumeration-based definitions;
* tree decompositions produced by elimination orders are always valid;
* cores are equivalent to their queries;
* quotients are contained in their queries.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.atoms import Atom, atom
from repro.core.cq import ConjunctiveQuery
from repro.core.database import Database
from repro.core.mappings import Mapping, maximal_mappings
from repro.hypergraphs.gyo import join_tree_of_atoms
from repro.hypergraphs.hypergraph import Hypergraph
from repro.hypergraphs.hypertree import (
    hypertree_decomposition,
    hypertreewidth_at_most,
    hypertreewidth_exact,
)
from repro.hypergraphs.treedecomp import decomposition_from_elimination_order
from repro.hypergraphs.treewidth import (
    min_fill_order,
    tree_decomposition,
    treewidth_at_most,
    treewidth_exact,
    treewidth_lower_bound,
    treewidth_upper_bound,
)

COMMON = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
small_mapping = st.dictionaries(
    keys=st.sampled_from(["?a", "?b", "?c", "?d"]),
    values=st.integers(0, 2),
    max_size=4,
).map(Mapping)


@st.composite
def small_database(draw):
    # Sparse on purpose: dense binary relations make WDPT answer sets (and
    # hence any correct evaluator's output) combinatorially large.
    n = draw(st.integers(1, 12))
    rng = random.Random(draw(st.integers(0, 10**6)))
    facts = [
        atom("E", rng.randrange(6), rng.randrange(6)) for _ in range(n)
    ]
    return Database(facts)


@st.composite
def small_cq(draw):
    n_atoms = draw(st.integers(1, 4))
    pool = ["?v0", "?v1", "?v2", "?v3", "?v4"]
    rng = random.Random(draw(st.integers(0, 10**6)))
    atoms = [
        atom("E", rng.choice(pool), rng.choice(pool)) for _ in range(n_atoms)
    ]
    used = sorted({v for a in atoms for v in a.variables()})
    n_free = draw(st.integers(0, len(used)))
    return ConjunctiveQuery(used[:n_free], atoms)


@st.composite
def small_wdpt(draw):
    from repro.workloads.generators import random_wdpt

    seed = draw(st.integers(0, 10**6))
    depth = draw(st.integers(1, 2))
    return random_wdpt(
        depth=depth,
        fanout=2,
        atoms_per_node=draw(st.integers(1, 2)),
        fresh_vars_per_node=1,
        free_fraction=draw(st.sampled_from([0.3, 0.6, 1.0])),
        seed=seed,
    )


@st.composite
def small_hypergraph(draw):
    n_edges = draw(st.integers(1, 8))
    rng = random.Random(draw(st.integers(0, 10**6)))
    edges = []
    for _ in range(n_edges):
        size = rng.randint(1, 3)
        edges.append({rng.randrange(7) for _ in range(size)})
    return Hypergraph(edges)


# ---------------------------------------------------------------------------
# Mapping order properties
# ---------------------------------------------------------------------------
@COMMON
@given(small_mapping, small_mapping, small_mapping)
def test_subsumption_is_a_partial_order(a, b, c):
    assert a.subsumed_by(a)
    if a.subsumed_by(b) and b.subsumed_by(a):
        assert a == b
    if a.subsumed_by(b) and b.subsumed_by(c):
        assert a.subsumed_by(c)


@COMMON
@given(st.lists(small_mapping, max_size=8))
def test_maximal_mappings_matches_brute_force(mappings):
    expected = frozenset(
        m for m in mappings if not any(m.properly_subsumed_by(o) for o in mappings)
    )
    assert maximal_mappings(mappings) == expected


@COMMON
@given(small_mapping, small_mapping)
def test_union_when_compatible_subsumes_both(a, b):
    if a.compatible(b):
        u = a.union(b)
        assert a.subsumed_by(u) and b.subsumed_by(u)


# ---------------------------------------------------------------------------
# CQ engines agree
# ---------------------------------------------------------------------------
@COMMON
@given(small_cq(), small_database())
def test_cq_engines_agree(query, db):
    from repro.cqalgs.naive import evaluate_naive
    from repro.cqalgs.yannakakis import evaluate_acyclic
    from tests.test_structured_eval import assert_elimination_agrees

    assert_elimination_agrees(query, db.facts())
    if join_tree_of_atoms(sorted(query.atoms)) is not None:
        assert evaluate_acyclic(query, db) == evaluate_naive(query, db)


# ---------------------------------------------------------------------------
# Width machinery invariants
# ---------------------------------------------------------------------------
@COMMON
@given(small_hypergraph())
def test_treewidth_bounds_bracket_exact(H):
    exact = treewidth_exact(H)
    assert treewidth_lower_bound(H) <= exact <= treewidth_upper_bound(H)


@COMMON
@given(small_hypergraph())
def test_elimination_order_decomposition_valid(H):
    td = decomposition_from_elimination_order(H, min_fill_order(H))
    assert td.is_valid_for(H)


@COMMON
@given(small_hypergraph())
def test_widths_decisions_and_decompositions_agree(H):
    """Both widths come from one search: its decision at every ``k``, its
    exact value, the bounds around it, and the witness decomposition it
    returns all tell the same story."""
    tw = treewidth_exact(H)
    assert treewidth_lower_bound(H) <= tw <= treewidth_upper_bound(H)
    for k in range(-1, len(H.vertices) + 1):
        assert treewidth_at_most(H, k) is (k >= tw)
    ghw = hypertreewidth_exact(H)
    # Every edge covers itself, and a bag of tw + 1 vertices needs at most
    # tw + 1 edges — and at least ⌈(tw + 1) / r⌉ of at most r vertices,
    # the bound the exact scan starts from.
    assert 1 <= ghw <= min(len(H.edges), tw + 1)
    rank = max(map(len, H.edges))
    assert -(-(treewidth_lower_bound(H) + 1) // rank) <= -(-(tw + 1) // rank) <= ghw
    # The decision procedure uses no lower bound: agreeing with it at
    # every k shows the bound changed no exact width.
    for k in range(-1, len(H.edges) + 1):
        assert hypertreewidth_at_most(H, k) is (k >= ghw)
    td = tree_decomposition(H)
    assert td.is_valid_for(H) and td.width() == tw
    htd = hypertree_decomposition(H)
    assert htd.violations(H) == [] and htd.hypertree_width() == ghw


# ---------------------------------------------------------------------------
# Cores and quotients
# ---------------------------------------------------------------------------
@COMMON
@given(small_cq())
def test_core_is_equivalent_and_idempotent(query):
    from tests.harness.oracles import are_equivalent
    from repro.cqalgs.cores import core

    c = core(query)
    assert are_equivalent(query, c)
    assert core(c) == c


@COMMON
@given(small_cq())
def test_quotients_contained_in_query(query):
    from repro.cqalgs.containment import is_contained_in
    from repro.cqalgs.quotients import enumerate_quotients

    for q in enumerate_quotients(query):
        assert is_contained_in(q, query)


# ---------------------------------------------------------------------------
# WDPT evaluators and decision procedures agree
# ---------------------------------------------------------------------------
@COMMON
@given(small_wdpt(), small_database())
def test_wdpt_evaluators_agree(p, db):
    from repro.wdpt.evaluation import evaluate, evaluate_reference

    assert evaluate(p, db) == evaluate_reference(p, db)


@COMMON
@given(small_wdpt(), small_database())
def test_eval_dp_agrees_on_answers_and_restrictions(p, db):
    from repro.wdpt.eval_tractable import eval_tractable
    from repro.wdpt.evaluation import evaluate

    answers = evaluate(p, db)
    for h in list(answers)[:6]:
        assert eval_tractable(p, db, h)
        domain = sorted(h.domain())
        if domain:
            restricted = h.restrict(domain[1:])
            assert eval_tractable(p, db, restricted) == (restricted in answers)


@COMMON
@given(small_wdpt(), small_database())
def test_partial_and_max_eval_agree_with_definitions(p, db):
    from repro.wdpt.evaluation import evaluate, evaluate_max
    from repro.wdpt.max_eval import max_eval
    from repro.wdpt.partial_eval import partial_eval

    answers = evaluate(p, db)
    maximal = evaluate_max(p, db)
    for h in list(answers)[:5]:
        assert partial_eval(p, db, h)
        assert max_eval(p, db, h) == (h in maximal)


@COMMON
@given(small_wdpt())
def test_lemma1_normal_form_equivalent(p):
    from repro.wdpt.subsumption import is_subsumption_equivalent
    from repro.wdpt.transform import lemma1_normal_form

    assert is_subsumption_equivalent(p, lemma1_normal_form(p))
