"""Property-based tests for the WDPT-level theory.

Deeper invariants than :mod:`tests.test_properties`: order laws of
subsumption on random trees, semantic soundness of the syntactic
subsumption test, φ_cq equivalence, witness certificates, serialization
round-trips, and the Theorem 4 / Theorem 6 agreement on projection-free
inputs.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.atoms import atom
from repro.core.database import Database

COMMON = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def wdpt_and_db(draw):
    from repro.workloads.generators import random_database, random_wdpt

    seed = draw(st.integers(0, 10**6))
    p = random_wdpt(
        depth=draw(st.integers(1, 2)),
        fanout=2,
        atoms_per_node=draw(st.integers(1, 2)),
        fresh_vars_per_node=1,
        free_fraction=draw(st.sampled_from([0.4, 0.8, 1.0])),
        seed=seed,
    )
    db = random_database(
        draw(st.integers(4, 12)), relations=("E",), domain_size=5, seed=seed + 1
    )
    return p, db


@st.composite
def two_wdpts(draw):
    from repro.workloads.generators import random_wdpt

    seed = draw(st.integers(0, 10**6))
    p = random_wdpt(depth=1, fanout=2, fresh_vars_per_node=1, seed=seed)
    q = random_wdpt(depth=1, fanout=2, fresh_vars_per_node=1, seed=seed + 1)
    return p, q


# ---------------------------------------------------------------------------
# Subsumption order laws
# ---------------------------------------------------------------------------
@COMMON
@given(two_wdpts())
def test_subsumption_reflexive_and_semantically_sound(pair):
    from repro.wdpt.subsumption import is_subsumed_by, subsumed_on
    from repro.workloads.generators import random_database

    p, q = pair
    assert is_subsumed_by(p, p)
    db = random_database(8, relations=("E",), domain_size=4, seed=11)
    if is_subsumed_by(p, q):
        assert subsumed_on(p, q, db)


@COMMON
@given(wdpt_and_db())
def test_projection_monotonicity(pair):
    """Dropping free variables always gives a ⊑-smaller query, both
    syntactically and semantically."""
    from repro.wdpt.evaluation import evaluate
    from repro.wdpt.subsumption import is_subsumed_by

    p, db = pair
    frees = sorted(p.free_variables)
    if len(frees) < 2:
        return
    narrower = p.with_free_variables(frees[:-1])
    assert is_subsumed_by(narrower, p)
    wide = evaluate(p, db)
    for answer in evaluate(narrower, db):
        assert any(answer.subsumed_by(w) for w in wide)


@st.composite
def reprojected_pair(draw):
    """Two trees, or one tree twice, each projected to a drawn subset of
    its free variables: the free tuples differ in most draws, either way."""
    p, q = draw(two_wdpts())
    if draw(st.booleans()):
        q = p
    return tuple(
        t.with_free_variables(
            draw(st.lists(st.sampled_from(t.free_variables), unique=True))
            if t.free_variables else ()
        )
        for t in (p, q)
    )


@settings(COMMON, max_examples=60)
@given(reprojected_pair())
def test_subsumption_decision_agrees_with_the_walk(pair):
    """``is_subsumed_by`` answers some pairs from the free tuples alone;
    the subtree walk behind ``subsumption_counterexample`` decides all."""
    from repro.wdpt.subsumption import is_subsumed_by, subsumption_counterexample

    p, q = pair
    assert is_subsumed_by(p, q) == (subsumption_counterexample(p, q) is None)
    assert is_subsumed_by(q, p) == (subsumption_counterexample(q, p) is None)


# ---------------------------------------------------------------------------
# φ_cq faithfulness
# ---------------------------------------------------------------------------
@COMMON
@given(wdpt_and_db())
def test_phi_cq_answers_bracket_wdpt_answers(pair):
    """φ_cq ≡ₛ φ, checked semantically: the union's answers subsume the
    tree's answers and vice versa on a concrete database."""
    from repro.cqalgs.naive import evaluate_naive
    from repro.wdpt.evaluation import evaluate
    from repro.wdpt.unions import UWDPT, phi_cq

    p, db = pair
    tree_answers = evaluate(p, db)
    union_answers = set()
    for q in phi_cq(UWDPT([p])):
        union_answers |= evaluate_naive(q, db)
    for a in tree_answers:
        assert any(a.subsumed_by(u) for u in union_answers)
    for u in union_answers:
        assert any(u.subsumed_by(a) for a in tree_answers)


# ---------------------------------------------------------------------------
# Witness certificates
# ---------------------------------------------------------------------------
@COMMON
@given(wdpt_and_db())
def test_answers_have_verified_witnesses(pair):
    from repro.wdpt.evaluation import evaluate
    from repro.wdpt.witness import witness

    p, db = pair
    for answer in sorted(evaluate(p, db), key=repr)[:4]:
        w = witness(p, db, answer)
        assert w is not None and w.verify()


# ---------------------------------------------------------------------------
# Projection-free agreement (Theorem 4 vs Theorem 6)
# ---------------------------------------------------------------------------
@COMMON
@given(wdpt_and_db())
def test_projection_free_algorithms_agree(pair):
    from repro.wdpt.eval_tractable import eval_tractable
    from repro.wdpt.evaluation import evaluate
    from repro.wdpt.projection_free import eval_projection_free

    p, db = pair
    if not p.is_projection_free():
        p = p.with_free_variables(sorted(p.variables()))
    answers = evaluate(p, db)
    for answer in sorted(answers, key=repr)[:4]:
        assert eval_projection_free(p, db, answer)
        assert eval_tractable(p, db, answer)
        domain = sorted(answer.domain())
        if domain:
            smaller = answer.restrict(domain[:-1])
            expected = smaller in answers
            assert eval_projection_free(p, db, smaller) == expected
            assert eval_tractable(p, db, smaller) == expected


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------
@COMMON
@given(wdpt_and_db())
def test_serialization_roundtrip_preserves_semantics(pair):
    from repro.serialize import dumps, loads
    from repro.wdpt.evaluation import evaluate

    p, db = pair
    p2 = loads(dumps(p))
    db2 = loads(dumps(db))
    assert p2 == p and db2 == db
    assert evaluate(p2, db2) == evaluate(p, db)


# ---------------------------------------------------------------------------
# Lemma 1 + classes interplay
# ---------------------------------------------------------------------------
@COMMON
@given(wdpt_and_db())
def test_normal_form_preserves_partial_and_max_answers(pair):
    from repro.wdpt.evaluation import evaluate_max
    from repro.wdpt.partial_eval import partial_answers
    from repro.wdpt.transform import lemma1_normal_form

    p, db = pair
    norm = lemma1_normal_form(p)
    assert evaluate_max(p, db) == evaluate_max(norm, db)
    assert partial_answers(p, db) == partial_answers(norm, db)
