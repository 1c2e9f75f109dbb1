"""Property-based tests for the WDPT-level theory.

Deeper invariants than :mod:`tests.test_properties`: order laws of
subsumption on random trees, semantic soundness of the syntactic
subsumption test, φ_cq equivalence, witness certificates, serialization
round-trips, and on projection-free inputs the Theorem 4 / Theorem 6
agreement and ``p_m(D) = p(D)``.
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


def _certifying(check, tree_of):
    """``check`` for the Theorem 11 walker, asserting that every witness
    it returns maps the atoms of its ``T'`` (in the tree ``tree_of``
    names) to facts of ``D_S`` and agrees with ``ν_S``."""

    def certified(db, nu, carried):
        found = check(db, nu, carried)
        if found is not None:
            p, witness = tree_of(found)
            assignment = witness.assignment
            assert all(assignment.get(v) is c for v, c in nu.items())
            assert all(a.substitute(assignment) in db for a in p.atoms_of(witness.nodes))
        return found

    return certified


def _reference_counterexamples(p1, partial_answer):
    """The Theorem 11 loop without a walk: every rooted subtree of ``p1``
    whose frozen free part fails ``partial_answer`` over its canonical
    database, built from scratch."""
    from repro.core.canonical import canonical_database_of_atoms
    from tests.harness.oracles import freezing_of
    from repro.wdpt.subtrees import subtree_free_variables

    return {
        subtree
        for subtree in p1.tree.rooted_subtrees()
        if not partial_answer(
            canonical_database_of_atoms(p1.atoms_of(subtree)),
            freezing_of(subtree_free_variables(p1, subtree)),
        )
    }


@settings(COMMON, max_examples=40)
@given(reprojected_pair())
def test_carried_witnesses_are_certificates(pair):
    """Carrying each check's witness down the walk changes no verdict and
    no counterexample, for WDPTs and for unions, in both orders; and every
    witness a check returns is a homomorphism into ``D_S`` extending ``ν_S``."""
    from repro.wdpt.partial_eval import partial_eval, partial_eval_witness
    from repro.wdpt.subsumption import unsubsumed_subtree
    from repro.wdpt.unions import (
        UWDPT,
        union_partial_eval,
        union_partial_eval_witness,
        union_subsumed_by,
    )

    p, q = pair
    for p1, p2 in ((p, q), (q, p)):
        failing = _reference_counterexamples(p1, lambda db, nu: partial_eval(p2, db, nu))
        found = unsubsumed_subtree(p1, _certifying(
            lambda db, nu, carried: partial_eval_witness(p2, db, nu, carried),
            lambda witness: (p2, witness),
        ))
        cold = unsubsumed_subtree(p1, lambda db, nu, _: partial_eval_witness(p2, db, nu))
        assert (found is None) == (not failing)
        assert found == cold and (found is None or found in failing)

    for phi1, phi2 in ((UWDPT([p, q]), UWDPT([q])), (UWDPT([q]), UWDPT([p, q]))):
        verdict = True
        for member in phi1:
            failing = _reference_counterexamples(
                member, lambda db, nu: union_partial_eval(phi2, db, nu)
            )
            found = unsubsumed_subtree(member, _certifying(
                lambda db, nu, carried: union_partial_eval_witness(phi2, db, nu, carried),
                lambda answer: (phi2.members[answer.member], answer.witness),
            ))
            assert (found is None) == (not failing)
            assert found is None or found in failing
            verdict = verdict and found is None
        assert union_subsumed_by(phi1, phi2) == verdict


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


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@COMMON
@given(wdpt_and_db())
def test_projection_free_answers_are_already_maximal(backend, pair):
    """Without projection every answer is a maximal homomorphism, which no
    other homomorphism strictly extends: ``p_m(D) = p(D)``.  Theorem 4's
    procedure, independent code, accepts exactly the reference answers:
    each of them, and one perturbed candidate per answer (a variable
    dropped, rebound or added) exactly when it is one."""
    from repro.core.mappings import maximal_mappings
    from repro.storage.sqlite import SQLiteBackend
    from repro.wdpt.evaluation import evaluate_max, evaluate_reference
    from repro.wdpt.projection_free import eval_projection_free

    p, db = pair
    p = p.with_free_variables(sorted(p.variables()))
    store = SQLiteBackend(db.facts()) if backend == "sqlite" else db
    answers = evaluate_reference(p, store)
    assert maximal_mappings(answers) == answers == evaluate_max(p, store)
    constants = sorted(store.active_domain(), key=repr)
    for i, answer in enumerate(sorted(answers, key=repr)):
        assert eval_projection_free(p, store, answer)
        bound = sorted(answer.domain(), key=repr)
        unbound = sorted(p.variables() - answer.domain(), key=repr)
        values = answer.as_dict()
        if i % 3 == 0 and bound:
            candidate = answer.restrict(bound[:-1])
        elif i % 3 == 1 and unbound and constants:
            candidate = answer.extend(unbound[0], constants[i % len(constants)])
        elif bound and len(constants) > 1:
            value = values[bound[0]]
            other = next(c for c in constants if c != value)
            candidate = answer.restrict(bound[1:]).extend(bound[0], other)
        else:
            continue
        assert eval_projection_free(p, store, candidate) == (candidate in answers)


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
    from tests.harness.oracles import partial_answers
    from repro.wdpt.transform import lemma1_normal_form

    p, db = pair
    norm = lemma1_normal_form(p)
    assert evaluate_max(p, db) == evaluate_max(norm, db)
    assert partial_answers(p, db) == partial_answers(norm, db)


# ---------------------------------------------------------------------------
# Per-tree shape facts: the subtree functions against the tree walks
# ---------------------------------------------------------------------------
def _walked_minimal_subtree(p, variables):
    """Reference: the union of the root paths walked from each variable's
    top node."""
    nodes = {0}
    for v in variables:
        nodes.update(p.tree.path_to_root(p.top_nodes()[v]))
    return frozenset(nodes)


def _walked_maximal_subtree(p, allowed_free):
    """Reference: a depth-first walk from the root through the nodes that
    mention no free variable outside ``allowed_free``."""
    frees = frozenset(p.free_variables)

    def admissible(n):
        return (p.node_variables(n) & frees) <= allowed_free

    if not admissible(0):
        return frozenset()
    nodes, stack = set(), [0]
    while stack:
        n = stack.pop()
        nodes.add(n)
        stack.extend(c for c in p.tree.children(n) if admissible(c))
    return frozenset(nodes)


def _walked_free_variables(p, nodes):
    """Reference: the free variables among the nodes' variables."""
    vs = set()
    for n in nodes:
        vs |= p.node_variables(n)
    return vs & frozenset(p.free_variables)


@COMMON
@given(wdpt_and_db(), st.data())
def test_subtree_sets_equal_the_tree_walks(pair, data):
    from repro.core.terms import Variable
    from repro.wdpt.subtrees import (
        maximal_subtree_within_free,
        minimal_subtree_containing,
        subtree_free_variables,
    )

    p, _ = pair
    variables = sorted(p.variables(), key=repr)
    frees = sorted(p.free_variables, key=repr)
    for _ in range(4):
        chosen = data.draw(st.lists(st.sampled_from(variables), unique=True))
        allowed = frozenset(
            data.draw(st.lists(st.sampled_from(frees), unique=True)) if frees else ()
        )
        nodes = data.draw(st.sets(st.sampled_from(list(p.tree.nodes()))))
        assert minimal_subtree_containing(p, chosen) == _walked_minimal_subtree(p, chosen)
        assert maximal_subtree_within_free(p, allowed) == (
            _walked_maximal_subtree(p, allowed)
        )
        assert subtree_free_variables(p, nodes) == _walked_free_variables(p, nodes)
    with pytest.raises(KeyError, match="does not occur"):
        minimal_subtree_containing(p, variables + [Variable("not_in_the_tree")])


# ---------------------------------------------------------------------------
# Decisions through a warm session against the enumerating checks
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@COMMON
@given(wdpt_and_db(), st.data())
def test_warm_session_decisions_equal_the_checks(backend, pair, data):
    """``ask``/``is_partial``/``is_maximal`` equal ``eval_check``,
    ``partial_eval_check`` and ``max_eval_check`` over candidates of mixed
    domains — answers, their restrictions and arbitrary assignments —
    once the session has decided every candidate before."""
    from repro.core.mappings import Mapping
    from repro.engine import Session
    from repro.wdpt.evaluation import eval_check, evaluate, max_eval_check
    from tests.harness.oracles import partial_eval_check

    p, db = pair
    frees = sorted(p.free_variables, key=repr)
    values = sorted({c for fact in db.facts() for c in fact.args}, key=repr)
    candidates = []
    for answer in sorted(evaluate(p, db), key=repr)[:3]:
        kept = data.draw(st.sets(st.sampled_from(sorted(answer.domain(), key=repr))))
        candidates += [answer, answer.restrict(kept)] if answer else [answer]
    for _ in range(3):
        domain = data.draw(st.sets(st.sampled_from(frees))) if frees else ()
        draw_value = st.sampled_from(values)
        candidates.append(
            Mapping({v: data.draw(draw_value) for v in sorted(domain, key=repr)})
        )
    checks = (
        ("ask", eval_check), ("is_partial", partial_eval_check),
        ("is_maximal", max_eval_check),
    )
    with Session(db, backend=backend, cache=False) as session:
        for kind, _ in checks:
            for candidate in candidates:
                getattr(session, kind)(p, candidate)
        for kind, check in checks:
            for candidate in candidates:
                assert getattr(session, kind)(p, candidate) is check(p, db, candidate), (
                    kind, candidate,
                )


# ---------------------------------------------------------------------------
# Bound checks: the planner's routes against the backtracking search
# ---------------------------------------------------------------------------
#: A constant no generated database stores.
_UNSEEN = 99


@st.composite
def atoms_and_db(draw):
    """A random atom set over ``E``/``F`` with, now and then, an atom that
    repeats a variable, holds a constant no fact has, names a relation the
    database lacks or has the wrong arity; and a random ``E``/``F``
    database with a few facts removed again."""
    from tests.harness.generators import random_cq
    from repro.workloads.generators import random_database

    seed = draw(st.integers(0, 10**6))
    q = random_cq(
        draw(st.integers(1, 4)), draw(st.integers(2, 4)), relations=("E", "F"),
        seed=seed,
    )
    atoms = list(q.atoms)
    extras = (
        atom("E", "?v0", "?v0"), atom("F", "?v1", _UNSEEN), atom("G", "?v0", 1),
        atom("E", "?v1", "?v2", "?v0"),
    )
    atoms += draw(st.lists(st.sampled_from(extras), max_size=2, unique=True))
    db = random_database(
        draw(st.integers(3, 14)), relations=("E", "F"), domain_size=4, seed=seed + 1
    )
    for fact in draw(st.lists(st.sampled_from(sorted(db.facts())), max_size=3)):
        db.discard(fact)
    return atoms, db


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@COMMON
@given(atoms_and_db(), st.data())
def test_satisfiable_substituted_equals_the_search(backend, case, data):
    """``Planner.satisfiable_substituted`` — on whichever route the
    binding takes it, ``probe`` or the shape's engine — equals
    ``cqalgs.naive.satisfiable`` for bindings over every variable subset,
    values drawn from the stored ones and one never stored."""
    from repro.core.atoms import variables_of
    from repro.core.mappings import Mapping
    from repro.core.terms import Constant
    from repro.cqalgs.naive import satisfiable
    from repro.planner import Planner, StructuralProfile
    from repro.storage.sqlite import SQLiteBackend

    atoms, db = case
    store = SQLiteBackend(db.facts()) if backend == "sqlite" else db
    planner = Planner()
    profile = StructuralProfile(atoms)
    variables = sorted(variables_of(atoms), key=repr)
    values = sorted({c for fact in db.facts() for c in fact.args}, key=repr)
    draw_value = st.sampled_from(values + [Constant(_UNSEEN)])
    for mask in range(1 << len(variables)):
        bound = [v for i, v in enumerate(variables) if mask >> i & 1]
        bind = {v: data.draw(draw_value) for v in bound}
        expected = satisfiable(atoms, db, Mapping(bind))
        assert planner.satisfiable_substituted(profile, bind, store) is expected, bind


@st.composite
def pattern_and_db(draw):
    """A pattern of any arity over a stored, an absent or a mis-sized
    relation, mixing (possibly repeated) variables with stored and unseen
    constants; and a random database with a few facts removed again."""
    from repro.core.atoms import Atom
    from repro.workloads.generators import random_database

    seed = draw(st.integers(0, 10**6))
    db = random_database(
        draw(st.integers(1, 14)), relations=("E", "F"), arity=3, domain_size=3,
        seed=seed,
    )
    for fact in draw(st.lists(st.sampled_from(sorted(db.facts())), max_size=4)):
        db.discard(fact)
    terms = st.sampled_from(["?a", "?b", 0, 1, 2, _UNSEEN])
    relation = draw(st.sampled_from(["E", "F", "G"]))
    pattern = Atom(relation, draw(st.lists(terms, min_size=2, max_size=4)))
    return pattern, db


@COMMON
@given(pattern_and_db())
def test_exists_equals_nonempty_rows(case):
    """``exists(p)`` is ``bool(rows(p))`` on both backends, and both
    backends agree."""
    from repro.storage.sqlite import SQLiteBackend

    pattern, db = case
    lite = SQLiteBackend(db.facts())
    expected = bool(list(db.rows(pattern)))
    assert db.exists(pattern) is expected
    assert lite.exists(pattern) is bool(list(lite.rows(pattern))) is expected


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@COMMON
@given(wdpt_and_db(), st.data())
def test_fully_bound_decisions_equal_the_checks(backend, pair, data):
    """``ask``/``is_partial``/``is_maximal`` of candidates that bind every
    free variable — answers and arbitrary assignments, the shape of the
    checks the ``probe`` route decides — equal ``eval_check``,
    ``partial_eval_check`` and ``max_eval_check``."""
    from repro.core.mappings import Mapping
    from repro.engine import Session
    from repro.wdpt.evaluation import eval_check, evaluate, max_eval_check
    from tests.harness.oracles import partial_eval_check

    p, db = pair
    frees = sorted(p.free_variables, key=repr)
    values = sorted({c for fact in db.facts() for c in fact.args}, key=repr)
    candidates = [a for a in evaluate(p, db) if len(a) == len(frees)][:3]
    for _ in range(4):
        candidates.append(Mapping({v: data.draw(st.sampled_from(values)) for v in frees}))
    checks = (
        ("ask", eval_check), ("is_partial", partial_eval_check),
        ("is_maximal", max_eval_check),
    )
    with Session(db, backend=backend, cache=False) as session:
        for kind, check in checks:
            for candidate in candidates:
                assert getattr(session, kind)(p, candidate) is check(p, db, candidate), (
                    kind, candidate,
                )
