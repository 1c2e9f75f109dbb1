"""Unit tests for unions of WDPTs (Section 6)."""

import pytest

from repro.core.atoms import atom
from repro.core.cq import cq
from repro.core.database import Database
from repro.core.mappings import Mapping
from repro.telemetry.tracer import tracing
from repro.wdpt.classes import WB_TW, is_in_wb
from repro.wdpt.subsumption import unsubsumed_subtree
from repro.wdpt.unions import (
    UWDPT,
    as_union_of_cqs,
    evaluate_union,
    evaluate_union_max,
    is_in_m_uwb,
    is_uwb_approximation,
    phi_cq,
    phi_cq_reduced,
    union_eval,
    union_max_eval,
    union_partial_eval,
    union_partial_eval_witness,
    union_subsumed_by,
    union_subsumption_equivalent,
    uwb_approximation,
    uwb_equivalent,
)
from repro.wdpt.wdpt import WDPT, wdpt_from_nested
from repro.workloads.families import example2_graph, figure1_wdpt


@pytest.fixture
def figure1():
    return figure1_wdpt()


@pytest.fixture
def db():
    return example2_graph().to_database()


@pytest.fixture
def tri_union():
    tri = WDPT.from_cq(
        cq([], [atom("E", "?x", "?y"), atom("E", "?y", "?z"), atom("E", "?z", "?x")])
    )
    edge = WDPT.from_cq(cq(["?a"], [atom("F", "?a", "?b")]))
    return UWDPT([tri, edge])


class TestBasics:
    def test_empty_union_rejected(self):
        with pytest.raises(ValueError):
            UWDPT([])

    def test_evaluation_is_union(self, figure1, db):
        other = WDPT.from_cq(cq(["?y"], [atom("triple", "?y", "formed_in", "?f")]))
        phi = UWDPT([figure1, other])
        from repro.wdpt.evaluation import evaluate

        assert evaluate_union(phi, db) == evaluate(figure1, db) | evaluate(other, db)

    def test_union_eval(self, figure1, db):
        phi = UWDPT([figure1])
        assert union_eval(phi, db, Mapping({"?x": "Our_love", "?y": "Caribou"}))
        assert not union_eval(phi, db, Mapping({"?x": "Swim", "?y": "Caribou"}))

    def test_union_partial_eval(self, figure1, db):
        phi = UWDPT([figure1])
        assert union_partial_eval(phi, db, Mapping({"?y": "Caribou"}))
        assert not union_partial_eval(phi, db, Mapping({"?y": "Beatles"}))

    def test_union_max_eval_matches_semantics(self, figure1, db):
        p7 = figure1.with_free_variables(["?y", "?z"])
        phi = UWDPT([p7])
        maximal = evaluate_union_max(phi, db)
        assert maximal == {Mapping({"?y": "Caribou", "?z": "2"})}
        for h in maximal:
            assert union_max_eval(phi, db, h)
        assert not union_max_eval(phi, db, Mapping({"?y": "Caribou"}))

    def test_max_eval_across_members(self, db):
        # Answers of one member can be non-maximal because of another.
        narrow = figure1_wdpt(projection=("?y",))
        wide = figure1_wdpt(projection=("?y", "?z"))
        phi = UWDPT([narrow, wide])
        assert not union_max_eval(phi, db, Mapping({"?y": "Caribou"}))
        assert union_max_eval(phi, db, Mapping({"?y": "Caribou", "?z": "2"}))


    def test_planner_routed_checks_agree_with_the_planner_less_ones(self, db):
        """Theorem 16 with ``planner=``: every check goes through the
        router (counted there) and decides what the backtracking search
        decides, on answers, their restrictions and non-answers alike."""
        from repro.planner import Planner

        narrow = figure1_wdpt(projection=("?y",))
        wide = figure1_wdpt(projection=("?y", "?z"))
        phi = UWDPT([narrow, wide])
        candidates = {Mapping(), Mapping({"?y": "Beatles"}), Mapping({"?z": "7"})}
        for answer in evaluate_union(phi, db):
            candidates |= {answer, answer.restrict(["?y"]), answer.restrict(["?z"])}
        planner = Planner()
        for h in sorted(candidates, key=repr):
            assert union_partial_eval(phi, db, h, planner=planner) is (
                union_partial_eval(phi, db, h)
            ), h
            assert union_max_eval(phi, db, h, planner=planner) is (
                union_max_eval(phi, db, h)
            ), h
        assert sum(planner.engine_selections.values()) >= len(candidates)


class TestPhiCq:
    def test_example8_count(self):
        # Figure 1 tree with projection {y, z, z2}: 4 subtree CQs.
        p = figure1_wdpt(projection=("?y", "?z", "?z2"))
        cqs = phi_cq(UWDPT([p]))
        assert len(cqs) == 4
        heads = {frozenset(q.free_variables) for q in cqs}
        from repro.core.terms import Variable

        y, z, z2 = Variable("y"), Variable("z"), Variable("z2")
        assert heads == {
            frozenset({y}),
            frozenset({y, z}),
            frozenset({y, z2}),
            frozenset({y, z, z2}),
        }

    def test_phi_equiv_phi_cq(self, figure1):
        phi = UWDPT([figure1])
        assert union_subsumption_equivalent(phi, as_union_of_cqs(phi_cq(phi)))

    def test_reduced_no_containments(self, figure1):
        from tests.harness.oracles import is_properly_contained_in

        reduced = phi_cq_reduced(UWDPT([figure1]))
        for q1 in reduced:
            for q2 in reduced:
                assert not is_properly_contained_in(q1, q2)


class TestUnionSubsumption:
    def test_member_subsumed_by_union(self, figure1):
        phi_small = UWDPT([figure1])
        other = WDPT.from_cq(cq(["?q"], [atom("G", "?q")]))
        phi_big = UWDPT([figure1, other])
        assert union_subsumed_by(phi_small, phi_big)
        assert not union_subsumed_by(phi_big, phi_small)

    def test_free_variables_split_across_members_fail_before_any_walk(self):
        """Each member of ``halves`` has the body of ``both`` and one of its
        free variables; ``both``'s answer binding ``?x`` and ``?y`` is
        subsumed by no answer of either half.  The free tuples alone decide
        this, so no subsumption walk runs — and the walk agrees."""
        body = [atom("R", "?x", "?y")]
        both = UWDPT([WDPT.from_cq(cq(["?x", "?y"], body))])
        halves = UWDPT([WDPT.from_cq(cq(["?x"], body)), WDPT.from_cq(cq(["?y"], body))])
        with tracing() as tracer:
            assert not union_subsumed_by(both, halves)
        assert list(tracer.find("wdpt.subsumption")) == []
        (p,) = both
        assert unsubsumed_subtree(
            p, lambda db, nu, carried: union_partial_eval_witness(halves, db, nu, carried)
        ) is not None
        with tracing() as tracer:
            assert union_subsumed_by(halves, both)
        assert len(list(tracer.find("wdpt.subsumption"))) == 2


class TestSemanticOptimization:
    def test_membership_negative(self, tri_union):
        assert not is_in_m_uwb(tri_union, 1, WB_TW)

    def test_membership_positive(self, tri_union):
        assert is_in_m_uwb(tri_union, 2, WB_TW)

    def test_equivalent_union_construction(self, tri_union):
        equivalent = uwb_equivalent(tri_union, 2, WB_TW)
        assert equivalent is not None
        assert all(is_in_wb(p, 2, WB_TW) for p in equivalent)
        assert union_subsumption_equivalent(tri_union, equivalent)

    def test_equivalent_union_none_when_not_member(self, tri_union):
        assert uwb_equivalent(tri_union, 1, WB_TW) is None

    def test_membership_with_foldable_member(self):
        # Triangle with a self-loop folds to TW(1).
        q = cq([], [atom("E", "?x", "?y"), atom("E", "?y", "?z"), atom("E", "?z", "?x"),
                    atom("E", "?w", "?w")])
        phi = UWDPT([WDPT.from_cq(q)])
        assert is_in_m_uwb(phi, 1, WB_TW)


class TestUwbApproximation:
    def test_soundness(self, tri_union):
        app = uwb_approximation(tri_union, 1, WB_TW)
        assert all(is_in_wb(p, 1, WB_TW) for p in app)
        assert union_subsumed_by(app, tri_union)

    def test_is_uwb_approximation_accepts_canonical(self, tri_union):
        app = uwb_approximation(tri_union, 1, WB_TW)
        assert is_uwb_approximation(app, tri_union, 1, WB_TW)

    def test_rejects_too_weak(self, tri_union):
        weak = UWDPT([WDPT.from_cq(cq(["?a"], [atom("F", "?a", "?b")]))])
        # weak ⊑ tri_union and in class, but misses the E-loop disjunct.
        assert not is_uwb_approximation(weak, tri_union, 1, WB_TW)

    def test_rejects_unsound(self, tri_union):
        unsound = UWDPT([WDPT.from_cq(cq([], [atom("G", "?g")]))])
        assert not is_uwb_approximation(unsound, tri_union, 1, WB_TW)

    def test_size(self, tri_union):
        assert tri_union.size() == 8
        assert len(tri_union) == 2
