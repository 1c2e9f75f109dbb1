"""Unit tests for WDPT semantics (Definition 2) and general evaluation."""

import pytest

from repro.core.atoms import atom
from repro.core.database import Database
from repro.core.mappings import Mapping
from repro.wdpt.evaluation import (
    eval_check,
    evaluate,
    evaluate_max,
    evaluate_reference,
    homomorphisms_reference,
    max_eval_check,
    maximal_homomorphisms,
)
from repro.wdpt.wdpt import WDPT, wdpt_from_nested
from repro.workloads.families import example2_graph, figure1_wdpt
from repro.workloads.generators import random_database, random_wdpt
from tests.harness.oracles import partial_eval_check


@pytest.fixture
def figure1():
    return figure1_wdpt()


@pytest.fixture
def db():
    return example2_graph().to_database()


class TestExample2:
    def test_answers(self, figure1, db):
        answers = evaluate(figure1, db)
        assert answers == {
            Mapping({"?x": "Our_love", "?y": "Caribou"}),
            Mapping({"?x": "Swim", "?y": "Caribou", "?z": "2"}),
        }

    def test_reference_agrees(self, figure1, db):
        assert evaluate(figure1, db) == evaluate_reference(figure1, db)

    def test_homomorphisms_include_non_maximal(self, figure1, db):
        homs = homomorphisms_reference(figure1, db)
        maximal = maximal_homomorphisms(figure1, db)
        assert maximal <= homs
        assert len(homs) > len(maximal)


class TestExample3:
    def test_projection(self, figure1, db):
        p = figure1.with_free_variables(["?y", "?z", "?z2"])
        assert evaluate(p, db) == {
            Mapping({"?y": "Caribou"}),
            Mapping({"?y": "Caribou", "?z": "2"}),
        }


class TestExample7:
    def test_max_semantics(self, figure1, db):
        p = figure1.with_free_variables(["?y", "?z"])
        assert evaluate(p, db) == {
            Mapping({"?y": "Caribou"}),
            Mapping({"?y": "Caribou", "?z": "2"}),
        }
        assert evaluate_max(p, db) == {Mapping({"?y": "Caribou", "?z": "2"})}


class TestCQEmbedding:
    def test_single_node_wdpt_equals_cq(self):
        from repro.core.cq import cq
        from repro.cqalgs.naive import evaluate_naive

        q = cq(["?x"], [atom("E", "?x", "?y")])
        p = WDPT.from_cq(q)
        db = Database([atom("E", 1, 2), atom("E", 3, 4)])
        assert evaluate(p, db) == evaluate_naive(q, db)


class TestOptionalSemantics:
    def test_failed_optional_still_answers(self):
        p = wdpt_from_nested(
            ([atom("A", "?x")], [([atom("B", "?x", "?y")], [])]),
            free_variables=["?x", "?y"],
        )
        db = Database([atom("A", 1)])
        assert evaluate(p, db) == {Mapping({"?x": 1})}

    def test_successful_optional_must_extend(self):
        p = wdpt_from_nested(
            ([atom("A", "?x")], [([atom("B", "?x", "?y")], [])]),
            free_variables=["?x", "?y"],
        )
        db = Database([atom("A", 1), atom("B", 1, 5)])
        # {?x: 1} alone is NOT maximal — B(1,5) extends it.
        assert evaluate(p, db) == {Mapping({"?x": 1, "?y": 5})}

    def test_mixed(self):
        p = wdpt_from_nested(
            ([atom("A", "?x")], [([atom("B", "?x", "?y")], [])]),
            free_variables=["?x", "?y"],
        )
        db = Database([atom("A", 1), atom("A", 2), atom("B", 2, 9)])
        assert evaluate(p, db) == {
            Mapping({"?x": 1}),
            Mapping({"?x": 2, "?y": 9}),
        }

    def test_nested_optionals(self):
        p = wdpt_from_nested(
            (
                [atom("A", "?x")],
                [([atom("B", "?x", "?y")], [([atom("C", "?y", "?z")], [])])],
            ),
            free_variables=["?x", "?y", "?z"],
        )
        db = Database([atom("A", 1), atom("B", 1, 2), atom("C", 2, 3)])
        assert evaluate(p, db) == {Mapping({"?x": 1, "?y": 2, "?z": 3})}

    def test_child_with_no_new_variables_acts_as_filter(self):
        # Child {B(x)} adds no variables; answers are identical mappings
        # whether or not it matches.
        p = wdpt_from_nested(
            ([atom("A", "?x")], [([atom("B", "?x")], [([atom("C", "?x", "?y")], [])])]),
            free_variables=["?x", "?y"],
        )
        db = Database([atom("A", 1), atom("A", 2), atom("B", 2), atom("C", 2, 7), atom("C", 1, 8)])
        # For x=1: B fails, so C is unreachable even though C(1,8) exists.
        assert evaluate(p, db) == {
            Mapping({"?x": 1}),
            Mapping({"?x": 2, "?y": 7}),
        }


class TestDecisionWrappers:
    def test_eval_check(self, figure1, db):
        assert eval_check(figure1, db, Mapping({"?x": "Our_love", "?y": "Caribou"}))
        assert not eval_check(figure1, db, Mapping({"?x": "Swim", "?y": "Caribou"}))

    def test_partial_eval_check(self, figure1, db):
        assert partial_eval_check(figure1, db, Mapping({"?y": "Caribou"}))
        assert not partial_eval_check(figure1, db, Mapping({"?y": "Beatles"}))

    def test_max_eval_check(self, figure1, db):
        p = figure1.with_free_variables(["?y", "?z"])
        assert max_eval_check(p, db, Mapping({"?y": "Caribou", "?z": "2"}))
        assert not max_eval_check(p, db, Mapping({"?y": "Caribou"}))


class TestCrossValidation:
    @pytest.mark.parametrize("seed", range(6))
    def test_topdown_equals_reference_on_random_instances(self, seed):
        p = random_wdpt(depth=2, fanout=2, atoms_per_node=2, fresh_vars_per_node=1, seed=seed)
        db = random_database(10, relations=("E",), domain_size=5, seed=seed)
        assert evaluate(p, db) == evaluate_reference(p, db)
