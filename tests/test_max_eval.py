"""Unit tests for MAX-EVAL (Theorem 9 / Section 3.4)."""

import pytest

from repro.core.atoms import atom
from repro.core.database import Database
from repro.core.mappings import Mapping
from repro.planner.planner import Planner
from repro.wdpt.evaluation import evaluate_max, max_eval_check
from repro.wdpt.max_eval import max_eval
from repro.wdpt.wdpt import wdpt_from_nested
from repro.workloads.families import example2_graph, figure1_wdpt
from repro.workloads.generators import random_database, random_wdpt


@pytest.fixture
def example7():
    return figure1_wdpt(projection=("?y", "?z"))


@pytest.fixture
def db():
    return example2_graph().to_database()


class TestExample7:
    def test_maximal_answer(self, example7, db):
        assert max_eval(example7, db, Mapping({"?y": "Caribou", "?z": "2"}))

    def test_subsumed_answer_rejected(self, example7, db):
        # {y: Caribou} ∈ p(D) but is not maximal (Example 7).
        assert not max_eval(example7, db, Mapping({"?y": "Caribou"}))

    def test_non_answer_rejected(self, example7, db):
        assert not max_eval(example7, db, Mapping({"?y": "Beatles"}))

    def test_agrees_with_semantic_definition(self, example7, db):
        for h in evaluate_max(example7, db):
            assert max_eval(example7, db, h)

    def test_structured_method(self, example7, db):
        h = Mapping({"?y": "Caribou", "?z": "2"})
        assert max_eval(example7, db, h, planner=Planner())


class TestMaximalPartialAnswerLemma:
    def test_partial_but_not_answer_can_be_rejected(self):
        # h = {x: 1} is a partial answer (restriction of {x:1, y:5}) but
        # not maximal.
        p = wdpt_from_nested(
            ([atom("A", "?x")], [([atom("B", "?x", "?y")], [])]),
            free_variables=["?x", "?y"],
        )
        db = Database([atom("A", 1), atom("B", 1, 5)])
        assert not max_eval(p, db, Mapping({"?x": 1}))
        assert max_eval(p, db, Mapping({"?x": 1, "?y": 5}))

    def test_projected_intermediate_answers(self):
        # With projection, p(D) may contain subsumed answers; p_m keeps the
        # top ones only.
        p = wdpt_from_nested(
            ([atom("A", "?x")], [([atom("B", "?x", "?y")], [])]),
            free_variables=["?y"],
        )
        db = Database([atom("A", 1), atom("A", 2), atom("B", 2, 9)])
        # answers: {} (from x=1) and {y:9} (from x=2); maximal: {y:9}.
        assert not max_eval(p, db, Mapping({}))
        assert max_eval(p, db, Mapping({"?y": 9}))


class TestCrossValidation:
    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_enumeration(self, seed):
        p = random_wdpt(depth=2, fanout=2, atoms_per_node=2, fresh_vars_per_node=1, seed=seed)
        db = random_database(10, relations=("E",), domain_size=5, seed=seed + 31)
        maximal = evaluate_max(p, db)
        for h in maximal:
            assert max_eval(p, db, h)
        from repro.wdpt.evaluation import evaluate

        for h in evaluate(p, db) - maximal:
            assert not max_eval(p, db, h)

    @pytest.mark.parametrize("seed", range(3))
    def test_probe_values(self, seed):
        p = random_wdpt(depth=1, fanout=2, atoms_per_node=2, fresh_vars_per_node=1, seed=seed)
        db = random_database(8, relations=("E",), domain_size=4, seed=seed + 77)
        frees = sorted(p.free_variables)
        adom = sorted(db.active_domain())
        if frees and adom:
            probe = Mapping({frees[0]: adom[0]})
            assert max_eval(p, db, probe) == max_eval_check(p, db, probe)
