"""Unit tests for PARTIAL-EVAL (Theorem 8)."""

import pytest

from repro.core.atoms import atom
from repro.core.database import Database
from repro.core.mappings import Mapping
from repro.planner.planner import Planner
from repro.wdpt.evaluation import partial_eval_check
from repro.wdpt.partial_eval import partial_answers, partial_eval
from repro.wdpt.wdpt import wdpt_from_nested
from repro.workloads.families import example2_graph, figure1_wdpt
from repro.workloads.generators import random_database, random_wdpt


@pytest.fixture
def figure1():
    return figure1_wdpt()


@pytest.fixture
def db():
    return example2_graph().to_database()


class TestFigure1:
    def test_partial_positive(self, figure1, db):
        assert partial_eval(figure1, db, Mapping({"?y": "Caribou"}))
        assert partial_eval(figure1, db, Mapping({"?x": "Swim"}))
        assert partial_eval(figure1, db, Mapping({"?x": "Swim", "?z": "2"}))

    def test_partial_negative(self, figure1, db):
        assert not partial_eval(figure1, db, Mapping({"?y": "Beatles"}))
        assert not partial_eval(figure1, db, Mapping({"?x": "Swim", "?z": "9"}))

    def test_empty_mapping_iff_any_answer(self, figure1, db):
        assert partial_eval(figure1, db, Mapping({}))
        assert not partial_eval(figure1, Database([atom("other", 1, 2, 3)]), Mapping({}))

    def test_non_free_variable_rejected(self, figure1, db):
        p = figure1.with_free_variables(["?y"])
        assert not partial_eval(p, db, Mapping({"?x": "Swim"}))

    def test_structured_method_agrees(self, figure1, db):
        for h in (Mapping({"?y": "Caribou"}), Mapping({"?y": "Beatles"})):
            assert partial_eval(figure1, db, h) == partial_eval(
                figure1, db, h, planner=Planner()
            )


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_enumeration(self, seed):
        p = random_wdpt(depth=2, fanout=2, atoms_per_node=2, fresh_vars_per_node=1, seed=seed)
        db = random_database(10, relations=("E",), domain_size=5, seed=seed + 7)
        reference = partial_answers(p, db)
        # Every reference partial answer passes; some perturbed ones match
        # the slow decision procedure.
        for h in list(reference)[:20]:
            assert partial_eval(p, db, h)
            assert partial_eval_check(p, db, h)
        adom = sorted(db.active_domain())
        frees = sorted(p.free_variables)
        if frees and adom:
            probe = Mapping({frees[-1]: adom[0]})
            assert partial_eval(p, db, probe) == partial_eval_check(p, db, probe)


class TestPartialAnswersHelper:
    def test_downward_closure(self):
        p = wdpt_from_nested(
            ([atom("A", "?x")], [([atom("B", "?x", "?y")], [])]),
            free_variables=["?x", "?y"],
        )
        db = Database([atom("A", 1), atom("B", 1, 5)])
        answers = partial_answers(p, db)
        assert Mapping({}) in answers
        assert Mapping({"?x": 1}) in answers
        assert Mapping({"?y": 5}) in answers
        assert Mapping({"?x": 1, "?y": 5}) in answers
