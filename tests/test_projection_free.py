"""Unit tests for projection-free evaluation (Theorem 4)."""

import pytest

from repro.core.atoms import atom
from repro.core.database import Database
from repro.core.mappings import Mapping
from repro.wdpt.eval_tractable import eval_tractable
from repro.wdpt.evaluation import evaluate
from repro.wdpt.projection_free import eval_projection_free
from repro.wdpt.wdpt import wdpt_from_nested
from repro.workloads.families import example2_graph, figure1_wdpt
from repro.workloads.generators import random_database, random_wdpt


@pytest.fixture
def figure1():
    return figure1_wdpt()  # projection-free by default


@pytest.fixture
def db():
    return example2_graph().to_database()


class TestFigure1:
    def test_positive(self, figure1, db):
        assert eval_projection_free(
            figure1, db, Mapping({"?x": "Our_love", "?y": "Caribou"})
        )
        assert eval_projection_free(
            figure1, db, Mapping({"?x": "Swim", "?y": "Caribou", "?z": "2"})
        )

    def test_non_maximal_rejected(self, figure1, db):
        assert not eval_projection_free(
            figure1, db, Mapping({"?x": "Swim", "?y": "Caribou"})
        )

    def test_wrong_domain_rejected(self, figure1, db):
        # h defined on a variable its witness region doesn't cover.
        assert not eval_projection_free(
            figure1, db, Mapping({"?x": "Our_love", "?y": "Caribou", "?z2": "1990"})
        )

    def test_projection_required(self, figure1, db):
        p = figure1.with_free_variables(["?x"])
        with pytest.raises(ValueError):
            eval_projection_free(p, db, Mapping({"?x": "Swim"}))


class TestAgainstGeneralDP:
    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_theorem6_dp(self, seed):
        p = random_wdpt(
            depth=2, fanout=2, atoms_per_node=2, fresh_vars_per_node=1,
            free_fraction=1.0, seed=seed,
        )
        assert p.is_projection_free()
        db = random_database(10, relations=("E",), domain_size=5, seed=seed + 9)
        answers = evaluate(p, db)
        for h in list(answers)[:10]:
            assert eval_projection_free(p, db, h)
            assert eval_tractable(p, db, h)
        # some negatives: strict restrictions
        for h in list(answers)[:5]:
            domain = sorted(h.domain())
            if len(domain) > 1:
                restricted = h.restrict(domain[:-1])
                assert eval_projection_free(p, db, restricted) == (restricted in answers)


class TestEdgeCases:
    def test_unmatched_root(self):
        p = wdpt_from_nested(([atom("A", "?x")], []), free_variables=["?x"])
        db = Database([atom("B", 1)])
        assert not eval_projection_free(p, db, Mapping({"?x": 1}))

    def test_foreign_variable(self):
        p = wdpt_from_nested(([atom("A", "?x")], []), free_variables=["?x"])
        db = Database([atom("A", 1)])
        assert not eval_projection_free(p, db, Mapping({"?zz": 1}))

    def test_frontier_blocking(self):
        p = wdpt_from_nested(
            ([atom("A", "?x")], [([atom("B", "?x", "?y")], [])]),
            free_variables=["?x", "?y"],
        )
        db = Database([atom("A", 1), atom("A", 2), atom("B", 2, 5)])
        assert eval_projection_free(p, db, Mapping({"?x": 1}))
        assert not eval_projection_free(p, db, Mapping({"?x": 2}))
        assert eval_projection_free(p, db, Mapping({"?x": 2, "?y": 5}))
