"""Edge-case tests for the structured CQ engine internals."""

import pytest

from repro.core.atoms import atom
from repro.core.cq import cq
from repro.core.database import Database
from repro.core.mappings import Mapping
from repro.cqalgs.naive import evaluate_naive
from repro.cqalgs.structured import evaluate_bounded_treewidth


@pytest.fixture
def db():
    return Database(
        [atom("E", i, (i + 1) % 5) for i in range(5)]
        + [atom("E", i, i) for i in (0, 2)]
        + [atom("U", 3)]
    )


class TestDegenerateQueries:
    def test_all_ground_query_true(self, db):
        q = cq([], [atom("E", 0, 1), atom("U", 3)])
        assert evaluate_bounded_treewidth(q, db) == frozenset([Mapping()])

    def test_all_ground_query_false(self, db):
        q = cq([], [atom("E", 0, 3)])
        assert evaluate_bounded_treewidth(q, db) == frozenset()

    def test_mixed_ground_and_variable(self, db):
        q = cq(["?x"], [atom("E", "?x", "?x"), atom("U", 3)])
        assert evaluate_bounded_treewidth(q, db) == evaluate_naive(q, db)

    def test_unary_relation_join(self, db):
        q = cq(["?x"], [atom("U", "?x"), atom("E", "?x", "?y")])
        assert evaluate_bounded_treewidth(q, db) == evaluate_naive(q, db)

    def test_empty_answer_propagates(self):
        db = Database([atom("E", 1, 2)])
        q = cq(["?x"], [atom("E", "?x", "?y"), atom("F", "?y")])
        assert evaluate_bounded_treewidth(q, db) == frozenset()


class TestSelfLoops:
    def test_loop_heavy_query(self, db):
        q = cq(
            ["?x", "?z"],
            [atom("E", "?x", "?x"), atom("E", "?x", "?z"), atom("E", "?z", "?z")],
        )
        assert evaluate_bounded_treewidth(q, db) == evaluate_naive(q, db)
