"""Validation of the SAT → EVAL reduction against brute-force SAT."""

import random

import pytest

from repro.wdpt.classes import is_locally_in_tw
from repro.wdpt.eval_tractable import eval_tractable
from repro.wdpt.evaluation import eval_check
from tests.harness.generators import sat_eval_instance
from tests.harness.oracles import brute_force_sat


KNOWN = [
    # (n_vars, clauses, satisfiable)
    (1, [[1]], True),
    (1, [[1], [-1]], False),
    (2, [[1, 2], [-1, 2], [1, -2]], True),
    (2, [[1, 2], [-1, 2], [1, -2], [-1, -2]], False),
    (3, [[1, 2, 3], [-1, -2, -3], [1, -2, 3]], True),
    (2, [], True),
]


class TestKnownFormulas:
    @pytest.mark.parametrize("n,clauses,expected", KNOWN)
    def test_brute_force(self, n, clauses, expected):
        assert brute_force_sat(n, clauses) is expected

    @pytest.mark.parametrize("n,clauses,expected", KNOWN)
    def test_reduction_matches(self, n, clauses, expected):
        db, p, h = sat_eval_instance(n, clauses)
        assert eval_tractable(p, db, h) is expected
        assert eval_check(p, db, h) is expected

    def test_instance_is_locally_tractable(self):
        _, p, _ = sat_eval_instance(3, [[1, -2, 3], [-1, 2, -3]])
        assert is_locally_in_tw(p, 1)

    def test_bad_literal(self):
        with pytest.raises(ValueError):
            sat_eval_instance(2, [[3]])


class TestRandomFormulas:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_3cnf(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        clauses = []
        for _ in range(rng.randint(1, 8)):
            clause = []
            for _ in range(3):
                v = rng.randint(1, n)
                clause.append(v if rng.random() < 0.5 else -v)
            clauses.append(clause)
        expected = brute_force_sat(n, clauses)
        db, p, h = sat_eval_instance(n, clauses)
        assert eval_tractable(p, db, h) is expected
