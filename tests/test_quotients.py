"""Unit tests for CQ quotients (the approximation witness space)."""

import pytest

from repro.core.atoms import atom
from repro.core.cq import cq
from repro.core.terms import Variable
from repro.cqalgs.containment import is_contained_in
from repro.cqalgs.quotients import enumerate_quotients, quotient
from repro.exceptions import BudgetExceededError, ConstantsNotSupportedError


@pytest.fixture
def tri():
    return cq([], [atom("E", "?x", "?y"), atom("E", "?y", "?z"), atom("E", "?z", "?x")])


class TestQuotient:
    def test_merge_two_existentials(self, tri):
        q = quotient(tri, [[Variable("x"), Variable("y")]])
        assert len(q.variables()) == 2
        assert atom("E", "?x", "?x") in q.atoms

    def test_free_representative_wins(self):
        q0 = cq(["?x"], [atom("E", "?x", "?y")])
        q = quotient(q0, [[Variable("y"), Variable("x")]])
        assert q.free_variables == (Variable("x"),)
        assert q.atoms == frozenset([atom("E", "?x", "?x")])

    def test_two_frees_in_block_rejected(self):
        q0 = cq(["?x", "?y"], [atom("E", "?x", "?y")])
        with pytest.raises(ValueError):
            quotient(q0, [[Variable("x"), Variable("y")]])

    def test_identity_blocks(self, tri):
        assert quotient(tri, [[v] for v in tri.variables()]) == tri


class TestEnumeration:
    def test_count_matches_bell_for_existentials(self, tri):
        # 3 existential variables, no frees: Bell(3) = 5 partitions.
        assert len(list(enumerate_quotients(tri))) == 5

    def test_all_quotients_contained_in_original(self, tri):
        for q in enumerate_quotients(tri):
            assert is_contained_in(q, tri)

    def test_identity_included(self, tri):
        assert tri in set(enumerate_quotients(tri))

    def test_total_collapse_included(self, tri):
        loop = cq([], [atom("E", "?x", "?x")])
        quotients = list(enumerate_quotients(tri))
        assert any(q.atoms == loop.atoms for q in quotients)

    def test_free_variables_never_merged(self):
        q0 = cq(["?x", "?y"], [atom("E", "?x", "?y"), atom("E", "?y", "?z")])
        for q in enumerate_quotients(q0):
            assert q.free_variables == q0.free_variables

    def test_constants_rejected(self):
        q0 = cq([], [atom("E", "?x", "c")])
        with pytest.raises(ConstantsNotSupportedError):
            list(enumerate_quotients(q0))

    def test_budget(self):
        big = cq([], [atom("R", *("?v%d" % i for i in range(13)))])
        with pytest.raises(BudgetExceededError):
            list(enumerate_quotients(big))

    def test_deduplication(self):
        q0 = cq([], [atom("E", "?x", "?y")])
        quotients = list(enumerate_quotients(q0))
        assert len(quotients) == len(set(quotients)) == 2  # identity + collapse
