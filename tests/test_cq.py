"""Unit tests for repro.core.cq."""

import pytest

from repro.core.atoms import atom
from repro.core.cq import ConjunctiveQuery, cq
from repro.core.terms import Constant, Variable
from repro.exceptions import SchemaError


@pytest.fixture
def path():
    return cq(["?x", "?z"], [atom("E", "?x", "?y"), atom("E", "?y", "?z")])


class TestConstruction:
    def test_free_variables(self, path):
        assert path.free_variables == (Variable("x"), Variable("z"))

    def test_empty_body_rejected(self):
        with pytest.raises(SchemaError):
            cq([], [])

    def test_free_not_in_body_rejected(self):
        with pytest.raises(SchemaError):
            cq(["?w"], [atom("E", "?x", "?y")])

    def test_duplicate_frees_rejected(self):
        with pytest.raises(SchemaError):
            cq(["?x", "?x"], [atom("E", "?x", "?y")])

    def test_constant_head_rejected(self):
        with pytest.raises(SchemaError):
            cq(["c"], [atom("E", "?x", "?y")])

    def test_body_is_set(self):
        q = cq([], [atom("E", "?x", "?y"), atom("E", "?x", "?y")])
        assert len(q.atoms) == 1


class TestStructure:
    def test_variables(self, path):
        assert path.variables() == {Variable("x"), Variable("y"), Variable("z")}

    def test_existential_variables(self, path):
        assert path.existential_variables() == {Variable("y")}

    def test_constants(self):
        q = cq([], [atom("E", "?x", "c")])
        assert q.constants() == {Constant("c")}

    def test_boolean_and_full_flags(self, path):
        assert not path.is_boolean()
        assert not path.is_full()
        assert path.boolean().is_boolean()
        assert path.full().is_full()

    def test_size(self, path):
        assert path.size() == 4

    def test_relations(self, path):
        assert path.relations() == {"E"}


class TestTransformations:
    def test_with_free_variables(self, path):
        q = path.with_free_variables(["?y"])
        assert q.free_variables == (Variable("y"),)

    def test_rename(self, path):
        q = path.rename({Variable("x"): Variable("a")})
        assert Variable("a") in q.variables()
        assert q.free_variables[0] == Variable("a")

    def test_substitute_drops_free(self, path):
        q = path.substitute({Variable("x"): Constant(1)})
        assert q.free_variables == (Variable("z"),)
        assert Constant(1) in q.constants()

    def test_freshen_disjoint(self, path):
        q = path.freshen("t")
        assert not (q.variables() & path.variables())
        assert len(q.variables()) == len(path.variables())


class TestValueSemantics:
    def test_equality(self, path):
        same = cq(["?x", "?z"], [atom("E", "?y", "?z"), atom("E", "?x", "?y")])
        assert path == same
        assert hash(path) == hash(same)

    def test_head_order_matters(self, path):
        assert path != cq(["?z", "?x"], path.atoms)

    def test_repr_contains_head_and_body(self, path):
        text = repr(path)
        assert "Ans(" in text and "E(" in text
