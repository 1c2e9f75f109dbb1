"""Unit tests for repro.core.mappings — the subsumption order ⊑."""

import pytest

from repro.core.mappings import Mapping, maximal_mappings
from repro.core.terms import Constant, Variable
from tests.harness.oracles import is_maximal_in


class TestConstruction:
    def test_coercion(self):
        m = Mapping({"?x": "a", Variable("y"): 2})
        assert m[Variable("x")] == Constant("a")
        assert m["?y"] == Constant(2)

    def test_bad_key(self):
        with pytest.raises(TypeError):
            Mapping({"notavar": 1})  # plain string is a constant, not a key

    def test_bad_value(self):
        with pytest.raises(TypeError):
            Mapping({"?x": Variable("y")})

    def test_empty(self):
        assert len(Mapping()) == 0
        assert Mapping().domain() == frozenset()


class TestSubsumption:
    def test_reflexive(self):
        m = Mapping({"?x": 1})
        assert m.subsumed_by(m)

    def test_domain_inclusion(self):
        small = Mapping({"?x": 1})
        big = Mapping({"?x": 1, "?y": 2})
        assert small.subsumed_by(big)
        assert not big.subsumed_by(small)

    def test_value_disagreement(self):
        assert not Mapping({"?x": 1}).subsumed_by(Mapping({"?x": 2, "?y": 3}))

    def test_proper(self):
        small = Mapping({"?x": 1})
        big = Mapping({"?x": 1, "?y": 2})
        assert small.properly_subsumed_by(big)
        assert not small.properly_subsumed_by(small)

    def test_empty_subsumed_by_all(self):
        assert Mapping().subsumed_by(Mapping({"?x": 1}))

    def test_antisymmetry(self):
        a = Mapping({"?x": 1})
        b = Mapping({"?x": 1})
        assert a.subsumed_by(b) and b.subsumed_by(a) and a == b


class TestAlgebra:
    def test_compatible(self):
        assert Mapping({"?x": 1}).compatible(Mapping({"?y": 2}))
        assert Mapping({"?x": 1}).compatible(Mapping({"?x": 1, "?y": 2}))
        assert not Mapping({"?x": 1}).compatible(Mapping({"?x": 2}))

    def test_union(self):
        u = Mapping({"?x": 1}).union(Mapping({"?y": 2}))
        assert u == Mapping({"?x": 1, "?y": 2})

    def test_union_conflict(self):
        with pytest.raises(ValueError):
            Mapping({"?x": 1}).union(Mapping({"?x": 2}))

    def test_restrict(self):
        m = Mapping({"?x": 1, "?y": 2})
        assert m.restrict(["?x", "?z"]) == Mapping({"?x": 1})

    def test_extend(self):
        m = Mapping({"?x": 1}).extend("?y", 2)
        assert m == Mapping({"?x": 1, "?y": 2})
        with pytest.raises(ValueError):
            m.extend("?x", 3)

    def test_apply(self):
        m = Mapping({"?x": 1})
        assert m.apply(Variable("x")) == Constant(1)
        assert m.apply(Variable("z")) == Variable("z")
        assert m.apply(Constant(9)) == Constant(9)

    def test_as_dict_is_copy(self):
        m = Mapping({"?x": 1})
        d = m.as_dict()
        d[Variable("y")] = Constant(2)
        assert len(m) == 1


class TestMaximal:
    def test_maximal_mappings(self):
        a = Mapping({"?x": 1})
        b = Mapping({"?x": 1, "?y": 2})
        c = Mapping({"?x": 3})
        assert maximal_mappings([a, b, c]) == frozenset([b, c])

    def test_incomparable_all_kept(self):
        a = Mapping({"?x": 1})
        b = Mapping({"?y": 2})
        assert maximal_mappings([a, b]) == frozenset([a, b])

    def test_empty_input(self):
        assert maximal_mappings([]) == frozenset()

    def test_is_maximal_in(self):
        a = Mapping({"?x": 1})
        b = Mapping({"?x": 1, "?y": 2})
        assert not is_maximal_in(a, [a, b])
        assert is_maximal_in(b, [a, b])

    def test_brute_force_agreement(self):
        mappings = [
            Mapping({}),
            Mapping({"?x": 1}),
            Mapping({"?x": 2}),
            Mapping({"?x": 1, "?y": 1}),
            Mapping({"?y": 1}),
            Mapping({"?x": 2, "?y": 1, "?z": 1}),
        ]
        expected = frozenset(
            m
            for m in mappings
            if not any(m.properly_subsumed_by(o) for o in mappings)
        )
        assert maximal_mappings(mappings) == expected
