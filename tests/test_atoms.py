"""Unit tests for repro.core.atoms."""

import copy
import pickle
import random

import pytest

from repro.core.atoms import Atom, Schema, atom, constants_of, variables_of
from repro.core.terms import Constant, Variable
from repro.exceptions import SchemaError


class TestAtom:
    def test_construction_and_coercion(self):
        a = Atom("E", ("?x", 1))
        assert a.relation == "E"
        assert a.args == (Variable("x"), Constant(1))

    def test_arity(self):
        assert atom("R", "?x", "?y", "?z").arity == 3

    def test_zero_arity_rejected(self):
        with pytest.raises(SchemaError):
            Atom("R", ())

    def test_bad_relation_name(self):
        with pytest.raises(SchemaError):
            Atom("", ("?x",))

    def test_variables_and_constants(self):
        a = atom("R", "?x", "c", "?x", 3)
        assert a.variables() == {Variable("x")}
        assert a.constants() == {Constant("c"), Constant(3)}

    def test_is_ground(self):
        assert atom("R", 1, 2).is_ground()
        assert not atom("R", "?x", 2).is_ground()

    def test_substitute_partial(self):
        a = atom("R", "?x", "?y")
        b = a.substitute({Variable("x"): Constant(1)})
        assert b == atom("R", 1, "?y")

    def test_rename(self):
        a = atom("R", "?x", "?y")
        assert a.rename({Variable("x"): Variable("z")}) == atom("R", "?z", "?y")

    def test_equality_and_hash(self):
        assert atom("R", "?x") == atom("R", "?x")
        assert atom("R", "?x") != atom("R", "?y")
        assert atom("R", "?x") != atom("S", "?x")
        assert len({atom("R", "?x"), atom("R", "?x")}) == 1

    def test_repr_roundtrip_style(self):
        assert repr(atom("E", "?x", 1)) == "E(?x, 1)"

    def test_ordering_is_total_on_examples(self):
        atoms = [atom("B", 1), atom("A", 2), atom("A", 1)]
        assert sorted(atoms) == [atom("A", 1), atom("A", 2), atom("B", 1)]

    def test_ordering_is_relation_then_argument_reprs(self):
        """Each atom keeps its sort key, but the order is the one of the
        key ``(relation, [repr(arg), ...])`` that comparisons built anew."""
        rng = random.Random(5)
        pool = ["?x", "?y", "?z10", "?z2", 0, 1, -1, 10, 2.5, 1.0, 0.0, -0.0,
                True, False, "a", "B", "a b", "1", "True"]
        bag = [
            Atom(rng.choice(("R", "S", "Rx", "r")),
                 [rng.choice(pool) for _ in range(rng.randint(1, 3))])
            for _ in range(300)
        ]
        expected = sorted(bag, key=lambda a: (a.relation, [repr(t) for t in a.args]))
        assert sorted(bag) == expected
        assert sorted(reversed(bag)) == expected  # again, with every key built
        assert {type(t.value) for a in bag for t in a.constants()} == {int, str, float, bool}

    def test_structural_fingerprints_are_pinned(self):
        """Plan-cache keys digest sorted labels: a change to the atom order
        or to ``repr`` moves them, and cached plans with them."""
        from repro.core.cq import cq
        from repro.wdpt.wdpt import wdpt_from_nested

        q = cq(["?x"], [atom("R", "?x", "?y"), atom("S", "?y", 3), atom("R", "?y", "a")])
        b = cq([], [atom("E", "?x", "?y"), atom("E", "?y", 1.5), atom("E", True, "?x")])
        p = wdpt_from_nested(
            ([atom("R", "?x", "?y")], [([atom("S", "?y", "?z"), atom("S", "?z", 0)], [])]),
            free_variables=["?x", "?z"],
        )
        assert q.structural_fingerprint() == (
            "289830c2da4d6fd920835cbd4d0884c93bb4109b3c6e049c7e4312dd2ab5853e"
        )
        assert b.structural_fingerprint() == (
            "4325a868e7b49d550606bf43b25097838c137a48f1671d301ecf18aaa0842bf4"
        )
        assert p.structural_fingerprint() == (
            "62b3630a22a715ae73855c6827366e390f2115d89c27588207588c59c4e2c224"
        )

    def test_substitute_coerces_raw_images(self):
        from repro.core.cq import cq

        x = Variable("x")
        b = atom("R", "?x", "?y").substitute({x: 3})
        assert b.args == (Constant(3), Variable("y"))
        assert b == atom("R", 3, "?y") and hash(b) == hash(atom("R", 3, "?y"))
        q = cq(["?y"], [atom("R", "?x", "?y"), atom("S", "?x")]).substitute({x: 3})
        assert q == cq(["?y"], [atom("R", 3, "?y"), atom("S", 3)])
        assert all(isinstance(t, (Variable, Constant)) for a in q.atoms for t in a.args)

    def test_pickle_and_copy_after_comparison(self):
        a, b = atom("R", "?x", 1.5), atom("R", "?x", True)
        assert sorted([b, a]) == [a, b]  # both keys built ("1.5" < "True")
        for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert clone == a and hash(clone) == hash(a)
            assert clone.args == a.args and clone.args[1] is Constant(1.5)
            assert sorted([b, clone]) == [clone, b] == sorted([clone, b])


class TestSchema:
    def test_add_and_lookup(self):
        s = Schema({"E": 2})
        assert s.arity("E") == 2
        assert "E" in s and "F" not in s

    def test_conflicting_arity(self):
        s = Schema({"E": 2})
        with pytest.raises(SchemaError):
            s.add_relation("E", 3)

    def test_reregister_same_arity_ok(self):
        s = Schema({"E": 2})
        s.add_relation("E", 2)
        assert len(s) == 1

    def test_unknown_relation(self):
        with pytest.raises(SchemaError):
            Schema().arity("E")

    def test_validate_atom(self):
        s = Schema({"E": 2})
        s.validate_atom(atom("E", 1, 2))
        with pytest.raises(SchemaError):
            s.validate_atom(atom("E", 1))
        with pytest.raises(SchemaError):
            s.validate_atom(atom("F", 1))

    def test_infer(self):
        s = Schema.infer([atom("E", 1, 2), atom("U", 1)])
        assert s.arity("E") == 2 and s.arity("U") == 1

    def test_bad_arity_rejected(self):
        with pytest.raises(SchemaError):
            Schema({"E": 0})


def test_variables_of_and_constants_of():
    atoms = [atom("E", "?x", "?y"), atom("F", "?y", 1)]
    assert variables_of(atoms) == {Variable("x"), Variable("y")}
    assert constants_of(atoms) == {Constant(1)}
