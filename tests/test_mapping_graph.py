"""A mapping is its graph: the ``Mapping`` contract.

A :class:`~repro.core.mappings.Mapping` is the frozenset of its
``(variable, constant)`` pairs.  Every way of building one gives the same
object for the same content — equal to, and hashing like, the plain
frozenset of its pairs; iteration and ``in`` see variables; ``<=`` and
``<`` are ``⊑`` and ``⊏`` of Section 2; and ``maximal_mappings`` is the
quadratic definition.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import atom
from repro.core.cq import cq
from repro.core.mappings import Mapping, maximal_mappings
from repro.core.terms import Constant, Variable
from repro.cqalgs.enumeration import enumerate_answers
from repro.relalg.relation import Relation, from_mappings, to_mappings
from repro.storage import MemoryBackend, SQLiteBackend
from tests.harness.oracles import is_maximal_in

X, Y, Z = Variable("x"), Variable("y"), Variable("z")
FACTS = [atom("E", 1, "a"), atom("E", 2, "b"), atom("E", 3, "a"), atom("F", "a")]


def graph(m):
    """The plain frozenset of a mapping's pairs."""
    return frozenset(m.items())


def assert_same(built, expected):
    """``built`` is a Mapping equal to ``expected``, hashing like it and
    like the plain frozenset of its pairs."""
    assert type(built) is Mapping
    assert built == expected and hash(built) == hash(expected)
    assert built == graph(built) and hash(built) == hash(graph(built))
    assert {built: 1}[expected] == 1


EXPECTED = Mapping({"?x": 1, "?y": "a"})


def test_constructors_from_dicts():
    assert_same(Mapping({X: Constant(1), Y: Constant("a")}), EXPECTED)
    assert_same(Mapping.from_trusted({X: Constant(1), Y: Constant("a")}), EXPECTED)
    assert_same(Mapping(EXPECTED), EXPECTED)
    assert_same(Mapping(), frozenset())


def test_algebra_builds_equal_mappings():
    assert_same(Mapping({"?x": 1, "?y": "a", "?z": 7}).restrict([X, "?y"]), EXPECTED)
    assert_same(Mapping({"?x": 1}).union(Mapping({"?y": "a"})), EXPECTED)
    assert_same(Mapping({"?x": 1}).extend("?y", "a"), EXPECTED)
    assert_same(EXPECTED.extend("?y", "a"), EXPECTED)
    assert_same(EXPECTED.union(EXPECTED), EXPECTED)


def test_pickling_and_copies_rebuild_the_pairs():
    for clone in (
        pickle.loads(pickle.dumps(EXPECTED)),
        pickle.loads(pickle.dumps(EXPECTED, protocol=0)),
        copy.copy(EXPECTED),
        copy.deepcopy(EXPECTED),
    ):
        assert_same(clone, EXPECTED)
    assert_same(pickle.loads(pickle.dumps(Mapping())), Mapping())


@pytest.mark.parametrize("backend", [MemoryBackend, SQLiteBackend])
def test_to_mappings_full_and_partial(backend):
    """Both cell kinds: the memory backend's int codes (decoded at the
    boundary) and SQLite's ``Constant`` cells (codec ``None``)."""
    db = backend(FACTS)
    expected = {Mapping({"?x": i, "?y": c}) for i, c in ((1, "a"), (2, "b"), (3, "a"))}
    full = from_mappings(expected, (X, Y), db)
    assert full.codec is db.codec
    for built in to_mappings(full):
        assert_same(built, next(m for m in expected if m == built))
    assert to_mappings(full) == expected
    # Partial: a None cell is unbound, and the variable is left out.
    (one,) = from_mappings([Mapping({"?x": 1})], (X,), db).rows
    padded = Relation((X, Y, Z), [r + (None,) for r in full.rows] + [one + (None, None)],
                      db.codec)
    partial = to_mappings(padded, partial=True)
    assert partial == expected | {Mapping({"?x": 1})}
    for built in partial:
        assert_same(built, Mapping(built.as_dict()))
    # A Boolean relation: true is one empty mapping, false none.
    assert to_mappings(Relation((), [()], db.codec)) == {Mapping()}
    assert to_mappings(Relation((), [], db.codec)) == frozenset()


@pytest.mark.parametrize("backend", [MemoryBackend, SQLiteBackend])
def test_enumeration_builds_equal_mappings(backend):
    db = backend(FACTS)
    answers = list(enumerate_answers(cq(["?x", "?y"], [atom("E", "?x", "?y"),
                                                      atom("F", "?y")]), db))
    assert len(answers) == 2
    for built in answers:
        assert_same(built, Mapping(built.as_dict()))
    assert set(answers) == {Mapping({"?x": 1, "?y": "a"}), Mapping({"?x": 3, "?y": "a"})}


def test_iteration_and_membership_see_variables():
    assert sorted(EXPECTED) == [X, Y] and len(EXPECTED) == 2
    assert X in EXPECTED and "?y" in EXPECTED
    assert Z not in EXPECTED and Constant(1) not in EXPECTED and "x" not in EXPECTED
    assert (X, Constant(1)) not in EXPECTED  # a pair is no variable
    assert EXPECTED.domain() == {X, Y}
    assert graph(EXPECTED) == {(X, Constant(1)), (Y, Constant("a"))}
    assert EXPECTED[X] == Constant(1) and EXPECTED.get("?z") is None
    with pytest.raises(KeyError):
        EXPECTED[Z]
    with pytest.raises(TypeError):
        EXPECTED.get("not a variable")
    assert repr(EXPECTED) == "{?x↦1, ?y↦'a'}"


def test_union_raises_on_a_conflict():
    assert not EXPECTED.compatible(Mapping({"?y": "b"}))
    with pytest.raises(ValueError):
        EXPECTED.union(Mapping({"?y": "b", "?z": 1}))
    with pytest.raises(ValueError):
        EXPECTED.extend("?x", 2)


# ---------------------------------------------------------------------------
# The order of Section 2, on random partial mappings
# ---------------------------------------------------------------------------
partial_dicts = st.dictionaries(
    keys=st.sampled_from(["?a", "?b", "?c"]), values=st.integers(0, 2), max_size=3
)


def subsumed(h, g):
    """``h ⊑ g`` by the definition: ``dom(h) ⊆ dom(g)``, agreeing there."""
    return set(h) <= set(g) and all(h[x] == g[x] for x in h)


@settings(max_examples=200, deadline=None)
@given(partial_dicts, partial_dicts)
def test_subsumption_is_the_definition(h, g):
    a, b = Mapping(h), Mapping(g)
    assert a.subsumed_by(b) is (a <= b) is subsumed(h, g)
    proper = subsumed(h, g) and not subsumed(g, h)
    assert a.properly_subsumed_by(b) is (a < b) is proper
    assert (a == b) is (h == g)
    assert a.compatible(b) is all(h[x] == g[x] for x in set(h) & set(g))


@settings(max_examples=200, deadline=None)
@given(st.lists(partial_dicts, max_size=10))
def test_maximal_mappings_is_the_quadratic_definition(dicts):
    expected = {
        Mapping(h) for h in dicts
        if not any(subsumed(h, g) and not subsumed(g, h) for g in dicts)
    }
    mappings = [Mapping(h) for h in dicts]
    assert maximal_mappings(mappings) == expected
    assert all(is_maximal_in(m, mappings) is (m in expected) for m in mappings)


def test_maximal_mappings_and_the_empty_mapping():
    assert maximal_mappings([Mapping()]) == {Mapping()}
    assert maximal_mappings([Mapping(), Mapping()]) == {Mapping()}
    assert maximal_mappings([Mapping(), EXPECTED]) == {EXPECTED}
    assert maximal_mappings(iter([])) == frozenset()
