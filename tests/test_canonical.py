"""Unit tests for canonical (frozen) databases."""

import pytest

from repro.core.atoms import atom
from repro.core.canonical import (
    canonical_database_of_atoms,
    freeze_atoms,
    freeze_variable,
    is_frozen_constant,
    unfreeze_constant,
)
from repro.core.cq import cq
from repro.core.terms import Constant, Variable
from tests.harness.oracles import freezing_of


def test_freeze_variable_roundtrip():
    c = freeze_variable(Variable("x"))
    assert is_frozen_constant(c)
    assert unfreeze_constant(c) == Variable("x")


def test_frozen_constants_equal_by_variable():
    assert freeze_variable(Variable("x")) == freeze_variable(Variable("?x"))
    assert freeze_variable(Variable("x")) != freeze_variable(Variable("y"))


def test_frozen_never_collides_with_plain_constant():
    assert freeze_variable(Variable("x")) != Constant("x")


def test_unfreeze_plain_constant_raises():
    with pytest.raises(ValueError):
        unfreeze_constant(Constant("x"))


def test_freeze_atoms_ground():
    frozen = freeze_atoms([atom("E", "?x", "c")])
    assert all(a.is_ground() for a in frozen)
    assert frozen[0].args[1] == Constant("c")


def test_canonical_database_facts():
    q = cq(["?x"], [atom("E", "?x", "?y"), atom("E", "?y", "?x")])
    db = canonical_database_of_atoms(q.atoms)
    assert len(db) == 2
    fx = freeze_variable(Variable("x"))
    fy = freeze_variable(Variable("y"))
    assert atom("E", fx.value, fy.value) in db


def test_freezing_of():
    m = freezing_of([Variable("x")])
    assert m[Variable("x")] == freeze_variable(Variable("x"))


def test_chandra_merlin_canonical_property():
    """The identity freeze is always a homomorphism from q to canonical(q)."""
    from repro.cqalgs.naive import satisfiable

    q = cq(["?x"], [atom("E", "?x", "?y"), atom("F", "?y", "?y")])
    db = canonical_database_of_atoms(q.atoms)
    assert satisfiable(q.atoms, db, freezing_of(q.variables()))
