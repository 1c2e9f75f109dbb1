"""Unit tests for rooted-subtree machinery."""

import pytest

from repro.core.atoms import atom
from repro.core.terms import Variable
from repro.wdpt.subtrees import (
    interface_to_children,
    interface_to_parent,
    maximal_subtree_within_free,
    minimal_subtree_containing,
    new_variables_at,
    subtree_free_variables,
)
from repro.wdpt.wdpt import wdpt_from_nested


@pytest.fixture
def p():
    """Chain with a side branch:
       0 {R(x,y)}
       ├── 1 {S(y,z)}
       │    └── 2 {T(z,w)}
       └── 3 {U(x,v)}
    frees: x, z, w
    """
    return wdpt_from_nested(
        (
            [atom("R", "?x", "?y")],
            [
                ([atom("S", "?y", "?z")], [([atom("T", "?z", "?w")], [])]),
                ([atom("U", "?x", "?v")], []),
            ],
        ),
        free_variables=["?x", "?z", "?w"],
    )


class TestTopNode:
    def test_root_variable(self, p):
        assert p.top_nodes()[Variable("x")] == 0

    def test_shared_variable(self, p):
        assert p.top_nodes()[Variable("y")] == 0
        assert p.top_nodes()[Variable("z")] == 1

    def test_deep_variable(self, p):
        assert p.top_nodes()[Variable("w")] == 2

    def test_missing_variable(self, p):
        with pytest.raises(KeyError):
            p.top_nodes()[Variable("nope")]


class TestMinimalSubtree:
    def test_empty_is_root(self, p):
        assert minimal_subtree_containing(p, []) == {0}

    def test_single_deep_variable(self, p):
        assert minimal_subtree_containing(p, [Variable("w")]) == {0, 1, 2}

    def test_two_branches(self, p):
        assert minimal_subtree_containing(p, [Variable("w"), Variable("v")]) == {0, 1, 2, 3}

    def test_variable_in_root(self, p):
        assert minimal_subtree_containing(p, [Variable("x")]) == {0}


class TestMaximalSubtree:
    def test_all_frees_allowed(self, p):
        allowed = frozenset({Variable("x"), Variable("z"), Variable("w")})
        assert maximal_subtree_within_free(p, allowed) == {0, 1, 2, 3}

    def test_partial_frees(self, p):
        # Node 2 introduces free ?w, excluded; branch 3 has no frees beyond x.
        allowed = frozenset({Variable("x"), Variable("z")})
        assert maximal_subtree_within_free(p, allowed) == {0, 1, 3}

    def test_root_forbidden(self, p):
        assert maximal_subtree_within_free(p, frozenset()) == frozenset()


class TestInterfaces:
    def test_interface_to_parent(self, p):
        assert interface_to_parent(p, 0) == frozenset()
        assert interface_to_parent(p, 1) == {Variable("y")}
        assert interface_to_parent(p, 2) == {Variable("z")}
        assert interface_to_parent(p, 3) == {Variable("x")}

    def test_interface_to_children(self, p):
        assert interface_to_children(p, 0) == {Variable("y"), Variable("x")}
        assert interface_to_children(p, 1) == {Variable("z")}
        assert interface_to_children(p, 2) == frozenset()

    def test_new_variables(self, p):
        assert new_variables_at(p, 0) == {Variable("x"), Variable("y")}
        assert new_variables_at(p, 1) == {Variable("z")}
        assert new_variables_at(p, 3) == {Variable("v")}

    def test_subtree_free_variables(self, p):
        assert subtree_free_variables(p, {0, 1}) == {Variable("x"), Variable("z")}
