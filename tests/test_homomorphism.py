"""Unit tests for query-to-query homomorphisms."""

from repro.core.atoms import atom
from repro.core.terms import Constant, Variable
from repro.cqalgs.homomorphism import (
    apply_homomorphism,
    has_query_homomorphism,
    query_homomorphisms,
)
from tests.harness.oracles import is_query_homomorphism


def test_path_to_edge():
    path = [atom("E", "?x", "?y"), atom("E", "?y", "?z")]
    loop = [atom("E", "?a", "?a")]
    assert has_query_homomorphism(path, loop)
    assert not has_query_homomorphism(loop, path)


def test_fixed_variables():
    source = [atom("E", "?x", "?y")]
    target = [atom("E", "?a", "?b")]
    assert has_query_homomorphism(source, target, fixed={Variable("x"): Variable("a")})
    assert not has_query_homomorphism(source, target, fixed={Variable("x"): Variable("b")})


def test_fixed_to_constant():
    source = [atom("E", "?x", "?y")]
    target = [atom("E", "c", "?b")]
    assert has_query_homomorphism(source, target, fixed={Variable("x"): Constant("c")})
    assert not has_query_homomorphism(source, target, fixed={Variable("x"): Constant("d")})


def test_constants_must_match():
    assert not has_query_homomorphism([atom("E", "?x", "a")], [atom("E", "?y", "b")])
    assert has_query_homomorphism([atom("E", "?x", "a")], [atom("E", "?y", "a")])


def test_enumeration_is_complete():
    source = [atom("E", "?x", "?y")]
    target = [atom("E", "?a", "?b"), atom("E", "?b", "?a")]
    homs = list(query_homomorphisms(source, target))
    assert len(homs) == 2


def test_apply_and_verify():
    source = frozenset([atom("E", "?x", "?y"), atom("E", "?y", "?z")])
    target = frozenset([atom("E", "?a", "?a")])
    for h in query_homomorphisms(source, target):
        image = apply_homomorphism(source, h)
        assert image <= target
        assert is_query_homomorphism(source, target, h)


def test_limit():
    source = [atom("E", "?x", "?y")]
    target = [atom("E", "?a", "?b"), atom("E", "?b", "?c"), atom("E", "?c", "?a")]
    assert len(list(query_homomorphisms(source, target, limit=2))) == 2


def test_range_mixes_variables_and_constants():
    source = [atom("E", "?x", "?y")]
    target = [atom("E", "?a", "k")]
    homs = list(query_homomorphisms(source, target))
    assert homs == [{Variable("x"): Variable("a"), Variable("y"): Constant("k")}]
