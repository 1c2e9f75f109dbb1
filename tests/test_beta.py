"""Unit tests for β-acyclicity and HW'(k)."""

import itertools

import pytest

from repro.exceptions import BudgetExceededError
from repro.hypergraphs.beta import (
    beta_hypertreewidth_at_most,
    is_beta_acyclic,
)
from repro.hypergraphs.gyo import is_alpha_acyclic
from repro.hypergraphs.hypergraph import Hypergraph


def theta(n):
    edges = [{i, j} for i, j in itertools.combinations(range(n), 2)]
    edges.append(set(range(n)))
    return Hypergraph(edges)


class TestBetaAcyclicity:
    def test_path_beta_acyclic(self):
        assert is_beta_acyclic(Hypergraph([{1, 2}, {2, 3}]))

    def test_triangle_not(self):
        assert not is_beta_acyclic(Hypergraph([{1, 2}, {2, 3}, {1, 3}]))

    def test_alpha_but_not_beta(self):
        # θ_3 is α-acyclic but its triangle subquery is cyclic.
        H = theta(3)
        assert is_alpha_acyclic(H)
        assert not is_beta_acyclic(H)

    def test_chain_of_nested_edges(self):
        assert is_beta_acyclic(Hypergraph([{1}, {1, 2}, {1, 2, 3}]))

    def test_empty(self):
        assert is_beta_acyclic(Hypergraph([]))

    def test_beta_implies_alpha(self):
        for edges in ([{1, 2}, {2, 3}], [{1, 2, 3}, {3, 4}], [{1}]):
            H = Hypergraph(edges)
            if is_beta_acyclic(H):
                assert is_alpha_acyclic(H)


class TestBetaHw:
    def test_k1_equals_beta_acyclicity(self):
        H = Hypergraph([{1, 2}, {2, 3}])
        assert beta_hypertreewidth_at_most(H, 1)
        assert not beta_hypertreewidth_at_most(theta(3), 1)

    def test_triangle_is_two(self):
        tri = Hypergraph([{1, 2}, {2, 3}, {1, 3}])
        assert beta_hypertreewidth_at_most(tri, 2)
        assert not beta_hypertreewidth_at_most(tri, 1)

    def test_theta_grows(self):
        # θ_5 contains a K5 subquery with ghw 3 > 2.
        assert not beta_hypertreewidth_at_most(theta(5), 2)
        assert beta_hypertreewidth_at_most(theta(5), 3)

    def test_k0(self):
        assert beta_hypertreewidth_at_most(Hypergraph([]), 0)
        assert not beta_hypertreewidth_at_most(Hypergraph([{1}]), 0)

    def test_budget(self):
        # 18 edges forming 6 disjoint triangles: ghw 2, not β-acyclic, and
        # too many edges for the 2^m subquery sweep.
        triangles = []
        for i in range(6):
            a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
            triangles += [{a, b}, {b, c}, {a, c}]
        big = Hypergraph(triangles)
        with pytest.raises(BudgetExceededError):
            beta_hypertreewidth_at_most(big, 2)

    def test_beta_acyclic_fast_path_any_k(self):
        chain = Hypergraph([{i, i + 1, 100} for i in range(20)])
        if is_beta_acyclic(chain):
            assert beta_hypertreewidth_at_most(chain, 2)

    def test_full_hypergraph_failure_short_circuits(self):
        # ghw of the whole hypergraph already exceeds k: no enumeration.
        K5 = Hypergraph([{i, j} for i, j in itertools.combinations(range(5), 2)])
        assert not beta_hypertreewidth_at_most(K5, 2)
