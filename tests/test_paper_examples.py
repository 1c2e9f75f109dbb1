"""Every numbered example/claim of the paper, verified end-to-end.

This file is the "does the reproduction actually match the paper?" test:
each test cites the paper artifact it reproduces.
"""

import pytest

from repro.core.atoms import atom
from repro.core.cq import cq
from repro.core.mappings import Mapping
from repro.hypergraphs.gyo import is_alpha_acyclic
from repro.hypergraphs.hypergraph import hypergraph_of_cq
from repro.hypergraphs.treewidth import treewidth_exact
from repro.wdpt.classes import (
    has_bounded_interface,
    interface_width,
    is_globally_in_tw,
    is_locally_in_tw,
)
from repro.wdpt.evaluation import evaluate, evaluate_max
from repro.wdpt.eval_tractable import eval_tractable
from repro.wdpt.subsumption import is_max_equivalent, is_subsumption_equivalent
from repro.wdpt.unions import UWDPT, phi_cq
from repro.workloads.families import (
    example2_graph,
    example5_theta,
    figure1_wdpt,
    figure2_family,
    prop2_family,
    three_colorability_instance,
)
from tests.harness.generators import complete_graph_edges, odd_cycle_edges


@pytest.fixture
def db():
    return example2_graph().to_database()


class TestExample1And2:
    """Query (1), Figure 1, Example 2: the evaluation over D consists of
    exactly μ₁ and μ₂."""

    def test_answers(self, db):
        p = figure1_wdpt()
        mu1 = Mapping({"?x": "Our_love", "?y": "Caribou"})
        mu2 = Mapping({"?x": "Swim", "?y": "Caribou", "?z": "2"})
        assert evaluate(p, db) == {mu1, mu2}


class TestExample3:
    """Projecting out x restricts μ₁, μ₂ to μ₁', μ₂'."""

    def test_answers(self, db):
        p = figure1_wdpt(projection=("?y", "?z", "?z2"))
        mu1p = Mapping({"?y": "Caribou"})
        mu2p = Mapping({"?y": "Caribou", "?z": "2"})
        assert evaluate(p, db) == {mu1p, mu2p}

    def test_mu1_subsumed_but_still_answer(self, db):
        """The paper stresses that with projection, both a mapping and a
        proper extension can be solutions simultaneously."""
        p = figure1_wdpt(projection=("?y", "?z", "?z2"))
        answers = evaluate(p, db)
        mu1p = Mapping({"?y": "Caribou"})
        assert mu1p in answers
        assert any(mu1p.properly_subsumed_by(a) for a in answers)


class TestExample4:
    """Path CQs are TW(1); closing the cycle gives TW(2); the clique on n
    variables has treewidth n − 1."""

    def test_path(self):
        q = cq([], [atom("E", "?x%d" % i, "?x%d" % (i + 1)) for i in range(4)])
        assert treewidth_exact(hypergraph_of_cq(q)) == 1

    def test_cycle(self):
        atoms = [atom("E", "?x%d" % i, "?x%d" % (i + 1)) for i in range(4)]
        atoms.append(atom("E", "?x0", "?x4"))
        assert treewidth_exact(hypergraph_of_cq(cq([], atoms))) == 2

    def test_clique(self):
        n = 5
        atoms = [
            atom("E", "?x%d" % i, "?x%d" % j)
            for i in range(n)
            for j in range(n)
            if i != j
        ]
        assert treewidth_exact(hypergraph_of_cq(cq([], atoms))) == n - 1


class TestExample5:
    """θ_n is acyclic (HW(1)) but of unbounded treewidth."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_theta(self, n):
        H = hypergraph_of_cq(example5_theta(n))
        assert is_alpha_acyclic(H)
        assert treewidth_exact(H) == n - 1


class TestExample6:
    """Figure 1's WDPT is in ℓ-TW(1) and BI(2)."""

    def test_classes(self):
        p = figure1_wdpt()
        assert is_locally_in_tw(p, 1)
        assert interface_width(p) == 2
        assert has_bounded_interface(p, 2)
        assert not has_bounded_interface(p, 1)


class TestExample7:
    """With projection to {y, z}: p(D) = {μ₁, μ₂} but p_m(D) = {μ₂}."""

    def test_max_semantics(self, db):
        p = figure1_wdpt(projection=("?y", "?z"))
        mu1 = Mapping({"?y": "Caribou"})
        mu2 = Mapping({"?y": "Caribou", "?z": "2"})
        assert evaluate(p, db) == {mu1, mu2}
        assert evaluate_max(p, db) == {mu2}


class TestExample8:
    """φ_cq of the projected Figure 1 WDPT is the union of four CQs."""

    def test_four_disjuncts(self):
        p = figure1_wdpt(projection=("?y", "?z", "?z2"))
        assert len(phi_cq(UWDPT([p]))) == 4


class TestProposition2:
    """Global tractability is strictly weaker than local + bounded
    interface: the family is in g-TW(1) but outside every BI(c)."""

    def test_separation(self):
        for n in (2, 5, 8):
            p = prop2_family(n)
            assert is_globally_in_tw(p, 1)
            assert not has_bounded_interface(p, n - 1)


class TestProposition3:
    """EVAL(g-TW(1)) encodes 3-colorability."""

    @pytest.mark.parametrize(
        "n,edges,expected",
        [
            (3, complete_graph_edges(3), True),
            (4, complete_graph_edges(4), False),
            (5, odd_cycle_edges(5), True),
        ],
        ids=["K3", "K4", "C5"],
    )
    def test_reduction(self, n, edges, expected):
        dbc, p, h = three_colorability_instance(n, edges)
        assert is_globally_in_tw(p, 1)
        assert eval_tractable(p, dbc, h) is expected


class TestTheorem15:
    """Figure 2: |p₁| = O(n²), |p₂| = Ω(2ⁿ), p₂ ⊑ p₁, p₂ ∈ WB(k),
    p₁ ∉ WB(k)."""

    def test_blowup_shape(self):
        sizes1, sizes2 = [], []
        for n in (2, 3, 4, 5):
            p1, p2 = figure2_family(n, k=2)
            sizes1.append(p1.size())
            sizes2.append(p2.size())
        # p2 at least doubles with each step eventually; p1 grows slower.
        assert sizes2[-1] / sizes2[-2] >= 1.8
        assert sizes1[-1] / sizes1[-2] < 1.8

    def test_subsumption_and_classes(self):
        from repro.wdpt.subsumption import is_subsumed_by

        p1, p2 = figure2_family(2, k=2)
        assert is_subsumed_by(p2, p1)
        assert is_globally_in_tw(p2, 2) and not is_globally_in_tw(p1, 2)


class TestProposition5:
    """≡ₛ coincides with ≡_max (implemented as the same test)."""

    def test_alias(self):
        p = figure1_wdpt()
        assert is_max_equivalent(p, p) == is_subsumption_equivalent(p, p) is True
