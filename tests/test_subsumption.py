"""Unit tests for subsumption and subsumption-equivalence (Section 4)."""

import pytest

from repro.core.atoms import atom
from repro.wdpt.subsumption import (
    is_max_equivalent,
    is_properly_subsumed_by,
    is_subsumed_by,
    is_subsumption_equivalent,
    subsumed_on,
)
from repro.wdpt.wdpt import WDPT, wdpt_from_nested
from repro.workloads.families import example2_graph, figure1_wdpt, figure2_family
from repro.workloads.generators import random_database, random_wdpt
from tests.harness.oracles import max_equivalent_on


@pytest.fixture
def figure1():
    return figure1_wdpt()


class TestBasicProperties:
    def test_reflexive(self, figure1):
        assert is_subsumed_by(figure1, figure1)

    def test_projection_subsumption(self, figure1):
        narrower = figure1.with_free_variables(["?y", "?z"])
        # Fewer free variables → answers are restrictions → subsumed.
        assert is_subsumed_by(narrower, figure1)
        assert not is_subsumed_by(figure1, narrower)

    def test_dropping_a_branch_subsumes(self, figure1):
        from repro.wdpt.transform import _restrict_to_nodes

        pruned = _restrict_to_nodes(figure1, {0, 1})
        assert is_subsumed_by(pruned, figure1)

    def test_adding_atoms_subsumes(self):
        weak = wdpt_from_nested(([atom("A", "?x")], []), free_variables=["?x"])
        strong = wdpt_from_nested(
            ([atom("A", "?x"), atom("B", "?x")], []), free_variables=["?x"]
        )
        assert is_subsumed_by(strong, weak)
        assert not is_subsumed_by(weak, strong)

    def test_equivalence_of_reordered_tree(self):
        a = wdpt_from_nested(
            ([atom("R", "?x")], [([atom("S", "?x", "?y")], []), ([atom("T", "?x", "?z")], [])]),
            free_variables=["?x", "?y", "?z"],
        )
        b = wdpt_from_nested(
            ([atom("R", "?x")], [([atom("T", "?x", "?z")], []), ([atom("S", "?x", "?y")], [])]),
            free_variables=["?x", "?y", "?z"],
        )
        assert is_subsumption_equivalent(a, b)

    def test_proper_subsumption(self, figure1):
        narrower = figure1.with_free_variables(["?y", "?z"])
        assert is_properly_subsumed_by(narrower, figure1)
        assert not is_properly_subsumed_by(figure1, figure1)


class TestCQLevel:
    def test_cq_subsumption_matches_containment_direction(self):
        from repro.core.cq import cq

        edge = WDPT.from_cq(cq(["?x"], [atom("E", "?x", "?y")]))
        path = WDPT.from_cq(cq(["?x"], [atom("E", "?x", "?y"), atom("E", "?y", "?z")]))
        assert is_subsumed_by(path, edge)
        assert not is_subsumed_by(edge, path)


class TestFigure2:
    def test_p2_properly_subsumed_by_p1(self):
        p1, p2 = figure2_family(2, k=2)
        assert is_subsumed_by(p2, p1)
        assert not is_subsumed_by(p1, p2)


class TestSemanticSoundness:
    @pytest.mark.parametrize("seed", range(4))
    def test_syntactic_subsumption_implies_semantic(self, seed):
        p = random_wdpt(depth=2, fanout=2, fresh_vars_per_node=1, seed=seed)
        q = random_wdpt(depth=2, fanout=2, fresh_vars_per_node=1, seed=seed + 1)
        db = random_database(8, relations=("E",), domain_size=4, seed=seed)
        if is_subsumed_by(p, q):
            assert subsumed_on(p, q, db)

    @pytest.mark.parametrize("seed", range(4))
    def test_projection_pairs_semantically(self, seed):
        p = random_wdpt(depth=1, fanout=2, fresh_vars_per_node=1, seed=seed, free_fraction=1.0)
        frees = sorted(p.free_variables)[:-1]
        if not frees:
            return
        narrower = p.with_free_variables(frees)
        db = random_database(8, relations=("E",), domain_size=4, seed=seed)
        assert is_subsumed_by(narrower, p)
        assert subsumed_on(narrower, p, db)


class TestProposition5:
    def test_equiv_names_agree(self, figure1):
        other = figure1.with_free_variables(["?y", "?z"])
        assert is_max_equivalent(figure1, figure1)
        assert not is_max_equivalent(figure1, other)

    @pytest.mark.parametrize("seed", range(4))
    def test_subsumption_equivalence_implies_same_max_answers(self, seed):
        a = wdpt_from_nested(
            ([atom("R", "?x")], [([atom("S", "?x", "?y")], []), ([atom("T", "?x", "?z")], [])]),
            free_variables=["?x", "?y", "?z"],
        )
        b = wdpt_from_nested(
            ([atom("R", "?x")], [([atom("T", "?x", "?z")], []), ([atom("S", "?x", "?y")], [])]),
            free_variables=["?x", "?y", "?z"],
        )
        db = random_database(20, relations=("R", "S", "T"), domain_size=3, seed=seed)
        # well-formedness: R unary in the query, binary here — regenerate
        from repro.core.database import Database

        db = Database(
            [atom("R", i) for i in range(3)]
            + [atom("S", i, (i + 1) % 3) for i in range(seed % 3)]
            + [atom("T", i, (i + 2) % 3) for i in range(3)]
        )
        assert is_subsumption_equivalent(a, b)
        assert max_equivalent_on(a, b, db)
