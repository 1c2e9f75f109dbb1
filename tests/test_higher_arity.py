"""Cross-engine tests on higher-arity schemas (the HW(k) motivation).

Bounded treewidth is the wrong yardstick once relations get wide —
hypertree decompositions cover a whole atom with one edge.  These tests
run every engine over ternary/quaternary relations and check agreement —
bucket elimination in its answers and Boolean forms on both backends —
including the RDF triple relation that instantiates the paper's semantic
web reading.
"""

import pytest

from repro.core.atoms import atom
from repro.core.cq import cq
from repro.core.database import Database
from repro.core.mappings import Mapping
from repro.cqalgs.naive import evaluate_naive
from repro.cqalgs.yannakakis import evaluate_acyclic
from repro.hypergraphs.hypergraph import hypergraph_of_cq
from repro.hypergraphs.hypertree import hypertreewidth_exact
from repro.workloads.families import example5_theta
from tests.test_structured_eval import assert_elimination_agrees


@pytest.fixture
def ternary_db():
    facts = []
    for i in range(4):
        for j in range(4):
            if (i + j) % 2 == 0:
                facts.append(atom("T", i, j, (i * j) % 4))
    facts += [atom("E", i, (i + 1) % 4) for i in range(4)]
    return Database(facts)


class TestTernary:
    def test_single_wide_atom(self, ternary_db):
        q = cq(["?a", "?c"], [atom("T", "?a", "?b", "?c")])
        expected = evaluate_naive(q, ternary_db)
        assert evaluate_acyclic(q, ternary_db) == expected
        assert_elimination_agrees(q, ternary_db.facts())

    def test_chain_of_wide_atoms(self, ternary_db):
        q = cq(
            ["?a", "?e"],
            [atom("T", "?a", "?b", "?c"), atom("T", "?c", "?d", "?e")],
        )
        expected = evaluate_naive(q, ternary_db)
        assert evaluate_acyclic(q, ternary_db) == expected
        assert_elimination_agrees(q, ternary_db.facts())

    def test_wide_atom_with_binary_cycle(self, ternary_db):
        # T(a,b,c) covers the triangle a-b-c in one hyperedge: ghw 1.
        q = cq(
            ["?a"],
            [
                atom("T", "?a", "?b", "?c"),
                atom("E", "?a", "?b"),
                atom("E", "?b", "?c"),
            ],
        )
        assert hypertreewidth_exact(hypergraph_of_cq(q)) == 1
        assert_elimination_agrees(q, ternary_db.facts())

    def test_repeated_positions(self, ternary_db):
        q = cq(["?a"], [atom("T", "?a", "?a", "?b")])
        expected = evaluate_naive(q, ternary_db)
        assert evaluate_acyclic(q, ternary_db) == expected
        assert_elimination_agrees(q, ternary_db.facts())


class TestThetaEvaluation:
    def test_theta4_all_engines(self):
        q = example5_theta(4)
        db = Database(
            [atom("E", i, j) for i in range(4) for j in range(4) if i != j]
            + [atom("T4", 0, 1, 2, 3), atom("T4", 1, 2, 3, 0)]
        )
        expected = evaluate_naive(q, db)
        assert expected == frozenset([Mapping()])
        assert evaluate_acyclic(q, db) == expected
        assert_elimination_agrees(q, db.facts())

    def test_theta4_unsatisfiable(self):
        q = example5_theta(4)
        db = Database(
            [atom("E", i, j) for i in range(4) for j in range(4) if i < j]  # one-way
            + [atom("T4", 3, 2, 1, 0)]  # clique needs E both ways under this tuple
        )
        expected = evaluate_naive(q, db)
        assert evaluate_acyclic(q, db) == expected
        assert_elimination_agrees(q, db.facts())


class TestRDFTriples:
    def test_wdpt_over_triple_relation(self):
        from repro.rdf import RDFGraph
        from repro.wdpt.eval_tractable import eval_tractable
        from repro.wdpt.evaluation import evaluate
        from repro.wdpt.wdpt import wdpt_from_nested

        g = RDFGraph(
            [
                ("a", "knows", "b"),
                ("b", "knows", "c"),
                ("a", "age", "30"),
            ]
        )
        db = g.to_database()
        p = wdpt_from_nested(
            (
                [atom("triple", "?x", "knows", "?y")],
                [([atom("triple", "?x", "age", "?age")], [])],
            ),
            free_variables=["?x", "?y", "?age"],
        )
        answers = evaluate(p, db)
        assert Mapping({"?x": "a", "?y": "b", "?age": "30"}) in answers
        assert Mapping({"?x": "b", "?y": "c"}) in answers
        for h in answers:
            assert eval_tractable(p, db, h)
