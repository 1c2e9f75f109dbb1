"""Unit tests for the Theorem 6/7 interface dynamic program."""

import pytest

from repro.core.atoms import atom
from repro.core.database import Database
from repro.core.mappings import Mapping
from repro.wdpt.eval_tractable import eval_tractable
from repro.wdpt.evaluation import evaluate
from repro.wdpt.wdpt import wdpt_from_nested
from repro.workloads.families import (
    example2_graph,
    figure1_wdpt,
    three_colorability_instance,
)
from repro.workloads.generators import random_database, random_wdpt
from tests.harness.generators import complete_graph_edges, odd_cycle_edges


@pytest.fixture
def figure1():
    return figure1_wdpt()


@pytest.fixture
def db():
    return example2_graph().to_database()


class TestFigure1:
    def test_positive_answers(self, figure1, db):
        assert eval_tractable(figure1, db, Mapping({"?x": "Our_love", "?y": "Caribou"}))
        assert eval_tractable(
            figure1, db, Mapping({"?x": "Swim", "?y": "Caribou", "?z": "2"})
        )

    def test_non_maximal_rejected(self, figure1, db):
        # Swim extends to z=2, so the z-less mapping is not an answer.
        assert not eval_tractable(figure1, db, Mapping({"?x": "Swim", "?y": "Caribou"}))

    def test_wrong_value_rejected(self, figure1, db):
        assert not eval_tractable(
            figure1, db, Mapping({"?x": "Our_love", "?y": "Caribou", "?z": "2"})
        )

    def test_domain_not_free_rejected(self, figure1, db):
        p = figure1.with_free_variables(["?y", "?z"])
        assert not eval_tractable(p, db, Mapping({"?x": "Swim"}))

    def test_unknown_variable_rejected(self, figure1, db):
        assert not eval_tractable(figure1, db, Mapping({"?qq": "Swim"}))


class TestMinimalSubtreeFreeCheck:
    def test_forced_extra_free_variable(self):
        # Reaching ?w forces through node 1 which introduces free ?z.
        p = wdpt_from_nested(
            ([atom("A", "?x")], [([atom("B", "?x", "?z")], [([atom("C", "?z", "?w")], [])])]),
            free_variables=["?x", "?z", "?w"],
        )
        db = Database([atom("A", 1), atom("B", 1, 2), atom("C", 2, 3)])
        assert not eval_tractable(p, db, Mapping({"?x": 1, "?w": 3}))
        assert eval_tractable(p, db, Mapping({"?x": 1, "?z": 2, "?w": 3}))


class TestProposition3:
    def test_three_colorable_positive(self):
        db, p, h = three_colorability_instance(5, odd_cycle_edges(5))
        assert eval_tractable(p, db, h)

    def test_k4_negative(self):
        db, p, h = three_colorability_instance(4, complete_graph_edges(4))
        assert not eval_tractable(p, db, h)

    def test_triangle_positive(self):
        db, p, h = three_colorability_instance(3, complete_graph_edges(3))
        assert eval_tractable(p, db, h)


class TestExistentialBlocking:
    def test_existential_choice_must_block_free_extension(self):
        # Choosing u=1 satisfies the root and BLOCKS the child (no B(1,·));
        # choosing u=2 would open the child and force free ?y into the
        # answer.  The DP must find the blocking choice.
        p = wdpt_from_nested(
            ([atom("A", "?x", "?u")], [([atom("B", "?u", "?y")], [])]),
            free_variables=["?x", "?y"],
        )
        db = Database([atom("A", 7, 1), atom("A", 7, 2), atom("B", 2, 9)])
        assert eval_tractable(p, db, Mapping({"?x": 7}))
        assert eval_tractable(p, db, Mapping({"?x": 7, "?y": 9}))

    def test_no_blocking_choice(self):
        p = wdpt_from_nested(
            ([atom("A", "?x", "?u")], [([atom("B", "?u", "?y")], [])]),
            free_variables=["?x", "?y"],
        )
        db = Database([atom("A", 7, 2), atom("B", 2, 9)])
        # Every root homomorphism extends into the child: {?x:7} not answer.
        assert not eval_tractable(p, db, Mapping({"?x": 7}))
        assert eval_tractable(p, db, Mapping({"?x": 7, "?y": 9}))


class TestCrossValidation:
    @pytest.mark.parametrize("seed", range(8))
    def test_dp_agrees_with_enumeration(self, seed):
        p = random_wdpt(depth=2, fanout=2, atoms_per_node=2, fresh_vars_per_node=1, seed=seed)
        db = random_database(10, relations=("E",), domain_size=5, seed=seed + 100)
        answers = evaluate(p, db)
        for h in answers:
            assert eval_tractable(p, db, h), "DP rejected true answer %r" % (h,)
        # Some negatives: restrictions of answers (proper ones) and junk.
        for h in answers:
            domain = sorted(h.domain())
            if len(domain) >= 1:
                restricted = h.restrict(domain[:-1])
                assert eval_tractable(p, db, restricted) == (restricted in answers)

    @pytest.mark.parametrize("seed", range(4))
    def test_dp_rejects_non_answers(self, seed):
        p = random_wdpt(depth=1, fanout=2, atoms_per_node=2, fresh_vars_per_node=1, seed=seed)
        db = random_database(8, relations=("E",), domain_size=4, seed=seed + 50)
        answers = evaluate(p, db)
        frees = list(p.free_variables)
        from repro.core.terms import Constant

        adom = sorted(db.active_domain())
        if frees and adom:
            for value in adom[:3]:
                candidate = Mapping({frees[0]: value})
                assert eval_tractable(p, db, candidate) == (candidate in answers)


class TestPinnedInterfaceCandidates:
    """A node's interface candidates come from the facts that agree with
    the values already pinned there, not from the whole column: with
    ``?x`` pinned, ``R(?x, ?y)`` offers ``?y`` only the values next to
    that ``?x``."""

    X = Mapping({"?x": 1000000})  # in no fact
    THREE = Mapping({"?x": 3})  # 100 facts, none with an S-partner

    @pytest.fixture
    def case(self):
        p = wdpt_from_nested(
            ([atom("R", "?x", "?y")], [([atom("S", "?y", "?z")], [])]),
            free_variables=["?x", "?z"],
        )
        return p, Database([atom("R", i % 50, i) for i in range(5000)])

    @staticmethod
    def _count_checks(monkeypatch):
        """Count the program's checks where each one runs, with a planner
        or without one (``Check.run``)."""
        from repro.wdpt.partial_eval import Check

        calls = []
        original = Check.run

        def counted(self, binding, db, planner):
            calls.append(self)
            return original(self, binding, db, planner)

        monkeypatch.setattr(Check, "run", counted)
        return calls

    def test_an_unmatched_pin_is_decided_without_scanning_the_column(
        self, case, monkeypatch
    ):
        from repro.engine import Session
        from repro.wdpt.evaluation import eval_check

        p, db = case
        calls = self._count_checks(monkeypatch)
        assert eval_tractable(p, db, self.X) is eval_check(p, db, self.X) is False
        assert len(calls) <= 2
        del calls[:]
        session = Session(db, cache=False)
        assert session.ask(p, self.X) is False and len(calls) <= 2
        del calls[:]
        assert session.ask(p, self.THREE) is eval_check(p, db, self.THREE) is True
        assert len(calls) <= 2  # the first of its 100 values: the node, the child

    def test_the_row_budget_counts_pinned_candidates_only(self, case):
        from repro.engine import Session
        from repro.telemetry.resources import ResourceBudget
        from repro.wdpt.evaluation import eval_check

        p, db = case
        budgets = ResourceBudget(hard_intermediate_rows=1000)
        with Session(db, cache=False, budgets=budgets) as session:
            assert session.ask(p, self.X) is eval_check(p, db, self.X)
            assert session.ask(p, self.THREE) is eval_check(p, db, self.THREE)
