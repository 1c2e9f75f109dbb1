"""Compiled decision programs (Theorems 6, 8 and 9).

Each procedure is compiled once per (tree shape, candidate domain) and
the program is kept on the planner's ``TreeProfile``.  These tests count
the programs a stream of decisions leaves behind, and pin the checks a
``decide``-shaped stream issues per procedure to the counts the
interpretive DP issued before the programs existed: the planner's
per-engine latency observations and the ``account_subquery`` totals.
"""

import importlib.util
import random
from collections import Counter
from pathlib import Path

import pytest

from repro.core.atoms import atom
from repro.core.mappings import Mapping
from repro.engine import Session
from repro.telemetry.resources import ResourceMonitor
from repro.wdpt.eval_tractable import compile_eval
from repro.wdpt.max_eval import compile_max
from repro.wdpt.partial_eval import compile_partial
from repro.wdpt.wdpt import wdpt_from_nested
from repro.workloads.datasets import company_directory

COMPILERS = {"ask": compile_eval, "is_partial": compile_partial, "is_maximal": compile_max}


def _probe_cost():
    """``scripts/probe_cost.py`` as a module: its company tree and stream."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "probe_cost.py"
    spec = importlib.util.spec_from_file_location("probe_cost", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def probe_cost():
    return _probe_cost()


def _smoke_stream(probe_cost, session, query):
    """``probe_cost.py --smoke``'s ops: its 120 warm-up ops, then its 300."""
    answers = session.query(query).answers
    rng = random.Random(probe_cost.SEED)
    return probe_cost.stream(answers, 120, rng) + probe_cost.stream(answers, 300, rng)


def test_one_program_per_procedure_and_candidate_domain(probe_cost):
    session = Session(company_directory(5, 20, seed=1), backend="memory", cache=False)
    query = probe_cost.company_tree()
    ops = _smoke_stream(probe_cost, session, query)
    for kind, candidate in ops:
        getattr(session, kind)(query, candidate)
    tree = session.planner.profile_wdpt(query)
    expected = {(COMPILERS[kind], frozenset(c.domain())) for kind, c in ops}
    assert len(tree.programs()) == len(expected) and set(tree.programs()) == expected
    built = session.planner.plans_built
    for kind, candidate in ops[:30]:  # warm: nothing new is compiled or planned
        getattr(session, kind)(query, candidate)
    assert len(tree.programs()) == len(expected)
    assert session.planner.plans_built == built


def test_a_candidate_binding_a_non_free_variable_adds_no_program():
    query = wdpt_from_nested(
        ([atom("works_in", "?e", "?d")], [([atom("phone", "?e", "?p")], [])]),
        free_variables=["?e", "?p"],
    )
    session = Session(company_directory(2, 4, seed=1), cache=False)
    tree = session.planner.profile_wdpt(query)
    bad = Mapping({"?e": "emp_0_0", "?d": "dept_0"})  # ?d is existential
    for kind in COMPILERS:
        assert getattr(session, kind)(query, bad) is False
    assert tree.programs() == []
    session.ask(query, Mapping({"?e": "emp_0_0"}))
    assert tree.programs() == [(compile_eval, frozenset(Mapping({"?e": "emp_0_0"}).domain()))]


def test_trees_with_one_fingerprint_share_their_programs(probe_cost):
    session = Session(company_directory(3, 5, seed=1), cache=False)
    first, second = probe_cost.company_tree(), probe_cost.company_tree()
    assert first is not second
    assert first.structural_fingerprint() == second.structural_fingerprint()
    answer = max(session.query(first).answers, key=len)
    for kind in COMPILERS:
        assert getattr(session, kind)(first, answer) is True
    tree = session.planner.profile_wdpt(first)
    programs = tree.programs()
    assert len(programs) == 3
    for kind in COMPILERS:
        assert getattr(session, kind)(second, answer) is True
    assert session.planner.profile_wdpt(second) is tree
    assert tree.programs() == programs


#: Per procedure, the checks the ``probe_cost.py --smoke`` stream issues on
#: ``company_directory(5, 20, seed=1)``: planner latency observations per
#: engine, and ``ResourceUsage.subqueries``.  Measured with the
#: interpretive DP the programs replaced; the programs must issue exactly
#: these checks.
PINNED_ENGINES = {
    "ask": {"probe": 415},
    "is_partial": {"probe": 140},
    "is_maximal": {"probe": 263, "yannakakis": 7},
}
PINNED_SUBQUERIES = {"ask": 415, "is_partial": 140, "is_maximal": 270}
PINNED_TRUE = {"ask": 83, "is_partial": 121, "is_maximal": 81}


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_the_programs_issue_the_checks_the_dp_issued(probe_cost, backend):
    session = Session(company_directory(5, 20, seed=1), backend=backend, cache=False)
    query = probe_cost.company_tree()

    def observations():
        latency = session.stats()["engine_latency"]
        return Counter({engine: h["count"] for engine, h in latency.items()})

    engines = {kind: Counter() for kind in COMPILERS}
    subqueries, verdicts = Counter(), Counter()
    for kind, candidate in _smoke_stream(probe_cost, session, query):
        before = observations()
        with ResourceMonitor() as monitor:
            verdicts[kind] += getattr(session, kind)(query, candidate)
        engines[kind].update(observations() - before)
        subqueries[kind] += monitor.usage.subqueries
    assert {kind: dict(c) for kind, c in engines.items()} == PINNED_ENGINES
    assert dict(subqueries) == PINNED_SUBQUERIES
    assert dict(verdicts) == PINNED_TRUE
