"""One node plan per (shape, op kind, bound set), and ANALYZE showing it as
it ran.

The top-down evaluator runs each label's answers plan and the Theorem 6 DP
its Boolean plans; EXPLAIN ANALYZE reads the engines from the trace.  On
random pattern trees, memory and SQLite, the two must agree: a ``query``
row names the node's answers plan, and an ``ask`` report's per-node
engine counts are the engines on its ``planner.satisfiable`` spans.
"""

import random
from collections import Counter

import pytest

from repro.core.atoms import atom
from repro.core.mappings import Mapping
from repro.engine import Session
from repro.wdpt.wdpt import wdpt_from_nested
from repro.workloads.generators import random_database, random_wdpt

BACKENDS = ["memory", "sqlite"]


def _cases():
    """Random trees whose labels are acyclic and cyclic (four binary
    atoms over three variables close a cycle now and then)."""
    for seed in range(8):
        p = random_wdpt(
            depth=1, fanout=2, atoms_per_node=4, fresh_vars_per_node=2,
            free_fraction=0.7, seed=seed,
        )
        db = random_database(16, domain_size=6, seed=seed)
        yield seed, p, db


def _span_engines(report):
    return Counter(s.attrs["engine"] for s in report.tracer.find("planner.satisfiable"))


def _row_engines(report):
    total = Counter()
    for row in report.rows:
        total.update(row["engines"])
    return total


@pytest.mark.parametrize("backend", BACKENDS)
def test_query_rows_name_the_answers_plan(backend):
    seen = set()
    for seed, p, db in _cases():
        session = Session(db.facts(), backend=backend)
        report = session.analyze(p)
        plans = session.explain(p).node_plans
        evaluated = [row for row in report.rows if row["engines"]]
        assert evaluated and evaluated[0]["node"] == 0, seed
        for row in evaluated:
            assert row["engine"] == plans[row["node"]].engine, (seed, row["node"])
            assert row["engines"] == {row["engine"]: 1}
        seen.update(row["engine"] for row in evaluated)
    assert seen == {"yannakakis", "treewidth"}  # both answers routes ran


@pytest.mark.parametrize("backend", BACKENDS)
def test_ask_rows_count_the_engines_that_ran(backend):
    seen = Counter()
    for seed, p, db in _cases():
        session = Session(db.facts(), backend=backend)
        answers = sorted(session.query(p).answers, key=repr)
        rng = random.Random(seed)
        candidates = answers[:3]
        for answer in answers[:3]:  # a value swapped in: mostly no answer
            bound = answer.as_dict()
            if bound:
                var = rng.choice(sorted(bound, key=repr))
                bound[var] = rng.choice([f.args[0] for f in db.facts()])
                candidates.append(Mapping(bound))
        for candidate in candidates:
            report = session.analyze(p, candidate=candidate)
            assert _row_engines(report) == _span_engines(report), (seed, candidate)
            seen.update(_span_engines(report))
    assert set(seen) == {"probe", "yannakakis", "treewidth"}


@pytest.mark.parametrize("backend", BACKENDS)
def test_fully_bound_ask_reads_probe_on_every_row(backend):
    """``R(x,y,z) OPT T(x,y,z,w)`` asked for its one answer: every check
    binds each variable of its label, so both rows read ``probe``."""
    p = wdpt_from_nested(
        ([atom("R", "?x", "?y", "?z")], [([atom("T", "?x", "?y", "?z", "?w")], [])]),
        free_variables=["?x", "?y", "?z", "?w"],
    )
    session = Session([atom("R", 1, 2, 3), atom("T", 1, 2, 3, 4)], backend=backend)
    candidate = Mapping({"?x": 1, "?y": 2, "?z": 3, "?w": 4})
    report = session.analyze(p, candidate=candidate)
    assert [row["engine"] for row in report.rows] == ["probe", "probe"]
    assert _row_engines(report) == _span_engines(report) == Counter(probe=2)
    # The answers plans, as EXPLAIN shows them, are Yannakakis's.
    assert [plan.engine for plan in session.explain(p).node_plans] == [
        "yannakakis", "yannakakis",
    ]
