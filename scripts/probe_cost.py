#!/usr/bin/env python
"""What a Theorem 6/8/9 decision op spends on its Boolean checks.

Usage::

    python scripts/probe_cost.py            # 100 departments x 100 employees
    python scripts/probe_cost.py --smoke    # 5 x 20, a few seconds

It replays a stream shaped like the benchmark's ``decide`` workload in
process — ``ask`` (Theorem 6), ``is_partial`` (Theorem 8, the employee
and at most one more variable bound) and ``is_maximal`` (Theorem 9) in
turn, on true answers of the company tree and on candidates with one
value taken from another answer — over ``company_directory`` on the
memory backend, and prints

* **ops**: checks (``Planner.check`` calls: the compiled decision
  programs hand every check to the planner there, with its plan) per op,
  the route mix, the µs of an op as it runs, and the *procedure µs*: the
  op with every check answered from a table of its recorded verdicts,
  which is what the procedures and the session cost around the checks;
* **checks**: per route, the µs one check spends in each step, replayed
  over the recorded checks: the store read (``exists_substituted`` of the
  probe program; for the other routes the substitution plus the engine
  run), the bookkeeping (tracer test, two clock reads and the histogram
  update, plus ``account_rows`` on ``probe``), and the whole check.

Every figure is the best of 7 passes, less an empty loop's time.  The
verdicts of the replayed steps are checked against the stream's; the
script exits 1 when a replayed verdict differs or the stream recorded no
check (the seam moved), so it is a gate as well as a report.
"""

import argparse
import os
import random
import sys
from collections import Counter
from time import perf_counter

# Runnable straight from a checkout, before any `pip install -e .`.
_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
sys.path.insert(0, os.path.abspath(_SRC))

from repro.core.atoms import atom  # noqa: E402
from repro.core.mappings import Mapping  # noqa: E402
from repro.core.terms import Variable  # noqa: E402
from repro.cqalgs.naive import satisfiable  # noqa: E402
from repro.cqalgs.structured import satisfiable_by_elimination  # noqa: E402
from repro.cqalgs.yannakakis import satisfiable_with_join_tree  # noqa: E402
from repro.engine import Session  # noqa: E402
from repro.planner import ENGINE_PROBE, ENGINE_TREEWIDTH, ENGINE_YANNAKAKIS, Planner  # noqa: E402
from repro.table import format_table  # noqa: E402
from repro.telemetry.context import current  # noqa: E402
from repro.telemetry.resources import account_rows  # noqa: E402
from repro.wdpt.wdpt import wdpt_from_nested  # noqa: E402
from repro.workloads.datasets import company_directory  # noqa: E402

SEED = 1
PASSES = 7
KINDS = ("ask", "is_partial", "is_maximal")
EMPLOYEE, MANAGER = Variable("e"), Variable("m")


def company_tree():
    """The benchmark's company tree: works_in, OPT phone, OPT (reports_to
    OPT office), every variable free."""
    return wdpt_from_nested(
        (
            [atom("works_in", "?e", "?d")],
            [
                ([atom("phone", "?e", "?p")], []),
                ([atom("reports_to", "?e", "?m")], [([atom("office", "?m", "?o")], [])]),
            ],
        ),
        free_variables=["?e", "?d", "?p", "?m", "?o"],
    )


def stream(answers, n, rng):
    """``n`` (kind, candidate) ops: the kinds in turn, true answers
    alternating with ones that take one value from another answer; an
    ``is_partial`` candidate keeps the employee and at most one more.  As
    in the benchmark, one round of kinds in 20 draws an answer without a
    manager (``is_maximal`` of one costs milliseconds)."""
    ordered = sorted(answers, key=repr)
    managed = [a for a in ordered if MANAGER in a] or ordered
    unmanaged = [a for a in ordered if MANAGER not in a] or ordered
    ops = []
    for i in range(n):
        kind = KINDS[i % len(KINDS)]
        candidate = rng.choice(unmanaged if (i // len(KINDS)) % 20 == 10 else managed)
        if (i // len(KINDS)) % 2:
            donor = rng.choice(ordered)
            var = rng.choice(sorted(candidate.domain() & donor.domain(), key=repr))
            candidate = Mapping({v: donor[v] if v == var else c for v, c in candidate.items()})
        if kind == "is_partial":
            others = sorted(candidate.domain() - {EMPLOYEE}, key=repr)
            candidate = candidate.restrict((EMPLOYEE,) + tuple(rng.sample(others, rng.choice((0, 1)))))
        ops.append((kind, candidate))
    return ops


def best_us(bodies, count):
    """µs per item of each of ``bodies`` (loops over ``count`` items),
    best of :data:`PASSES`; the passes take turns, so a change of the
    machine's speed reaches every body alike."""
    times = [[] for _ in bodies]
    for _ in range(PASSES):
        for body, mine in zip(bodies, times):
            start = perf_counter()
            body()
            mine.append(perf_counter() - start)
    return [min(mine) / count * 1e6 for mine in times]


def record_checks(session, query, ops):
    """Run ``ops`` once, recording every check as (plan, atoms, binding,
    verdict)."""
    checks = []
    original = Planner.check

    def recorded(self, plan, atoms, binding, db):
        verdict = original(self, plan, atoms, binding, db)
        checks.append((plan, atoms, dict(binding), verdict))
        return verdict

    Planner.check = recorded
    try:
        for kind, candidate in ops:
            getattr(session, kind)(query, candidate)
    finally:
        Planner.check = original
    return checks


def op_table(session, query, ops, checks):
    def run():
        for kind, candidate in ops:
            getattr(session, kind)(query, candidate)

    verdicts = {(id(plan), frozenset(b.items())): v for plan, _, b, v in checks}
    original = Planner.check

    def stubbed():
        Planner.check = (
            lambda self, plan, atoms, binding, db: verdicts[id(plan), frozenset(binding.items())]
        )
        try:
            run()
        finally:
            Planner.check = original

    op_us, procedure_us = best_us([run, stubbed], len(ops))
    routes = Counter(_route(plan) for plan, _, _, _ in checks)
    rows = [
        ["ops", len(ops)],
        ["checks per op", "%.2f" % (len(checks) / len(ops))],
        ["route mix", ", ".join("%s %d (%.1f %%)" % (e, c, 100 * c / len(checks))
                                for e, c in routes.most_common())],
        ["op µs", "%.2f" % op_us],
        ["procedure µs (checks from a table)", "%.2f" % procedure_us],
        ["checks' share of an op", "%.0f %%" % (100 * (1 - procedure_us / op_us))],
    ]
    return format_table(["ops", "value"], rows, title="Decision ops (memory backend)")


def _route(plan):
    """The plan's engine; a probe is split by whether its program reads
    ground atoms only (one lookup each on memory) or builds some."""
    if plan.engine != ENGINE_PROBE:
        return plan.engine
    return "probe, ground" if all(e.ground for e in plan.structure) else "probe, open"


def check_table(db, checks, mismatches):
    """The per-step table; every replayed verdict that differs from the
    recorded one is appended to ``mismatches``."""
    bookkeeper = Planner()  # a planner of its own: the replay's records stay out of the session's
    rows = []
    routes = ["probe, ground", "probe, open", ENGINE_YANNAKAKIS, ENGINE_TREEWIDTH, "naive"]
    for route in routes:
        mine = [c for c in checks if _route(c[0]) == route]
        if not mine:
            continue
        n = len(mine)
        engine = mine[0][0].engine

        def empty():
            for plan, atoms, binding, _ in mine:
                pass

        def read():
            for plan, atoms, binding, verdict in mine:
                if engine == ENGINE_PROBE:
                    got = db.exists_substituted(plan.structure, binding)
                else:
                    substituted = [a.substitute(binding) for a in atoms]
                    if engine == ENGINE_YANNAKAKIS:
                        got = satisfiable_with_join_tree(substituted, plan.structure, db)
                    elif engine == ENGINE_TREEWIDTH:
                        got = satisfiable_by_elimination(substituted, plan.structure, db)
                    else:
                        got = satisfiable(substituted, db)
                if got is not verdict:
                    mismatches.append((route, "read", binding))

        def bookkeeping():
            for plan, atoms, binding, _ in mine:
                current().tracer
                start = perf_counter()
                if engine == ENGINE_PROBE:
                    account_rows(1)
                bookkeeper.record_engine(engine, perf_counter() - start)

        def whole():
            for plan, atoms, binding, verdict in mine:
                if bookkeeper.check(plan, atoms, binding, db) is not verdict:
                    mismatches.append((route, "check", binding))

        base, *steps = best_us([empty, read, bookkeeping, whole], n)
        steps = [us - base for us in steps]
        rest = steps[2] - sum(steps[:2])
        rows.append([route, n] + ["%.2f" % us for us in steps] + ["%.2f" % rest])
    return format_table(
        ["route", "checks", "store read µs", "bookkeeping µs", "whole check µs", "rest µs"],
        rows,
        title="One check, by step (replayed over the recorded checks)",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true", help="5 x 20 employees, 300 ops")
    args = parser.parse_args(argv)
    departments, employees, n = (5, 20, 300) if args.smoke else (100, 100, 6000)
    session = Session(company_directory(departments, employees, seed=SEED),
                      backend="memory", cache=False)
    query = company_tree()
    answers = session.query(query).answers
    rng = random.Random(SEED)
    for kind, candidate in stream(answers, 120, rng):  # warm-up: the plans get built
        getattr(session, kind)(query, candidate)
    ops = stream(answers, n, rng)
    checks = record_checks(session, query, ops)
    if not checks:
        print("no check recorded at Planner.check: the decision procedures bypass it",
              file=sys.stderr)
        return 1
    print("%d departments x %d employees, %d facts, seed %d"
          % (departments, employees, session.size, SEED))
    print(op_table(session, query, ops, checks))
    print()
    mismatches = []
    print(check_table(session.database, checks, mismatches))
    if mismatches:
        print("%d replayed verdicts differ from the recorded ones, first: %r"
              % (len(mismatches), mismatches[0]), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
