#!/usr/bin/env python
"""Cyclic CQ labels: the Theorem 2 decomposition engine against the compiled
search, for the answers op and for Boolean checks.

Usage::

    python scripts/cyclic_routes.py          # prints the EXPERIMENTS.md tables

A report, not a gate.  Every cell is the best of 3 wall times on the
memory backend, over random digraphs ``E`` (seed 7).

* **Answers.**  ``q(D)`` of five cyclic shapes on two graphs, by the
  Theorem 2 engine over the shape's memoized decomposition
  (``evaluate_bounded_treewidth``) and by the search (``evaluate_naive``,
  what the answers plan of a cyclic label runs).  Ratio > 1: the search is
  faster.  The answer sets are checked equal.
* **Boolean.**  Four shapes × six bindings × three graphs (two random
  digraphs and a random bipartite one, where odd cycles have no match):
  the Theorem 2 sweep over the decomposition cut to the open variables —
  what the Boolean plan of such a check holds — against the search with
  the binding as its pre-assignment.  The verdicts are checked equal.
"""

import os
import random
import sys
import time

# Runnable straight from a checkout, before any `pip install -e .`.
_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
sys.path.insert(0, os.path.abspath(_SRC))

from repro.core.atoms import Atom  # noqa: E402
from repro.core.cq import ConjunctiveQuery  # noqa: E402
from repro.core.database import Database  # noqa: E402
from repro.core.mappings import Mapping  # noqa: E402
from repro.cqalgs.naive import evaluate_naive, first_homomorphism, satisfiable  # noqa: E402
from repro.cqalgs.structured import (  # noqa: E402
    evaluate_bounded_treewidth,
    satisfiable_with_decomposition,
)
from repro.planner import ENGINE_TREEWIDTH, StructuralProfile, plan_node  # noqa: E402
from repro.table import format_table  # noqa: E402
from repro.workloads.generators import cycle_cq, grid_cq, random_graph_database  # noqa: E402

SEED = 7
REPEATS = 3


def best(fn):
    """(best wall time of ``REPEATS`` calls in ms, the last result)."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times) * 1e3, result


def with_frees(query: ConjunctiveQuery, frees) -> ConjunctiveQuery:
    return ConjunctiveQuery(frees, query.atoms)


def answer_shapes():
    return [
        ("triangle", with_frees(cycle_cq(3), ["?x0", "?x1", "?x2"])),
        ("4-cycle (all free)", with_frees(cycle_cq(4), ["?x0", "?x1", "?x2", "?x3"])),
        ("5-cycle (two free)", with_frees(cycle_cq(5), ["?x0", "?x2"])),
        ("4-cycle (one free)", with_frees(cycle_cq(4), ["?x0"])),
        ("2x3 grid (one free)", with_frees(grid_cq(2, 3), ["?g0_0"])),
    ]


def answers_table(graphs):
    rows = []
    for graph, db in graphs:
        for name, query in answer_shapes():
            td = StructuralProfile(query.atoms).tree_decomposition
            bag_ms, by_bags = best(lambda: evaluate_bounded_treewidth(query, db, decomposition=td))
            search_ms, by_search = best(lambda: evaluate_naive(query, db))
            assert by_bags == by_search, (graph, name)
            rows.append([graph, name, len(by_search), "%.1f" % bag_ms, "%.1f" % search_ms,
                         "%.2f" % (bag_ms / search_ms)])
    return format_table(
        ["graph", "shape", "answers", "Theorem 2 ms", "search ms", "ratio"], rows,
        title="Answers op: Theorem 2 engine ÷ compiled search",
    )


def bipartite_graph(half: int, n_edges: int, seed: int) -> Database:
    """Random edges between ``0..half-1`` and ``half..2*half-1``, both
    directions: no odd cycle has a match."""
    rng = random.Random(seed)
    db = Database()
    while len(db) < n_edges:
        left, right = rng.randrange(half), half + rng.randrange(half)
        db.add(Atom("E", (left, right) if rng.random() < 0.5 else (right, left)))
    return db


def bindings(atoms, db, rng):
    """Six bindings: none; the first variable to three stored vertices;
    the first and the middle variable to their values in a match (when
    there is one) and to two stored vertices."""
    variables = sorted({v for a in atoms for v in a.variables()}, key=repr)
    first, middle = variables[0], variables[len(variables) // 2]
    vertices = sorted({fact.args[0] for fact in db.facts()}, key=repr)
    out = [{}]
    out += [{first: rng.choice(vertices)} for _ in range(3)]
    match = first_homomorphism(atoms, db, {})
    if match is not None:
        out.append({first: match[first], middle: match[middle]})
    while len(out) < 6:
        out.append({first: rng.choice(vertices), middle: rng.choice(vertices)})
    return out


def boolean_table(graphs):
    shapes = [
        ("triangle", cycle_cq(3)),
        ("4-cycle", cycle_cq(4)),
        ("5-cycle", cycle_cq(5)),
        ("2x3 grid", grid_cq(2, 3)),
    ]
    rng = random.Random(SEED)
    rows = []
    faster = 0
    for graph, db in graphs:
        for name, query in shapes:
            profile = StructuralProfile(query.atoms)
            for bind in bindings(query.atoms, db, rng):
                plan = plan_node(profile, frozenset(bind))
                assert plan.engine == ENGINE_TREEWIDTH, (name, bind)
                atoms = [a.substitute(bind) for a in profile.sorted_atoms]
                bag_ms, by_bags = best(
                    lambda: satisfiable_with_decomposition(atoms, plan.structure, db)
                )
                search_ms, by_search = best(lambda: satisfiable(query.atoms, db, Mapping(bind)))
                assert by_bags == by_search, (graph, name, bind)
                faster += search_ms < bag_ms
                bound = ", ".join("%s=%s" % (v, c) for v, c in sorted(bind.items(), key=repr))
                rows.append([graph, name, bound or "-", by_search, "%.3f" % bag_ms,
                             "%.3f" % search_ms, "%.1f" % (bag_ms / search_ms)])
    table = format_table(
        ["graph", "shape", "binding", "sat", "Theorem 2 ms", "search ms", "ratio"], rows,
        title="Boolean op: Theorem 2 sweep ÷ compiled search",
    )
    return table + "\nsearch faster on %d of %d checks" % (faster, len(rows))


def main() -> int:
    answer_graphs = [
        ("1000 v / 4000 e", random_graph_database(1000, 4000, seed=SEED)),
        ("300 v / 1500 e", random_graph_database(300, 1500, seed=SEED)),
    ]
    print(answers_table(answer_graphs))
    print()
    boolean_graphs = answer_graphs + [("bipartite 2x150 / 1500 e", bipartite_graph(150, 1500, SEED))]
    print(boolean_table(boolean_graphs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
