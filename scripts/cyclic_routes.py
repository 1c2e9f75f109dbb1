#!/usr/bin/env python
"""Cyclic CQ labels: the Theorem 2 engine (bucket elimination) against the
compiled search, for the answers op, for Boolean checks and for cyclic
OPT children.

Usage::

    python scripts/cyclic_routes.py          # prints the EXPERIMENTS.md tables

A report, not a gate.  Every cell is the best of 3 wall times (of more
when 3 calls take under 0.25 s, of 1 when a call takes over 2 s) on the
memory backend, over random digraphs ``E`` (seed 7).

* **Answers.**  ``q(D)`` of five cyclic shapes on two graphs, by the
  Theorem 2 engine (``evaluate_bounded_treewidth``, its order search
  included) and by the search (``evaluate_naive``, what the answers plan
  of a cyclic label runs).  Ratio > 1: the search is faster.  The answer
  sets are checked equal.
* **Boolean.**  Four shapes × six bindings × three graphs (two random
  digraphs and a random bipartite one, where odd cycles have no match):
  bucket elimination over the order with the bound variables dropped —
  what the Boolean plan of such a check holds — against the search with
  the binding as its pre-assignment.  The verdicts are checked equal.
* **OPT children.**  ``evaluate`` of a two-node WDPT whose child label is
  cyclic, on the tree's memoised plans — the answers plan of that label,
  bucket elimination seeded by the parent's interface keys — against
  the per-key route: the search once per distinct key, each key's
  extensions joined onto its parent rows in Python.  On 2 000 v /
  20 000 e, at 10 and 2 000 keys: ``L(?x, ?l) OPT triangle`` with
  ``?x`` last in the label's order and with ``?x`` first, and a 4-cycle
  child on a two-variable interface.  The answer sets are checked equal.

Each table ends with the summed times of both sides and names every cell
where the Theorem 2 engine is the slower one.
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
from repro.core.atoms import atom  # noqa: E402
from repro.core.mappings import Mapping  # noqa: E402
from repro.cqalgs.naive import (  # noqa: E402
    evaluate_naive,
    first_homomorphism,
    homomorphisms,
    satisfiable,
)
from repro.cqalgs.structured import (  # noqa: E402
    evaluate_bounded_treewidth,
    satisfiable_by_elimination,
)
from repro.planner import ENGINE_TREEWIDTH, Planner, StructuralProfile, plan_node  # noqa: E402
from repro.table import format_table  # noqa: E402
from repro.wdpt.evaluation import evaluate  # noqa: E402
from repro.wdpt.wdpt import wdpt_from_nested  # noqa: E402
from repro.workloads.generators import cycle_cq, grid_cq, random_graph_database  # noqa: E402

SEED = 7
REPEATS = 3


def best(fn):
    """(best wall time in ms, the last result) of ``REPEATS`` calls, or of
    more until 0.25 s have passed; of one call when it takes over 2 s."""
    times = []
    while len(times) < REPEATS or sum(times) < 0.25:
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
        if times[-1] > 2:
            break
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


def summary(rows, totals, slower):
    """The totals line and the cells where the Theorem 2 engine lost."""
    lines = ["total: Theorem 2 %.1f ms, search %.1f ms over %d cells"
             % (totals[0], totals[1], len(rows)),
             "Theorem 2 slower on %d of %d: %s" % (len(slower), len(rows), "; ".join(slower)
                                                    or "none")]
    return "\n".join(lines)


def answers_table(graphs):
    rows, totals, slower = [], [0.0, 0.0], []
    for graph, db in graphs:
        for name, query in answer_shapes():
            engine_ms, by_engine = best(lambda: evaluate_bounded_treewidth(query, db))
            search_ms, by_search = best(lambda: evaluate_naive(query, db))
            assert by_engine == by_search, (graph, name)
            totals[0] += engine_ms
            totals[1] += search_ms
            if engine_ms > search_ms:
                slower.append("%s %s" % (graph, name))
            rows.append([graph, name, len(by_search), "%.1f" % engine_ms, "%.1f" % search_ms,
                         "%.2f" % (engine_ms / search_ms)])
    table = format_table(
        ["graph", "shape", "answers", "Theorem 2 ms", "search ms", "ratio"], rows,
        title="Answers op: Theorem 2 engine ÷ compiled search",
    )
    return table + "\n" + summary(rows, totals, slower)


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
    rows, totals, slower = [], [0.0, 0.0], []
    for graph, db in graphs:
        for name, query in shapes:
            profile = StructuralProfile(query.atoms)
            for bind in bindings(query.atoms, db, rng):
                plan = plan_node(profile, frozenset(bind))
                assert plan.engine == ENGINE_TREEWIDTH, (name, bind)
                atoms = [a.substitute(bind) for a in profile.sorted_atoms]
                engine_ms, by_engine = best(
                    lambda: satisfiable_by_elimination(atoms, plan.structure, db)
                )
                search_ms, by_search = best(lambda: satisfiable(query.atoms, db, Mapping(bind)))
                assert by_engine == by_search, (graph, name, bind)
                totals[0] += engine_ms
                totals[1] += search_ms
                bound = ", ".join("%s=%s" % (v, c) for v, c in sorted(bind.items(), key=repr))
                if engine_ms > search_ms:
                    slower.append("%s %s [%s]" % (graph, name, bound or "-"))
                rows.append([graph, name, bound or "-", by_search, "%.3f" % engine_ms,
                             "%.3f" % search_ms, "%.1f" % (engine_ms / search_ms)])
    table = format_table(
        ["graph", "shape", "binding", "sat", "Theorem 2 ms", "search ms", "ratio"], rows,
        title="Boolean op: Theorem 2 bucket elimination ÷ compiled search",
    )
    return table + "\n" + summary(rows, totals, slower)


def per_key(p, db):
    """``p(D)`` of a two-node tree, every variable free, by the per-key
    route: the root's homomorphisms, then the search once per distinct
    interface key, each key's extensions (or none: the failed branch)
    joined onto its root rows."""
    root, child = p.labels[0], p.labels[1]
    shared = sorted(p.node_variables(0) & p.node_variables(1), key=repr)
    rows = list(homomorphisms(root, db))
    extensions = {}
    for h in rows:
        key = tuple(h[v] for v in shared)
        if key not in extensions:
            extensions[key] = list(homomorphisms(child, db, h.restrict(shared)))
    return frozenset(
        Mapping({**h.as_dict(), **e.as_dict()}) if e is not None else h
        for h in rows
        for e in extensions[tuple(h[v] for v in shared)] or [None]
    )


def opt_child_cases(db, rng):
    """(name, keys, tree, database) per cell: the keys are facts of the
    root's relation, added to a copy of ``db``."""
    vertices = sorted({fact.args[0].value for fact in db.facts()})
    triangle_last = [atom("E", "?x", "?a"), atom("E", "?a", "?b"), atom("E", "?b", "?x")]
    triangle_first = [atom("E", "?x", "?y"), atom("E", "?y", "?z"), atom("E", "?z", "?x")]
    square = [atom("E", "?x", "?a"), atom("E", "?a", "?y"), atom("E", "?y", "?b"),
              atom("E", "?b", "?x")]
    successors = {}
    for fact in db.facts():
        successors.setdefault(fact.args[0].value, []).append(fact.args[1].value)
    # Pairs with a 2-path from ?x to ?y: half of the 4-cycle is there.
    two_paths = sorted({(x, z) for x, ys in successors.items() for y in ys
                        for z in successors.get(y, ())})
    cases = []
    for keys in (10, 2000):
        for name, child, root in (
            ("triangle, ?x last", triangle_last, "L"),
            ("triangle, ?x first", triangle_first, "L"),
            ("4-cycle, ?x ?y", square, "P"),
        ):
            extended = Database(db.facts())
            if root == "L":
                for v in rng.sample(vertices, keys):
                    extended.add(Atom("L", (v, "l%d" % v)))
                parent = [atom("L", "?x", "?l")]
            else:
                for pair in rng.sample(two_paths, keys):
                    extended.add(Atom("P", pair))
                parent = [atom("P", "?x", "?y")]
            variables = sorted({v for a in parent + child for v in a.variables()}, key=repr)
            p = wdpt_from_nested((parent, [(child, [])]), free_variables=variables)
            cases.append((name, keys, p, extended))
    return cases


def opt_children_table(db):
    rows, totals, slower = [], [0.0, 0.0], []
    for name, keys, p, extended in opt_child_cases(db, random.Random(SEED)):
        # The tree's plans, built once as a session's planner keeps them.
        profile = Planner().profile_wdpt(p)
        order = profile.node_profile(1).elimination_order
        engine_ms, by_engine = best(lambda: evaluate(p, extended, profile))
        search_ms, by_search = best(lambda: per_key(p, extended))
        assert by_engine == by_search, (name, keys)
        totals[0] += engine_ms
        totals[1] += search_ms
        if engine_ms > search_ms:
            slower.append("%s, %d keys" % (name, keys))
        rows.append([name, " ".join(map(repr, order)), keys, len(by_search),
                     "%.1f" % engine_ms, "%.1f" % search_ms, "%.2f" % (engine_ms / search_ms)])
    table = format_table(
        ["child label", "label order", "keys", "answers", "evaluate ms", "per-key search ms",
         "ratio"], rows,
        title="Cyclic OPT children (2000 v / 20000 e): evaluate ÷ the per-key route",
    )
    return table + "\n" + summary(rows, totals, slower)


def main() -> int:
    answer_graphs = [
        ("1000 v / 4000 e", random_graph_database(1000, 4000, seed=SEED)),
        ("300 v / 1500 e", random_graph_database(300, 1500, seed=SEED)),
    ]
    print(answers_table(answer_graphs))
    print()
    boolean_graphs = answer_graphs + [("bipartite 2x150 / 1500 e", bipartite_graph(150, 1500, SEED))]
    print(boolean_table(boolean_graphs))
    print()
    print(opt_children_table(random_graph_database(2000, 20000, seed=SEED)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
