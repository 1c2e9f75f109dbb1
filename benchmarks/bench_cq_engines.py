"""THM2-3 — Theorems 2 and 3: the CQ substrate's tractable engines.

Reproduces the substrate claims the WDPT results build on:

* acyclic CQs (``HW(1)``): Yannakakis scales polynomially where the naive
  engine blows up on adversarial path queries;
* bounded treewidth (``TW(k)``): bucket elimination matches naive
  answers and scales on cycle queries;
* Example 5's ``θ_n``: acyclic for every n (hypertree machinery) while
  treewidth grows — the reason HW(k) matters at all.
"""

import pytest

from repro.benchharness import Series, format_series_table, time_callable
from repro.core.atoms import Atom, atom
from repro.core.database import Database
from repro.cqalgs.naive import evaluate_naive
from repro.cqalgs.structured import evaluate_bounded_treewidth
from repro.cqalgs.yannakakis import evaluate_acyclic
from repro.hypergraphs.gyo import is_alpha_acyclic
from repro.hypergraphs.hypergraph import hypergraph_of_cq
from repro.hypergraphs.treewidth import treewidth_exact
from repro.workloads.families import example5_theta
from repro.workloads.generators import cycle_cq, path_cq

pytestmark = pytest.mark.paper_artifact("Theorems 2/3 (CQ substrate)")


def _layered_db(layers, width):
    """A layered graph where naive joins explode without semi-joins:
    every layer is fully connected to the next, plus dangling tuples."""
    db = Database()
    for layer in range(layers):
        for i in range(width):
            for j in range(width):
                db.add(Atom("E", ("L%d_%d" % (layer, i), "L%d_%d" % (layer + 1, j))))
    # dangling facts that survive local matching but die globally
    for i in range(width):
        db.add(Atom("E", ("L%d_%d" % (layers, i), "dead_%d" % i)))
    return db


def test_yannakakis_vs_naive_on_boolean_paths():
    from repro.core.mappings import Mapping
    from repro.cqalgs.naive import satisfiable

    yann = Series("Yannakakis")
    for length in (2, 4, 6, 8):
        db = _layered_db(length, 6)
        q = path_cq(length, frees=[])
        yann.add(length, time_callable(lambda: evaluate_acyclic(q, db), repeats=2))
        # Cross-check against the (short-circuiting) satisfiability test;
        # enumerating all homomorphisms naively would itself blow up here.
        expected = frozenset([Mapping()]) if satisfiable(q.atoms, db) else frozenset()
        assert evaluate_acyclic(q, db) == expected
    print()
    print(format_series_table([yann], parameter_name="path length"))
    slope = yann.loglog_slope()
    assert slope is not None and slope < 3.0


def test_tw_engine_on_cycles():
    td = Series("TW engine")
    naive = Series("naive")
    db = _layered_db(4, 5)
    # add back-edges to give cycles answers
    for i in range(5):
        db.add(Atom("E", ("L2_%d" % i, "L1_%d" % i)))
    for length in (3, 4, 5, 6):
        q = cycle_cq(length)
        td.add(length, time_callable(lambda: evaluate_bounded_treewidth(q, db), repeats=2))
        naive.add(length, time_callable(lambda: evaluate_naive(q, db), repeats=2))
        assert evaluate_bounded_treewidth(q, db) == evaluate_naive(q, db)
    print()
    print(format_series_table([td, naive], parameter_name="cycle length"))


def test_example5_width_series():
    rows = []
    for n in (2, 3, 4, 5, 6):
        q = example5_theta(n)
        H = hypergraph_of_cq(q)
        rows.append((n, is_alpha_acyclic(H), treewidth_exact(H)))
    print("\nTHM2-3: θ_n — (n, acyclic?, treewidth):", rows)
    assert all(acyclic for _, acyclic, _ in rows)
    assert [tw for _, _, tw in rows] == [1, 2, 3, 4, 5]


def test_bench_yannakakis(benchmark):
    from repro.core.mappings import Mapping

    db = _layered_db(6, 6)
    q = path_cq(6, frees=[])
    assert benchmark(lambda: evaluate_acyclic(q, db)) == frozenset({Mapping()})


def test_bench_tw_engine(benchmark):
    db = _layered_db(4, 5)
    for i in range(5):
        db.add(Atom("E", ("L2_%d" % i, "L1_%d" % i)))
    q = cycle_cq(4)
    benchmark(lambda: evaluate_bounded_treewidth(q, db))


def test_bench_naive(benchmark):
    db = _layered_db(4, 5)
    q = path_cq(4, frees=[])
    benchmark(lambda: evaluate_naive(q, db))
