"""The Theorem 11 loop (``repro.wdpt.subsumption.unsubsumed_subtree``):
its mechanism pinned by counts, its verdicts by the loop it replaced."""

import pytest

import repro.core.canonical as canonical
import repro.cqalgs.naive as naive
from repro.core.atoms import atom
from repro.core.canonical import canonical_database_of_atoms
from repro.telemetry.resources import ResourceMonitor
from repro.telemetry.tracer import tracing
from repro.wdpt.partial_eval import Witness, partial_eval
from repro.wdpt.subsumption import (
    is_subsumed_by,
    subsumption_counterexample,
    unsubsumed_subtree,
)
from repro.wdpt.subtrees import new_variables_at, subtree_free_variables
from repro.wdpt.wdpt import wdpt_from_nested
from repro.workloads.families import figure1_wdpt, figure2_family
from repro.workloads.generators import random_wdpt
from tests.harness.oracles import freezing_of


def comb(width):
    """A path of ``width`` atoms at the root with one OPT tooth per
    position, every tooth with a free variable of its own: ``2^width``
    rooted subtrees, none of which monotonicity can skip."""
    root = [atom("R", "?x%d" % i, "?x%d" % (i + 1)) for i in range(width)]
    teeth = [([atom("S", "?x%d" % i, "?y%d" % i)], []) for i in range(width)]
    frees = ["?x0"] + ["?y%d" % i for i in range(width)]
    return wdpt_from_nested((root, teeth), free_variables=frees)


def subsumption_spans(tracer):
    return [s.attrs for s in tracer.walk() if s.name == "wdpt.subsumption"]


def test_labels_are_frozen_once_per_tree(monkeypatch):
    frozen = []
    freeze = canonical.freeze_variable
    monkeypatch.setattr(
        canonical, "freeze_variable", lambda v: (frozen.append(v), freeze(v))[1]
    )
    p1 = comb(6)
    assert is_subsumed_by(p1, comb(6))
    # Once per variable of p₁ (ν reads the same constants), not per subtree.
    assert sorted(frozen) == sorted(p1.variables())
    assert is_subsumed_by(p1, comb(6)) and not is_subsumed_by(p1, comb(5))
    assert len(frozen) == len(p1.variables())  # and once per tree, not per call


def test_every_check_is_one_accounted_partial_eval():
    with ResourceMonitor() as monitor, tracing() as tracer:
        assert is_subsumed_by(comb(6), comb(6))
    assert subsumption_spans(tracer) == [
        {"subtrees": 64, "checks": 64, "extended": 63, "result": True}
    ]
    assert sum(1 for s in tracer.walk() if s.name == "wdpt.partial_eval") == 64
    assert monitor.usage.subqueries == 64


def test_each_subtree_once_with_its_canonical_database():
    """Root and grandchild share ``P(y)``, the two children share
    ``T(y)``: a shared atom stays in ``D_S`` until its last holder leaves.
    Every node introduces a free variable, so every subtree is checked and
    ``dom(ν)`` names it."""
    p = wdpt_from_nested(
        (
            [atom("R", "?x", "?y"), atom("P", "?y")],
            [
                ([atom("S", "?y", "?a"), atom("T", "?y")],
                 [([atom("S", "?a", "?c"), atom("P", "?y")], [])]),
                ([atom("T", "?y"), atom("S", "?y", "?b")], []),
            ],
        ),
        free_variables=["?x", "?a", "?c", "?b"],
    )
    seen = []

    def record(db, nu, witness):
        subtree = frozenset(
            n for n in p.tree.nodes() if new_variables_at(p, n) & nu.domain()
        )
        assert nu == freezing_of(subtree_free_variables(p, subtree))
        assert set(db) == set(canonical_database_of_atoms(p.atoms_of(subtree)))
        # Handed the witness of the subtree one node smaller, on its path.
        assert witness is None if len(subtree) == 1 else len(subtree - witness.nodes) == 1
        seen.append(subtree)
        return Witness(subtree, nu.as_dict(), False)

    with tracing() as tracer:
        assert unsubsumed_subtree(p, record) is None
    assert len(seen) == len(set(seen)) == p.tree.count_rooted_subtrees() == 6
    assert set(seen) == set(p.tree.rooted_subtrees())
    assert subsumption_spans(tracer) == [
        {"subtrees": 6, "checks": 6, "extended": 0, "result": True}
    ]


def reference_counterexamples(p1, p2):
    """The loop as it was written before: every rooted subtree, its
    canonical database built from scratch, one PARTIAL-EVAL each."""
    return {
        subtree
        for subtree in p1.tree.rooted_subtrees()
        if not partial_eval(
            p2,
            canonical_database_of_atoms(p1.atoms_of(subtree)),
            freezing_of(subtree_free_variables(p1, subtree)),
        )
    }


def _pairs():
    f1, f2 = figure2_family(2, 2)
    fig1 = figure1_wdpt()
    trees = [random_wdpt(depth=2, fanout=2, seed=s) for s in range(6)]
    trees += [random_wdpt(depth=2, fanout=2, free_fraction=0.2, seed=s) for s in range(6)]
    pairs = [(f1, f2), (f2, f1), (fig1, fig1), (comb(3), comb(2)), (comb(2), comb(3))]
    pairs += [(a, b) for a in trees for b in (a, trees[0], trees[7])]
    # Few free variables: most subtrees end in a leaf that introduces none.
    pairs += [(p.with_free_variables(p.free_variables[:1]),) * 2 for p in trees]
    return pairs


@pytest.mark.parametrize("p1,p2", _pairs())
def test_walker_agrees_with_the_loop_it_replaced(p1, p2):
    failing = reference_counterexamples(p1, p2)
    with tracing() as tracer:
        found = subsumption_counterexample(p1, p2)
    (span,) = subsumption_spans(tracer)
    assert (found is None) == (not failing) == is_subsumed_by(p1, p2) == span["result"]
    assert found is None or found in failing
    assert span["checks"] <= span["subtrees"] <= p1.tree.count_rooted_subtrees()
    if found is None:
        assert span["subtrees"] == p1.tree.count_rooted_subtrees()


def test_monotonicity_skips_subtrees_that_add_no_free_variable():
    """OPT branches binding nothing free: only the root is checked."""
    p = wdpt_from_nested(
        (
            [atom("R", "?x", "?y")],
            [([atom("S", "?y", "?u")], [([atom("S", "?u", "?v")], [])]),
             ([atom("S", "?x", "?w")], [])],
        ),
        free_variables=["?x"],
    )
    with ResourceMonitor() as monitor, tracing() as tracer:
        assert is_subsumed_by(p, p)
    assert subsumption_spans(tracer) == [
        {"subtrees": 6, "checks": 1, "extended": 0, "result": True}
    ]
    assert monitor.usage.subqueries == 1


def test_each_check_searches_only_the_nodes_it_newly_needs(monkeypatch):
    """The root check of ``comb(6) ⊑ comb(6)`` searches the six root atoms
    of ``p₂``; every other check extends the witness handed down by the
    one atom of the tooth its new free variable lives in."""
    compiled = []
    compile_ = naive._compile

    def counting(atoms, db, pre):
        atoms = list(atoms)
        compiled.append(len(atoms))
        return compile_(atoms, db, pre)

    monkeypatch.setattr(naive, "_compile", counting)
    with tracing() as tracer:
        assert is_subsumed_by(comb(6), comb(6))
    assert sorted(compiled) == [1] * 63 + [6]
    assert subsumption_spans(tracer) == [
        {"subtrees": 64, "checks": 64, "extended": 63, "result": True}
    ]


def test_a_witness_that_does_not_extend_falls_back_to_the_full_search():
    """Theorem 15's family: most checks of ``f₂ ⊑ f₁`` cannot extend the
    witness they are handed, and the full search still finds one; the
    other direction fails on a genuine counterexample."""
    f1, f2 = figure2_family(2, 2)
    with tracing() as tracer:
        assert is_subsumed_by(f2, f1)
    (span,) = subsumption_spans(tracer)
    assert span["result"] and span["checks"] == span["subtrees"]
    assert span["extended"] < span["checks"] - 1  # a non-root check fell back
    assert not is_subsumed_by(f1, f2)
    assert subsumption_counterexample(f1, f2) in reference_counterexamples(f1, f2)
