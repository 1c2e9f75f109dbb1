"""T2-UWBAPP — Table 2, row UWB(k)-Approximation: Π₂ᵖ/Π₃ᵖ — again far
below the single-WDPT coNEXPTIME bound.

Theorem 18: the UWB(k)-approximation is the union of the per-CQ
``C(k)``-approximations of ``φ_cq``, each of polynomial size, unique up to
``≡ₛ``.  We measure computation + verification cost and validate
soundness, uniqueness-up-to-≡ₛ, and the contrast with the single-WDPT
approximation pipeline.
"""

import sys
from collections import Counter

import pytest

from repro.benchharness import Series, format_series_table, time_callable
from repro.core.atoms import atom
from repro.core.cq import cq
from repro.cqalgs.containment import is_contained_in
from repro.wdpt.approximation import wb_approximation
from repro.wdpt.classes import WB_TW, is_in_wb
from repro.wdpt.subsumption import is_subsumed_by
from repro.wdpt.unions import (
    UWDPT,
    is_uwb_approximation,
    union_subsumed_by,
    union_subsumption_equivalent,
    uwb_approximation,
)
from repro.wdpt.wdpt import WDPT, wdpt_from_nested

pytestmark = pytest.mark.paper_artifact("Table 2, row UWB(k)-Approximation")


def _cyclic_union(n_members):
    members = []
    for i in range(n_members):
        members.append(
            WDPT.from_cq(
                cq(
                    ["?x%d" % i],
                    [
                        atom("E%d" % i, "?a", "?b"),
                        atom("E%d" % i, "?b", "?c"),
                        atom("E%d" % i, "?c", "?a"),
                        atom("R%d" % i, "?x%d" % i, "?a"),
                    ],
                )
            )
        )
    return UWDPT(members)


def test_soundness_and_verification():
    phi = _cyclic_union(2)
    app = uwb_approximation(phi, 1, WB_TW)
    assert all(is_in_wb(p, 1, WB_TW) for p in app)
    assert union_subsumed_by(app, phi)
    assert is_uwb_approximation(app, phi, 1, WB_TW)
    print("\nT2-UWBAPP: approximation union has %d members" % len(app))


def test_uniqueness_up_to_equivalence():
    phi = _cyclic_union(1)
    app1 = uwb_approximation(phi, 1, WB_TW)
    app2 = uwb_approximation(phi, 1, WB_TW)
    assert union_subsumption_equivalent(app1, app2)


def test_cost_scales_with_members():
    series = Series("UWB(1)-approximation")
    for n in (1, 2, 3, 4):
        phi = _cyclic_union(n)
        series.add(n, time_callable(lambda: uwb_approximation(phi, 1, WB_TW), repeats=1))
    print()
    print(format_series_table([series], parameter_name="union members"))
    slope = series.loglog_slope()
    # Per-member work is constant here: near-linear scaling.
    assert slope is not None and slope < 2.0


def _branching_tree(n_branches):
    """A cyclic root with ``n_branches`` optional one-atom branches."""
    return wdpt_from_nested(
        (
            [atom("E", "?a", "?b"), atom("E", "?b", "?c"), atom("E", "?c", "?a"),
             atom("R", "?x", "?a")],
            [([atom("F%d" % i, "?x", "?w%d" % i)], []) for i in range(n_branches)],
        ),
        free_variables=["?x"] + ["?w%d" % i for i in range(n_branches)],
    )


def _verification_calls(run):
    """How many WDPT subsumption and CQ containment tests ``run()`` makes
    (recursive calls included)."""
    names = {is_subsumed_by.__code__: "subsumption", is_contained_in.__code__: "containment"}
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def test_contrast_with_single_wdpt_pipeline():
    """Theorem 18 approximates the union CQ by CQ and verifies candidates
    by CQ containment (NP); the single-WDPT search verifies candidates by
    WDPT subsumption (Π₂ᵖ-complete), and needs more of those per added
    branch than the union needs containment tests."""
    growth = {}
    for n in (1, 2):
        tree = _branching_tree(n)
        union = _verification_calls(lambda: uwb_approximation(UWDPT([tree]), 1, WB_TW))
        single = _verification_calls(lambda: wb_approximation(tree, 1, WB_TW))
        print("\nT2-UWBAPP contrast, %d branch(es): union %d containment / %d subsumption "
              "tests vs single-WDPT %d subsumption tests"
              % (n, union["containment"], union["subsumption"], single["subsumption"]))
        assert union["subsumption"] == 0 and union["containment"] > 0
        assert single["subsumption"] > 0
        growth[n] = (union["containment"], single["subsumption"])
    union_step = growth[2][0] / growth[1][0]
    single_step = growth[2][1] / growth[1][1]
    assert union_step < single_step, (union_step, single_step)


def test_bench_uwb_approximation(benchmark):
    phi = _cyclic_union(2)
    app = benchmark(lambda: uwb_approximation(phi, 1, WB_TW))
    assert len(app) >= 1
