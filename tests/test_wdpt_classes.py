"""Unit tests for WDPT class predicates (Sections 3.2/3.3/5)."""

import pytest

from repro.core.atoms import atom
from repro.wdpt.classes import (
    WB_BETA_HW,
    WB_TW,
    check_proposition2,
    has_bounded_interface,
    interface_width,
    is_globally_in_beta_hw,
    is_globally_in_hw,
    is_globally_in_tw,
    is_in_wb,
    is_locally_in_hw,
    is_locally_in_tw,
    proposition2_bound,
)
from repro.wdpt.wdpt import wdpt_from_nested
from repro.workloads.families import figure1_wdpt, figure2_family, prop2_family


@pytest.fixture
def figure1():
    return figure1_wdpt()


def triangle_root_wdpt():
    return wdpt_from_nested(
        (
            [atom("E", "?x", "?y"), atom("E", "?y", "?z"), atom("E", "?z", "?x")],
            [([atom("F", "?x", "?w")], [])],
        ),
        free_variables=["?x", "?w"],
    )


class TestLocalTractability:
    def test_figure1_example6(self, figure1):
        # Example 6 of the paper: p ∈ ℓ-TW(1).
        assert is_locally_in_tw(figure1, 1)

    def test_triangle_root(self):
        p = triangle_root_wdpt()
        assert not is_locally_in_tw(p, 1)
        assert is_locally_in_tw(p, 2)

    def test_local_hw(self):
        p = triangle_root_wdpt()
        assert not is_locally_in_hw(p, 1)
        assert is_locally_in_hw(p, 2)


class TestBoundedInterface:
    def test_figure1_example6(self, figure1):
        # Example 6: x shared with child 1, y with child 2 → BI(2).
        assert interface_width(figure1) == 2
        assert has_bounded_interface(figure1, 2)
        assert not has_bounded_interface(figure1, 1)

    def test_single_node(self):
        from repro.core.cq import cq
        from repro.wdpt.wdpt import WDPT

        p = WDPT.from_cq(cq(["?x"], [atom("E", "?x", "?y")]))
        assert interface_width(p) == 0

    def test_prop2_family_unbounded(self):
        for n in (2, 4, 6):
            assert interface_width(prop2_family(n)) == n


class TestGlobalTractability:
    def test_figure1(self, figure1):
        assert is_globally_in_tw(figure1, 1)
        assert is_globally_in_hw(figure1, 1)

    def test_triangle_root(self):
        p = triangle_root_wdpt()
        assert not is_globally_in_tw(p, 1)
        assert is_globally_in_tw(p, 2)
        assert is_globally_in_hw(p, 2)
        assert not is_globally_in_beta_hw(p, 1)
        assert is_globally_in_beta_hw(p, 2)

    def test_prop2_family_globally_tractable(self):
        assert is_globally_in_tw(prop2_family(6), 1)

    def test_figure2_classes(self):
        p1, p2 = figure2_family(3, k=2)
        assert is_globally_in_tw(p2, 2)
        assert not is_globally_in_tw(p1, 2)


class TestWB:
    def test_variants(self):
        p = triangle_root_wdpt()
        assert not is_in_wb(p, 1, WB_TW)
        assert is_in_wb(p, 2, WB_TW)
        assert not is_in_wb(p, 1, WB_BETA_HW)
        assert is_in_wb(p, 2, WB_BETA_HW)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            is_in_wb(triangle_root_wdpt(), 1, "nope")


class TestProposition2:
    def test_bound_value(self):
        assert proposition2_bound(1, 2) == 5

    @pytest.mark.parametrize("n", [2, 3])
    def test_holds_on_random_trees(self, n):
        from repro.workloads.generators import random_wdpt

        for seed in range(5):
            p = random_wdpt(depth=2, fanout=2, seed=seed, shared_vars_per_child=n)
            assert check_proposition2(p, k=2, c=interface_width(p))

    def test_holds_on_figure1(self, figure1):
        assert check_proposition2(figure1, k=1, c=2)
