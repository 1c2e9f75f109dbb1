"""Syntactic classes of WDPTs (Sections 3.2, 3.3 and 5).

* **Local tractability** ``ℓ-C``: the Boolean CQ of every node label lies in
  ``C`` (``TW(k)`` or ``HW(k)``).
* **Bounded interface** ``BI(c)``: every node shares at most ``c`` variables
  with the union of its children.
* **Global tractability** ``g-C``: ``q_{T'} ∈ C`` for every rooted subtree
  ``T'``.  For ``C = TW(k)`` this collapses to ``tw(q_T) ≤ k`` because
  treewidth is monotone under subhypergraphs (a rooted subtree's atoms are a
  subset of the tree's atoms); for ``C = HW(k)`` no such collapse exists —
  hypertreewidth is *not* subquery-monotone — so rooted subtrees are
  enumerated (with a β-hypertreewidth fast path, which *is* subquery-closed).
* **Well-behaved** ``WB(k)``: ``g-TW(k)`` or ``g-HW'(k)`` (Section 5), the
  classes used for semantic optimization and approximation.

Also here: Proposition 2's containment
``ℓ-C(k) ∩ BI(c) ⊆ g-C(k + 2c)`` as an executable fact used by tests.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from .wdpt import WDPT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..planner.planner import Planner
    from ..planner.profile import TreeProfile


def _tree_profile(p: WDPT, planner: "Optional[Planner]") -> "TreeProfile":
    """The shared structural profile of ``p`` (per-node and global widths
    are computed once per tree shape and memoized in the plan cache)."""
    if planner is None:
        from ..planner.planner import get_default_planner

        planner = get_default_planner()
    return planner.profile_wdpt(p)


# ---------------------------------------------------------------------------
# Local tractability
# ---------------------------------------------------------------------------
def is_locally_in_tw(p: WDPT, k: int, planner: "Optional[Planner]" = None) -> bool:
    """``p ∈ ℓ-TW(k)``: each node's atom set has treewidth ≤ k."""
    return _tree_profile(p, planner).locally_in_tw(k)


def is_locally_in_hw(p: WDPT, k: int, planner: "Optional[Planner]" = None) -> bool:
    """``p ∈ ℓ-HW(k)``: each node's atom set has hypertreewidth ≤ k."""
    return _tree_profile(p, planner).locally_in_hw(k)


# ---------------------------------------------------------------------------
# Bounded interface
# ---------------------------------------------------------------------------
def interface_width(p: WDPT, planner: "Optional[Planner]" = None) -> int:
    """The smallest ``c`` with ``p ∈ BI(c)``: the maximum, over nodes, of
    the number of variables shared with the node's children."""
    return _tree_profile(p, planner).interface_width


def has_bounded_interface(p: WDPT, c: int, planner: "Optional[Planner]" = None) -> bool:
    """``p ∈ BI(c)``."""
    return interface_width(p, planner=planner) <= c


# ---------------------------------------------------------------------------
# Global tractability
# ---------------------------------------------------------------------------
def is_globally_in_tw(p: WDPT, k: int, planner: "Optional[Planner]" = None) -> bool:
    """``p ∈ g-TW(k)``.

    Collapses to a single check on the full tree: for every rooted subtree
    ``T'`` the hypergraph of ``q_{T'}`` is a subhypergraph of that of
    ``q_T``, and treewidth never increases under subhypergraphs.
    """
    return _tree_profile(p, planner).globally_in_tw(k)


def is_globally_in_hw(p: WDPT, k: int, planner: "Optional[Planner]" = None) -> bool:
    """``p ∈ g-HW(k)``: every rooted subtree's CQ has hypertreewidth ≤ k.

    Fast path: β-hypertreewidth ≤ k of the full CQ implies membership
    (``HW'(k) ⊆ HW(k)`` and is subquery-closed).  Otherwise rooted subtrees
    are enumerated — exponential in tree size, matching the paper's remark
    that recognizing global tractability is itself non-trivial for HW —
    against memoized subtree profiles.
    """
    return _tree_profile(p, planner).globally_in_hw(k)


def is_globally_in_beta_hw(p: WDPT, k: int, planner: "Optional[Planner]" = None) -> bool:
    """``p ∈ g-HW'(k)``.

    ``HW'(k)`` is subquery-closed, so it suffices that ``q_T ∈ HW'(k)``
    (the full tree is itself a rooted subtree, and every ``q_{T'}`` is a
    subquery of ``q_T``).
    """
    return _tree_profile(p, planner).globally_in_beta_hw(k)


# ---------------------------------------------------------------------------
# Well-behaved classes WB(k) (Section 5)
# ---------------------------------------------------------------------------
#: The two instantiations of C(k) in WB(k) = g-C(k).
WB_TW = "tw"
WB_BETA_HW = "beta-hw"


def is_in_wb(p: WDPT, k: int, variant: str = WB_TW) -> bool:
    """``p ∈ WB(k)`` with ``C(k) = TW(k)`` (default) or ``HW'(k)``."""
    if variant == WB_TW:
        return is_globally_in_tw(p, k)
    if variant == WB_BETA_HW:
        return is_globally_in_beta_hw(p, k)
    raise ValueError("unknown WB variant %r" % (variant,))


# ---------------------------------------------------------------------------
# Proposition 2 (part 1), as an executable fact
# ---------------------------------------------------------------------------
def proposition2_bound(k: int, c: int) -> int:
    """The global width bound ``k + 2c`` of Proposition 2(1)."""
    return k + 2 * c


def check_proposition2(p: WDPT, k: int, c: int) -> bool:
    """Verify Proposition 2(1) on a concrete tree: if
    ``p ∈ ℓ-TW(k) ∩ BI(c)`` then ``p ∈ g-TW(k + 2c)``."""
    if not (is_locally_in_tw(p, k) and has_bounded_interface(p, c)):
        return True  # vacuously
    return is_globally_in_tw(p, proposition2_bound(k, c))
