"""EXPLAIN for pattern trees: which of the paper's tractability conditions
does a query satisfy, and what will run?

:func:`explain` reads the full structural profile of a WDPT — per-node
treewidth, interface width, global widths — and names what each
operation runs:

* ``query`` / ``query_maximal``: the top-down evaluator (Theorem 1:
  Σ₂ᵖ-complete in general), and per tree node the label's answers plan
  (:class:`~repro.planner.plan.NodePlan`) that it runs; ``query_maximal``
  on a projection-free tree runs no ⊑-filter, as ``p_m(D) = p(D)`` there;
* ``ask`` (``EVAL``): the Theorem 6 interface DP, with the tree's
  ``ℓ-TW(k) ∩ BI(c)`` parameters (LOGCFL for fixed ``k``, ``c``: Theorem 7);
* ``is_partial`` / ``is_maximal``: the Theorem 8/9 procedures, with the
  tree's ``g-TW(k)`` parameter.

The structural analysis itself lives in :mod:`repro.planner`: EXPLAIN asks
the planner for the tree's memoized :class:`~repro.planner.profile.TreeProfile`,
so the widths it prints are the same objects the evaluation algorithms
route on — profiling a query warms the cache for evaluating it, and vice
versa.  The report renders as a table and is used by the examples; it is a
diagnostics tool, not a query optimizer.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from ..planner.plan import NodePlan
from ..table import format_optional, format_table
from .wdpt import WDPT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..planner.planner import Planner


class WDPTProfile:
    """Structural profile of a WDPT (see :func:`explain`).

    A thin, display-oriented view over the planner's memoized
    :class:`~repro.planner.profile.TreeProfile`.
    """

    def __init__(self, p: WDPT, planner: "Optional[Planner]" = None):
        if planner is None:
            from ..planner.planner import get_default_planner

            planner = get_default_planner()
        tp = planner.profile_wdpt(p)
        self.tree_profile = tp
        self.fingerprint = tp.fingerprint
        self.tree_size = len(p.tree)
        self.size = p.size()
        self.n_variables = len(p.variables())
        self.n_free = len(p.free_variables)
        self.projection_free = p.is_projection_free()
        self.node_treewidths: List[Optional[int]] = [
            tp.node_profile(n).treewidth for n in p.tree.nodes()
        ]
        self.node_hypertreewidths: List[Optional[int]] = [
            tp.node_profile(n).hypertreewidth for n in p.tree.nodes()
        ]
        self.interface_width = tp.interface_width
        self.node_interfaces = tp.node_interfaces()
        #: Per tree node, the answers plan ``query`` runs.
        self.node_plans: List[NodePlan] = [
            tp.node_profile(n).answers_plan for n in p.tree.nodes()
        ]
        self.global_treewidth = tp.global_profile.treewidth
        self.global_hypertreewidth = tp.global_profile.hypertreewidth

    @property
    def local_treewidth(self) -> Optional[int]:
        widths = [w for w in self.node_treewidths if w is not None]
        if len(widths) != len(self.node_treewidths):
            return None
        return max(max(widths, default=0), 0)

    def query_route(self, maximal: bool = False) -> str:
        """What ``query`` (``maximal``: ``query_maximal``) runs: the
        top-down evaluator over the per-node answers plans."""
        route = (
            "top-down evaluator over the per-node answers plans: "
            "EVAL is Σ₂ᵖ-complete in general (Theorem 1)"
        )
        if maximal and self.projection_free:
            route += "; projection-free, so p_m(D) = p(D): no ⊑-filter"
        return route

    def eval_route(self) -> str:
        """What ``ask`` runs: the Theorem 6 DP, with its parameters."""
        return "Theorem 6 DP: ℓ-TW(%s) ∩ BI(%d) → LOGCFL for fixed k, c (Theorem 7)" % (
            format_optional(self.local_treewidth),
            self.interface_width,
        )

    def partial_eval_route(self) -> str:
        """What ``is_partial``/``is_maximal`` run: Theorems 8/9."""
        width = self.global_treewidth
        return "Theorem 8/9 procedures: g-TW(%s) → LOGCFL for fixed k" % format_optional(
            None if width is None else max(width, 1)
        )

    def as_table(self) -> str:
        rows = [
            ["tree nodes", self.tree_size],
            ["|p| (relational size)", self.size],
            ["variables (free)", "%d (%d)" % (self.n_variables, self.n_free)],
            ["projection-free", self.projection_free],
            ["local treewidth (max node)", format_optional(self.local_treewidth)],
            ["interface width (BI)", self.interface_width],
            ["global treewidth (g-TW)", format_optional(self.global_treewidth)],
            ["global hypertreewidth", format_optional(self.global_hypertreewidth)],
            ["fingerprint", self.fingerprint[:12]],
        ]
        rows += [
            ["query: node %d plan" % node, plan.describe()]
            for node, plan in enumerate(self.node_plans)
        ]
        rows += [
            ["EVAL route (ask)", self.eval_route()],
            ["PARTIAL/MAX-EVAL route (is_partial, is_maximal)", self.partial_eval_route()],
        ]
        return format_table(["property", "value"], rows, title="WDPT profile")

    def __repr__(self) -> str:
        return self.as_table()


def explain(p: WDPT, planner: "Optional[Planner]" = None) -> WDPTProfile:
    """Profile ``p`` against the paper's tractability conditions, through
    the (default or supplied) planner's memoized analysis.

    >>> from repro.workloads.families import figure1_wdpt
    >>> profile = explain(figure1_wdpt())
    >>> profile.interface_width
    2
    >>> profile.global_treewidth
    1
    """
    return WDPTProfile(p, planner=planner)
