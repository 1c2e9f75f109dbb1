"""EXPLAIN for pattern trees: which of the paper's tractability conditions
does a query satisfy, and which algorithm will therefore run?

:func:`explain` reads the full structural profile of a WDPT — per-node
treewidth, interface width, global widths, class membership for the
relevant ``k``/``c`` — and derives the paper-backed routing decisions:

* ``EVAL``: Theorem 7 (LOGCFL) if locally tractable with bounded
  interface; Theorem 4 if projection-free and locally tractable; otherwise
  the general exponential procedure (Theorem 1: Σ₂ᵖ-complete).
* ``PARTIAL-EVAL`` / ``MAX-EVAL``: Theorems 8/9 (LOGCFL) under global
  tractability; NP/DP-hard otherwise (Propositions 1/4).

The structural analysis itself lives in :mod:`repro.planner`: EXPLAIN asks
the planner for the tree's memoized :class:`~repro.planner.profile.TreeProfile`,
so the widths it prints are the same objects the evaluation algorithms
route on — profiling a query warms the cache for evaluating it, and vice
versa.  The report renders as a table and is used by the examples; it is a
diagnostics tool, not a query optimizer.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from ..table import format_table
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
        self.global_treewidth = tp.global_profile.treewidth
        self.global_hypertreewidth = tp.global_profile.hypertreewidth

    @property
    def local_treewidth(self) -> Optional[int]:
        widths = [w for w in self.node_treewidths if w is not None]
        if len(widths) != len(self.node_treewidths):
            return None
        return max(max(widths, default=0), 0)

    def eval_route(self) -> str:
        """Which EVAL algorithm the profile licenses."""
        if self.local_treewidth is not None and self.interface_width <= max(
            2, self.local_treewidth
        ):
            return (
                "Theorem 7 DP: ℓ-TW(%d) ∩ BI(%d) → LOGCFL"
                % (self.local_treewidth, self.interface_width)
            )
        if self.projection_free and self.local_treewidth is not None:
            return "Theorem 4: projection-free + ℓ-TW(%d) → PTIME" % self.local_treewidth
        return "general procedure (EVAL is Σ₂ᵖ-complete, Theorem 1)"

    def partial_eval_route(self) -> str:
        if self.global_treewidth is not None:
            return "Theorem 8: g-TW(%d) → LOGCFL" % max(self.global_treewidth, 1)
        return "general procedure (PARTIAL-EVAL is NP-complete, Prop. 1)"

    def as_table(self) -> str:
        from ..relalg.config import kernel_mode

        rows = [
            ["tree nodes", self.tree_size],
            ["|p| (relational size)", self.size],
            ["variables (free)", "%d (%d)" % (self.n_variables, self.n_free)],
            ["projection-free", self.projection_free],
            ["local treewidth (max node)", _fmt(self.local_treewidth)],
            ["interface width (BI)", self.interface_width],
            ["global treewidth (g-TW)", _fmt(self.global_treewidth)],
            ["global hypertreewidth", _fmt(self.global_hypertreewidth)],
            ["fingerprint", self.fingerprint[:12]],
            ["kernel mode (REPRO_KERNELS)", kernel_mode()],
            ["EVAL route", self.eval_route()],
            ["PARTIAL/MAX-EVAL route", self.partial_eval_route()],
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


def _fmt(value: Optional[int]) -> str:
    return "?" if value is None else str(value)
