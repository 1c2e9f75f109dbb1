"""Memoized structural analysis of CQs and WDPTs.

The paper's tractability results (Theorems 2/3, 6–9, 16) route on
*structural* parameters — acyclicity, (hyper)treewidth, interface width,
class membership — that are properties of the query alone, not of the
database.  :class:`StructuralProfile` computes each of them lazily, exactly
once, and keeps the witnesses (join tree, tree decomposition) so the
engines can consume them without recomputation.  :class:`TreeProfile` does
the same for a WDPT: per-node profiles, the global profile, and *derived*
profiles for rooted subtrees, which the Theorem 8/9 algorithms request
repeatedly (one per candidate mapping) and which are therefore memoized and
seeded with the bounds already known for the full tree.

Soundness of reuse under substitution: the Theorem 8/9 algorithms evaluate
*substituted* subtree CQs ``q̂_{T'}`` (a candidate mapping ``h`` replaces
some variables by constants).  Substitution only removes vertices from the
query hypergraph, and both α-acyclicity and treewidth are monotone under
vertex removal (a join tree / decomposition restricted to the remaining
vertices stays valid).  Routing a substituted CQ on the profile of its
*unsubstituted* shape is therefore sound, and the unsubstituted shape is
shared by every candidate mapping — which is exactly what makes the
memoization pay off.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.atoms import Atom, variables_of
from ..core.terms import Variable
from ..exceptions import BudgetExceededError
from ..hypergraphs.beta import beta_hypertreewidth_at_most
from ..hypergraphs.gyo import join_tree_of_atoms
from ..hypergraphs.hypergraph import Hypergraph
from ..hypergraphs.hypertree import hypertree_decomposition, hypertreewidth_at_most, hypertreewidth_exact
from ..hypergraphs.treedecomp import TreeDecomposition
from ..hypergraphs.treewidth import (
    tree_decomposition,
    treewidth_exact,
    treewidth_upper_bound,
)
from ..wdpt.wdpt import WDPT

#: Sentinel distinguishing "not yet computed" from a computed ``None``.
_UNSET = object()

#: Engine identifiers (also used as keys in planner statistics).
ENGINE_YANNAKAKIS = "yannakakis"
ENGINE_TREEWIDTH = "treewidth"
ENGINE_HYPERTREEWIDTH = "hypertreewidth"
ENGINE_NAIVE = "naive"

#: Treewidth (heuristic upper bound) up to which the decomposition engine
#: is preferred over backtracking.
TW_CUTOFF = 3

AnalysisHook = Optional[Callable[[float], None]]


class StructuralProfile:
    """Lazily computed, memoized structural analysis of one atom set.

    Every accessor computes its answer at most once; the time spent is
    accumulated in :attr:`analysis_seconds` and reported through the
    optional ``on_analysis`` hook (the planner aggregates these).
    """

    __slots__ = (
        "sorted_atoms",
        "free_variables",
        "analysis_seconds",
        "_on_analysis",
        "_inherited_tw_upper",
        "_hypergraph",
        "_join_tree",
        "_engine",
        "_tw_upper",
        "_tw_exact",
        "_hw_exact",
        "_tree_decomp",
        "_hypertree_decomp",
        "_tw_at_most",
        "_hw_at_most",
        "_beta_hw_at_most",
    )

    def __init__(
        self,
        atoms: Sequence[Atom],
        free_variables: Tuple[Variable, ...] = (),
        on_analysis: AnalysisHook = None,
        inherited_tw_upper: Optional[int] = None,
    ):
        self.sorted_atoms: Tuple[Atom, ...] = tuple(sorted(set(atoms)))
        self.free_variables = tuple(free_variables)
        self.analysis_seconds = 0.0
        self._on_analysis = on_analysis
        self._inherited_tw_upper = inherited_tw_upper
        self._hypergraph = _UNSET
        self._join_tree = _UNSET
        self._engine = _UNSET
        self._tw_upper = _UNSET
        self._tw_exact = _UNSET
        self._hw_exact = _UNSET
        self._tree_decomp = _UNSET
        self._hypertree_decomp = _UNSET
        self._tw_at_most: Dict[int, bool] = {}
        self._hw_at_most: Dict[int, bool] = {}
        self._beta_hw_at_most: Dict[int, bool] = {}

    # ------------------------------------------------------------------
    # Timed lazy computation
    # ------------------------------------------------------------------
    def _timed(self, fn: Callable[[], object]) -> object:
        start = time.perf_counter()
        try:
            return fn()
        finally:
            elapsed = time.perf_counter() - start
            self.analysis_seconds += elapsed
            if self._on_analysis is not None:
                self._on_analysis(elapsed)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def hypergraph(self) -> Hypergraph:
        """The query hypergraph (variables as vertices, atoms as edges)."""
        if self._hypergraph is _UNSET:
            self._hypergraph = self._timed(
                lambda: Hypergraph(
                    (a.variables() for a in self.sorted_atoms),
                    vertices=variables_of(self.sorted_atoms),
                )
            )
        return self._hypergraph  # type: ignore[return-value]

    @property
    def join_tree(self) -> Optional[List[Tuple[int, int]]]:
        """A join tree over :attr:`sorted_atoms` indices, or ``None`` when
        the query is cyclic.  Computed once; consumed directly by the
        Yannakakis engine (no rebuild)."""
        if self._join_tree is _UNSET:
            self._join_tree = self._timed(lambda: join_tree_of_atoms(self.sorted_atoms))
        return self._join_tree  # type: ignore[return-value]

    @property
    def is_acyclic(self) -> bool:
        """α-acyclicity (``HW(1) = AC``, Section 3.1)."""
        return self.join_tree is not None

    @property
    def engine(self) -> str:
        """The engine this shape routes to — the planner's whole routing
        rule, decided once per shape: acyclic → Yannakakis (Theorem 3 with
        ``k = 1``, ``HW(1) = AC``); treewidth bound ≤ :data:`TW_CUTOFF` →
        the decomposition engine (Theorem 2); otherwise backtracking (no
        structural guarantee; EVAL for CQs is NP-complete in general)."""
        if self._engine is _UNSET:
            if self.is_acyclic:
                self._engine = ENGINE_YANNAKAKIS
            elif self.treewidth_upper <= TW_CUTOFF:
                self._engine = ENGINE_TREEWIDTH
            else:
                self._engine = ENGINE_NAIVE
        return self._engine  # type: ignore[return-value]

    @property
    def treewidth_upper(self) -> int:
        """The cheap heuristic upper bound on treewidth, capped by any bound
        inherited from a superquery (treewidth is monotone under subqueries)."""
        if self._tw_upper is _UNSET:
            bound = self._timed(lambda: treewidth_upper_bound(self.hypergraph))
            if self._inherited_tw_upper is not None:
                bound = min(bound, self._inherited_tw_upper)  # type: ignore[call-overload]
            self._tw_upper = bound
        return self._tw_upper  # type: ignore[return-value]

    @property
    def treewidth(self) -> Optional[int]:
        """Exact treewidth, or ``None`` when over the exact-solver budget."""
        if self._tw_exact is _UNSET:
            self._tw_exact = self._timed(lambda: _safe(lambda: treewidth_exact(self.hypergraph)))
        return self._tw_exact  # type: ignore[return-value]

    @property
    def hypertreewidth(self) -> Optional[int]:
        """Exact generalized hypertreewidth, or ``None`` over budget."""
        if self._hw_exact is _UNSET:
            self._hw_exact = self._timed(
                lambda: _safe(lambda: hypertreewidth_exact(self.hypergraph))
            )
        return self._hw_exact  # type: ignore[return-value]

    @property
    def tree_decomposition(self) -> TreeDecomposition:
        """A tree decomposition witness (exact width within budget),
        consumed by the bounded-treewidth engine."""
        if self._tree_decomp is _UNSET:
            self._tree_decomp = self._timed(lambda: tree_decomposition(self.hypergraph))
        return self._tree_decomp  # type: ignore[return-value]

    @property
    def hypertree_decomposition(self) -> TreeDecomposition:
        """A generalized hypertree decomposition witness."""
        if self._hypertree_decomp is _UNSET:
            self._hypertree_decomp = self._timed(
                lambda: hypertree_decomposition(self.hypergraph)
            )
        return self._hypertree_decomp  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Class membership (memoized per k)
    # ------------------------------------------------------------------
    def in_tw(self, k: int) -> bool:
        """``TW(k)`` membership (Section 3.1), with inherited fast path."""
        cached = self._tw_at_most.get(k)
        if cached is None:
            if self._inherited_tw_upper is not None and self._inherited_tw_upper <= k:
                cached = True
            else:
                from ..hypergraphs.treewidth import treewidth_at_most

                cached = self._timed(lambda: treewidth_at_most(self.hypergraph, k))
            self._tw_at_most[k] = cached  # type: ignore[assignment]
        return cached  # type: ignore[return-value]

    def in_hw(self, k: int) -> bool:
        """``HW(k)`` membership."""
        cached = self._hw_at_most.get(k)
        if cached is None:
            cached = self._timed(lambda: hypertreewidth_at_most(self.hypergraph, k))
            self._hw_at_most[k] = cached  # type: ignore[assignment]
        return cached  # type: ignore[return-value]

    def in_beta_hw(self, k: int) -> bool:
        """``HW'(k)`` (β-hypertreewidth) membership — subquery-closed."""
        cached = self._beta_hw_at_most.get(k)
        if cached is None:
            cached = self._timed(lambda: beta_hypertreewidth_at_most(self.hypergraph, k))
            self._beta_hw_at_most[k] = cached  # type: ignore[assignment]
        return cached  # type: ignore[return-value]

    def __repr__(self) -> str:
        acyclic = "?" if self._join_tree is _UNSET else str(self.is_acyclic)
        return "StructuralProfile(%d atoms, acyclic=%s)" % (len(self.sorted_atoms), acyclic)


class TreeProfile:
    """One shared structural analysis for a whole WDPT.

    Holds per-node profiles, the global (full-tree) profile, interface
    widths, and derived rooted-subtree profiles.  Subtree profiles inherit
    the global treewidth bound (treewidth is subquery-monotone) so class
    checks on subtrees are usually free, and they are memoized by node set:
    the Theorem 8/9 algorithms request the same few subtrees once per
    candidate mapping, so across a workload almost every request is a hit.
    """

    __slots__ = (
        "wdpt",
        "fingerprint",
        "_on_analysis",
        "_node_profiles",
        "_subtree_profiles",
        "_global",
        "_interface_width",
        "subtree_hits",
        "subtree_misses",
    )

    def __init__(self, p: WDPT, on_analysis: AnalysisHook = None):
        self.wdpt = p
        self.fingerprint = p.structural_fingerprint()
        self._on_analysis = on_analysis
        self._node_profiles: List[Optional[StructuralProfile]] = [None] * len(p.tree)
        self._subtree_profiles: Dict[FrozenSet[int], StructuralProfile] = {}
        self._global: Optional[StructuralProfile] = None
        self._interface_width: Optional[int] = None
        self.subtree_hits = 0
        self.subtree_misses = 0

    # ------------------------------------------------------------------
    # Profiles
    # ------------------------------------------------------------------
    def node_profile(self, node: int) -> StructuralProfile:
        """The profile of ``λ(node)`` as a Boolean CQ (Theorem 7's per-node
        checks route on this)."""
        profile = self._node_profiles[node]
        if profile is None:
            profile = StructuralProfile(
                sorted(self.wdpt.labels[node]), on_analysis=self._on_analysis
            )
            self._node_profiles[node] = profile
        return profile

    @property
    def global_profile(self) -> StructuralProfile:
        """The profile of ``q_T`` (all nodes) — the g-C(k) checks of
        Theorems 8/9 route on this."""
        if self._global is None:
            p = self.wdpt
            self._global = StructuralProfile(
                sorted(p.atoms_of(p.tree.nodes())),
                free_variables=p.free_variables,
                on_analysis=self._on_analysis,
            )
        return self._global

    def subtree_profile(self, nodes: FrozenSet[int]) -> StructuralProfile:
        """The profile of the rooted subtree ``nodes`` — derived, not
        rebuilt: memoized per node set and seeded with the global treewidth
        bound when it is already known."""
        key = frozenset(nodes)
        profile = self._subtree_profiles.get(key)
        if profile is not None:
            self.subtree_hits += 1
            return profile
        self.subtree_misses += 1
        if len(key) == len(self.wdpt.tree):
            profile = self.global_profile
        else:
            inherited = None
            g = self._global
            if g is not None and g._tw_upper is not _UNSET:
                inherited = g.treewidth_upper
            profile = StructuralProfile(
                sorted(self.wdpt.atoms_of(key)),
                on_analysis=self._on_analysis,
                inherited_tw_upper=inherited,
            )
        self._subtree_profiles[key] = profile
        return profile

    # ------------------------------------------------------------------
    # Interface widths (Section 3.2)
    # ------------------------------------------------------------------
    @property
    def interface_width(self) -> int:
        """The smallest ``c`` with the tree in ``BI(c)``."""
        if self._interface_width is None:
            self._interface_width = max(self.node_interfaces(), default=0)
        return self._interface_width

    def node_interfaces(self) -> List[int]:
        """Per-node interface sizes ``|vars(t) ∩ ⋃_child vars(child)|``."""
        from ..wdpt.subtrees import interface_to_children

        return [
            len(interface_to_children(self.wdpt, n)) for n in self.wdpt.tree.nodes()
        ]

    # ------------------------------------------------------------------
    # Class memberships (Sections 3.2/3.3/5), shared across consumers
    # ------------------------------------------------------------------
    def locally_in_tw(self, k: int) -> bool:
        """``ℓ-TW(k)``: every node label in ``TW(k)``."""
        return all(
            self.node_profile(n).in_tw(k) for n in self.wdpt.tree.nodes()
        )

    def locally_in_hw(self, k: int) -> bool:
        """``ℓ-HW(k)``."""
        return all(
            self.node_profile(n).in_hw(k) for n in self.wdpt.tree.nodes()
        )

    def globally_in_tw(self, k: int) -> bool:
        """``g-TW(k)`` — collapses to the full tree (treewidth is
        subquery-monotone)."""
        return self.global_profile.in_tw(k)

    def globally_in_beta_hw(self, k: int) -> bool:
        """``g-HW'(k)`` — ``HW'`` is subquery-closed, so the full tree
        suffices."""
        return self.global_profile.in_beta_hw(k)

    def globally_in_hw(self, k: int) -> bool:
        """``g-HW(k)``: every rooted subtree in ``HW(k)``.  Fast paths via
        the full tree and β-width; otherwise rooted subtrees are enumerated
        against memoized subtree profiles."""
        if not self.global_profile.in_hw(k):
            return False  # T itself is a rooted subtree
        try:
            if self.global_profile.in_beta_hw(k):
                return True
        except Exception:  # budget exceeded on the fast path: fall through
            pass
        return all(
            self.subtree_profile(nodes).in_hw(k)
            for nodes in self.wdpt.tree.rooted_subtrees()
        )

    @property
    def analysis_seconds(self) -> float:
        """Total analysis time across all owned profiles."""
        total = sum(p.analysis_seconds for p in self._node_profiles if p is not None)
        total += sum(p.analysis_seconds for p in self._subtree_profiles.values())
        if self._global is not None and frozenset(self.wdpt.tree.nodes()) not in self._subtree_profiles:
            total += self._global.analysis_seconds
        return total

    def __repr__(self) -> str:
        return "TreeProfile(%d nodes, %d subtree profiles)" % (
            len(self.wdpt.tree),
            len(self._subtree_profiles),
        )


def _safe(fn: Callable[[], int]) -> Optional[int]:
    try:
        return fn()
    except BudgetExceededError:
        return None
