"""Memoized structural analysis of CQs and WDPTs.

The paper's tractability results (Theorems 2/3, 6–9, 16) route on
*structural* parameters — acyclicity, (hyper)treewidth, interface width,
class membership — that are properties of the query alone, not of the
database.  :class:`StructuralProfile` computes each of them lazily, exactly
once, and keeps the witnesses (join tree, elimination order) so the
engines can consume them without recomputation.  :class:`TreeProfile` does
the same for a WDPT: per-node profiles, the global profile, *derived*
profiles for rooted subtrees, memoized and seeded with the bounds already
known for the full tree, and the compiled Theorem 6/8/9 decision programs
and touch program that resolve their plans.

Soundness of reuse under substitution: the Theorem 8/9 algorithms evaluate
*substituted* subtree CQs ``q̂_{T'}`` (a candidate mapping ``h`` replaces
some variables by constants).  Substitution only removes vertices from the
query hypergraph, and both α-acyclicity and treewidth are monotone under
vertex removal (a join tree restricted to the remaining vertices stays
one, and an elimination order with the removed vertices dropped is no
wider).  Routing a substituted CQ on the profile of its
*unsubstituted* shape is therefore sound, and the unsubstituted shape is
shared by every candidate mapping — which is exactly what makes the
memoization pay off.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..core.atoms import Atom, variables_of
from ..core.terms import Variable
from ..exceptions import BudgetExceededError
from ..hypergraphs.beta import beta_hypertreewidth_at_most
from ..hypergraphs.gyo import JoinTree, join_tree_of_atoms, join_tree_shape
from ..hypergraphs.hypergraph import Hypergraph
from ..hypergraphs.hypertree import hypertreewidth_at_most, hypertreewidth_exact
from ..hypergraphs.treewidth import (
    elimination_order,
    treewidth_at_most,
    treewidth_exact,
    treewidth_upper_bound,
)
from ..wdpt.wdpt import WDPT
from .plan import NodePlan, plan_node

#: Sentinel distinguishing "not yet computed" from a computed ``None``.
_UNSET = object()

AnalysisHook = Optional[Callable[[float], None]]
#: Called once per :class:`~repro.planner.plan.NodePlan` a profile builds.
PlanHook = Optional[Callable[[], None]]


class StructuralProfile:
    """Lazily computed, memoized structural analysis of one atom set.

    Every accessor computes its answer at most once; the time spent is
    reported through the optional ``on_analysis`` hook (the planner
    aggregates it).
    """

    __slots__ = (
        "sorted_atoms",
        "free_variables",
        "_on_analysis",
        "_on_plan",
        "_inherited_tw_upper",
        "_variables",
        "_plans",
        "_hypergraph",
        "_join_tree",
        "_tw_upper",
        "_tw_exact",
        "_hw_exact",
        "_order",
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
        on_plan: PlanHook = None,
    ):
        self.sorted_atoms: Tuple[Atom, ...] = tuple(sorted(set(atoms)))
        self.free_variables = tuple(free_variables)
        self._on_analysis = on_analysis
        self._on_plan = on_plan
        self._inherited_tw_upper = inherited_tw_upper
        self._variables = _UNSET
        self._plans: Optional[Dict[Optional[FrozenSet[Variable]], NodePlan]] = None
        self._hypergraph = _UNSET
        self._join_tree = _UNSET
        self._tw_upper = _UNSET
        self._tw_exact = _UNSET
        self._hw_exact = _UNSET
        self._order = _UNSET
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
            if self._on_analysis is not None:
                self._on_analysis(time.perf_counter() - start)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def variables(self) -> FrozenSet[Variable]:
        """``vars(shape)``, built on first use: nothing a profile that is
        never bound (one per request on a cold server) pays for."""
        if self._variables is _UNSET:
            self._variables = variables_of(self.sorted_atoms)
        return self._variables  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Plans (the rule is repro.planner.plan.plan_node)
    # ------------------------------------------------------------------
    @property
    def answers_plan(self) -> NodePlan:
        """The plan of the answers op: what the top-down evaluator and
        :meth:`~repro.planner.planner.Planner.evaluate_cq` run."""
        plans = self._plans
        plan = None if plans is None else plans.get(None)
        return self._plan(None) if plan is None else plan

    def boolean_plan(self, bound: Iterable[Variable]) -> NodePlan:
        """The plan of a Boolean check binding the variables ``bound``,
        built once per ``bound ∩ vars(shape)`` and kept, so new values never
        add an entry.  No lock: threads racing on an entry store equal
        plans, and a store lost to a race costs one rebuild."""
        key = self.variables.intersection(bound)
        plans = self._plans
        plan = None if plans is None else plans.get(key)
        return self._plan(key) if plan is None else plan

    def _plan(self, key: Optional[FrozenSet[Variable]]) -> NodePlan:
        if self._plans is None:
            self._plans = {}
        plan = self._plans[key] = plan_node(self, key)
        if self._on_plan is not None:
            self._on_plan()
        return plan

    @property
    def hypergraph(self) -> Hypergraph:
        """The query hypergraph (variables as vertices, atoms as edges)."""
        if self._hypergraph is _UNSET:
            self._hypergraph = self._timed(
                lambda: Hypergraph(
                    (a.variables() for a in self.sorted_atoms),
                    vertices=self.variables,
                )
            )
        return self._hypergraph  # type: ignore[return-value]

    @property
    def join_tree(self) -> Optional[JoinTree]:
        """The :class:`~repro.hypergraphs.gyo.JoinTree` over
        :attr:`sorted_atoms` indices, or ``None`` when the query is cyclic.
        The GYO links and the shape derived from them are computed once;
        every Yannakakis run on this shape consumes the shape as it is."""
        if self._join_tree is _UNSET:
            self._join_tree = self._timed(self._derive_join_tree)
        return self._join_tree  # type: ignore[return-value]

    def _derive_join_tree(self) -> Optional[JoinTree]:
        links = join_tree_of_atoms(self.sorted_atoms)
        if links is None:
            return None
        return join_tree_shape(links, len(self.sorted_atoms))

    @property
    def is_acyclic(self) -> bool:
        """α-acyclicity (``HW(1) = AC``, Section 3.1)."""
        return self.join_tree is not None

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
    def elimination_order(self) -> List[Variable]:
        """An elimination order of the variables (exact minimum width
        within budget); a Theorem 2 plan eliminates in it, bound variables
        dropped."""
        if self._order is _UNSET:
            self._order = self._timed(lambda: elimination_order(self.hypergraph))
        return self._order  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Class membership (memoized per k)
    # ------------------------------------------------------------------
    def in_tw(self, k: int) -> bool:
        """``TW(k)`` membership (Section 3.1), with inherited fast path."""
        inherited = self._inherited_tw_upper
        if inherited is not None and inherited <= k:
            return True
        return self._member(self._tw_at_most, treewidth_at_most, k)

    def in_hw(self, k: int) -> bool:
        """``HW(k)`` membership."""
        return self._member(self._hw_at_most, hypertreewidth_at_most, k)

    def in_beta_hw(self, k: int) -> bool:
        """``HW'(k)`` (β-hypertreewidth) membership — subquery-closed."""
        return self._member(self._beta_hw_at_most, beta_hypertreewidth_at_most, k)

    def _member(self, memo: Dict[int, bool], decide: Callable, k: int) -> bool:
        cached = memo.get(k)
        if cached is None:
            cached = memo[k] = self._timed(lambda: decide(self.hypergraph, k))  # type: ignore
        return cached

    def __repr__(self) -> str:
        acyclic = "?" if self._join_tree is _UNSET else str(self.is_acyclic)
        return "StructuralProfile(%d atoms, acyclic=%s)" % (len(self.sorted_atoms), acyclic)


class TreeProfile:
    """One shared structural analysis for a whole WDPT.

    Holds per-node profiles, the global (full-tree) profile, interface
    widths, and derived rooted-subtree profiles.  Subtree profiles inherit
    the global treewidth bound (treewidth is subquery-monotone) so class
    checks on subtrees are usually free, and they are memoized by node set.

    It also keeps the compiled programs (:meth:`program`): the Theorem
    6/8/9 decision programs, one per (procedure, candidate domain), and
    the touch program of :mod:`repro.wdpt.touch`, one per tree.  Each is
    built from the node, subtree and branch profiles and holds the
    Boolean plans it resolves, so a decision or a write's touch test runs
    on plain values and asks this profile nothing.
    """

    __slots__ = (
        "wdpt",
        "fingerprint",
        "_on_analysis",
        "_on_plan",
        "_node_profiles",
        "_subtree_profiles",
        "_global",
        "_interface_width",
        "_programs",
        "subtree_hits",
        "subtree_misses",
        "program_hits",
        "program_misses",
    )

    def __init__(self, p: WDPT, on_analysis: AnalysisHook = None, on_plan: PlanHook = None):
        self.wdpt = p
        self.fingerprint = p.structural_fingerprint()
        self._on_analysis = on_analysis
        self._on_plan = on_plan
        self._node_profiles: List[Optional[StructuralProfile]] = [None] * len(p.tree)
        self._subtree_profiles: Dict[FrozenSet[int], StructuralProfile] = {}
        self._global: Optional[StructuralProfile] = None
        self._interface_width: Optional[int] = None
        self._programs: Dict[Tuple[Callable, FrozenSet[Variable]], object] = {}
        self.subtree_hits = 0
        self.subtree_misses = 0
        self.program_hits = 0
        self.program_misses = 0

    # ------------------------------------------------------------------
    # Profiles
    # ------------------------------------------------------------------
    def _profile(self, atoms, **kwargs) -> StructuralProfile:
        return StructuralProfile(
            sorted(atoms), on_analysis=self._on_analysis, on_plan=self._on_plan, **kwargs
        )

    def profile_of(self, atoms: Iterable[Atom]) -> StructuralProfile:
        """A fresh profile of ``atoms`` (atoms of this tree), reporting to
        the planner's hooks and kept by whoever asked: the touch program
        keeps one per branch check."""
        return self._profile(atoms)

    def node_profile(self, node: int) -> StructuralProfile:
        """The profile of ``λ(node)``: its answers plan gives the top-down
        evaluator's node relation, its Boolean plans the Theorem 6 DP's
        per-node checks."""
        profile = self._node_profiles[node]
        if profile is None:
            profile = self._node_profiles[node] = self._profile(self.wdpt.labels[node])
        return profile

    @property
    def global_profile(self) -> StructuralProfile:
        """The profile of ``q_T`` (all nodes) — the g-C(k) checks of
        Theorems 8/9 route on this."""
        if self._global is None:
            p = self.wdpt
            self._global = self._profile(
                p.atoms_of(p.tree.nodes()), free_variables=p.free_variables
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
            profile = self._profile(self.wdpt.atoms_of(key), inherited_tw_upper=inherited)
        self._subtree_profiles[key] = profile
        return profile

    # ------------------------------------------------------------------
    # Compiled programs (Theorems 6, 8, 9 and the touch test)
    # ------------------------------------------------------------------
    def program(
        self, build: Callable[[WDPT, FrozenSet[Variable], "TreeProfile"], object],
        domain: FrozenSet[Variable],
    ) -> object:
        """The program ``build`` compiles for this tree and the candidate
        domain ``domain``: built on first request, from :attr:`wdpt` and
        this profile (whose plans it resolves), and kept while the profile
        lives.  Callers ask only for ``domain ⊆ x̄``; the touch program,
        which has no domain, for the empty one.
        No lock, as for :meth:`StructuralProfile.boolean_plan`: threads
        racing on an entry store equal programs."""
        key = (build, domain)
        program = self._programs.get(key, _UNSET)
        if program is _UNSET:
            self.program_misses += 1
            program = self._programs[key] = build(self.wdpt, domain, self)
        else:
            self.program_hits += 1
        return program

    def programs(self) -> List[Tuple[Callable, FrozenSet[Variable]]]:
        """The ``(build, domain)`` keys of the programs built so far."""
        return list(self._programs)

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
