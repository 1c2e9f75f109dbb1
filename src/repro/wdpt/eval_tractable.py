"""The tractable exact-evaluation algorithm (Theorems 6 and 7).

Decides ``h ∈ p(D)`` by an interface dynamic program over the tree, which
is polynomial for WDPTs that are locally tractable with ``c``-bounded
interface — the paper's headline tractability result.  The same code is a
correct (if worst-case exponential) algorithm for arbitrary WDPTs.

Derivation (following the proof sketch of Theorem 6, Appendix A.1):

``h ∈ p(D)`` iff there is a rooted subtree ``T*`` and a homomorphism
``ĥ ∈ q_{T*}(D)`` with ``ĥ|_x̄ = h`` that is maximal.  Writing

* ``T'`` — the minimal rooted subtree containing ``dom(h)``;
* ``T''`` — the maximal rooted subtree mentioning no free variable
  outside ``dom(h)``;

``T*`` must satisfy ``T' ⊆ T* ⊆ T''`` (smaller misses part of ``h``;
larger forces extra free variables into the projection).  Maximality of
``ĥ`` means no homomorphism of ``p`` strictly extends it — equivalently,
after absorbing every frontier node satisfiable without new variables,
no frontier node of ``T*`` admits *any* extension of ``ĥ``.

The dynamic program processes nodes of ``T''`` top-down.  For a node ``t``
and an assignment ``σ`` of its parent-interface ``S_t = vars(t) ∩
vars(parent(t))`` (well-designedness makes ``S_t`` a separator):

* ``IN(t, σ)`` — ``t`` can be taken into ``T*``: some homomorphism ``g``
  of ``λ(t)`` extends ``σ`` and agrees with ``h`` on the free variables of
  ``t``, such that every child ``u`` of ``t`` is *handled*:
  mandatory children (in ``T'``) satisfy ``IN(u, g|_{S_u})``; optional
  children (in ``T''``) satisfy ``IN`` or ``BLOCKED``; children outside
  ``T''`` (they introduce a free variable ∉ dom(h)) must be ``BLOCKED``.
* ``BLOCKED(u, σ)`` — no homomorphism of ``λ(u)`` extends ``σ`` at all
  (extensions need not respect ``h``: *any* extension kills maximality).

Only the restriction of ``g`` to the child-interface set
``K_t = vars(t) ∩ ⋃_u vars(u)`` matters, and ``|K_t| ≤ c`` under
``BI(c)``; the DP enumerates candidate assignments of ``K_t`` (at most
``|adom|^c``, pre-filtered per variable by unary matching) and checks each
with one CQ-satisfiability call per node — polynomial for fixed ``c``
under local tractability, mirroring the LOGCFL bound of Theorem 7.
"""

from __future__ import annotations

import time
from itertools import product
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from ..core.atoms import Atom
from ..core.database import Database
from ..core.mappings import Mapping
from ..core.terms import Constant, Variable
from ..cqalgs.naive import satisfiable
from ..planner.plan import ENGINE_NAIVE
from ..telemetry.metrics import NodeStatsCollector
from ..telemetry.resources import account_rows, account_subquery
from ..telemetry.tracer import current_tracer
from .subtrees import (
    maximal_subtree_within_free,
    minimal_subtree_containing,
    subtree_free_variables,
)
from .tree import ROOT
from .wdpt import WDPT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..planner.planner import Planner


def eval_tractable(
    p: WDPT, db: Database, h: Mapping, planner: "Optional[Planner]" = None
) -> bool:
    """``EVAL`` via the Theorem 6 dynamic program: is ``h ∈ p(D)``?

    Correct for every WDPT; polynomial when ``p`` is locally tractable with
    bounded interface.  The per-node CQ checks are the backtracking search
    unless a ``planner`` is given; then each runs the node profile's
    Boolean plan for the variables it binds (the label's join tree /
    decomposition is analysed once and reused for every interface
    assignment σ) — the configuration matching Theorem 7's LOGCFL bound
    when nodes are in ``TW(k)``/``HW(k)``.
    """
    tracer = current_tracer()
    with tracer.span("wdpt.eval_tractable") as sp:
        frees = frozenset(p.free_variables)
        dom = h.domain()
        if not dom <= frees:
            return False
        tree_vars = p.variables()
        if not dom <= tree_vars:
            return False

        mandatory = minimal_subtree_containing(p, dom)
        if subtree_free_variables(p, mandatory) != dom:
            # The minimal subtree drags in a free variable h is undefined on:
            # every candidate ĥ would project to strictly more than h.
            return False
        allowed = maximal_subtree_within_free(p, dom)
        if not allowed:  # root itself mentions a forbidden free variable
            return False
        assert mandatory <= allowed

        dp = _InterfaceDP(p, db, h, mandatory, allowed, planner)
        result = dp.node_in(ROOT, Mapping())
        if dp.collector is not None:
            sp.set(
                node_stats=dp.collector.rows(),
                result=result,
                mandatory=sorted(mandatory),
                allowed=sorted(allowed),
            )
        return result


class _InterfaceDP:
    """Memoized ``IN``/``BLOCKED`` computation (see module docstring)."""

    def __init__(
        self,
        p: WDPT,
        db: Database,
        h: Mapping,
        mandatory: FrozenSet[int],
        allowed: FrozenSet[int],
        planner: "Optional[Planner]" = None,
    ):
        self.p = p
        self.db = db
        self.h = h
        self.mandatory = mandatory
        self.allowed = allowed
        self.collector = (
            NodeStatsCollector() if current_tracer().enabled else None
        )
        self.planner = planner
        self.tree_profile = None if planner is None else planner.profile_wdpt(p)
        self._in_memo: Dict[Tuple[int, Mapping], bool] = {}
        self._blocked_memo: Dict[Tuple[int, Mapping], bool] = {}

    # ------------------------------------------------------------------
    # BLOCKED(u, σ): no homomorphism of λ(u) extends σ.
    # ------------------------------------------------------------------
    def blocked(self, node: int, sigma: Mapping) -> bool:
        key = (node, sigma)
        cached = self._blocked_memo.get(key)
        if cached is None:
            if self.collector is not None:
                self.collector.add(node, blocked_checks=1)
            cached = not self._satisfiable(node, sigma)
            self._blocked_memo[key] = cached
        return cached

    def _satisfiable(self, node: int, pre: Mapping) -> bool:
        """Satisfiability of ``σ(λ(node))``: the node profile's plan for the
        variables ``pre`` binds, run by the planner, or backtracking when
        the caller gave none.  Traced, it counts each check under the
        engine that ran."""
        account_subquery()
        collector = self.collector
        start = time.perf_counter() if collector is not None else 0.0
        if self.planner is None:
            engine = ENGINE_NAIVE
            result = satisfiable(self.p.labels[node], self.db, pre)
        else:
            profile = self.tree_profile.node_profile(node)
            bind = pre.as_dict()
            result = self.planner.satisfiable_substituted(profile, bind, self.db)
            if collector is not None:
                engine = profile.boolean_plan(bind).engine
        if collector is not None:
            collector.add(node, sat_checks=1, seconds=time.perf_counter() - start)
            collector.tally(node, "engines", engine)
        return result

    # ------------------------------------------------------------------
    # IN(t, σ)
    # ------------------------------------------------------------------
    def node_in(self, node: int, sigma: Mapping) -> bool:
        key = (node, sigma)
        cached = self._in_memo.get(key)
        if cached is not None:
            return cached
        if self.collector is not None:
            self.collector.add(node, in_calls=1)
        result = self._compute_in(node, sigma)
        self._in_memo[key] = result
        return result

    def _compute_in(self, node: int, sigma: Mapping) -> bool:
        p = self.p
        node_vars = p.node_variables(node)
        pinned = sigma.union(self.h.restrict(node_vars))

        children = p.tree.children(node)
        if not children:
            return self._satisfiable(node, pinned)

        # Child-interface variables not already pinned.
        interface: Set[Variable] = set()
        for child in children:
            interface |= node_vars & p.node_variables(child)
        open_interface = sorted(interface - pinned.domain())

        candidates_tried = 0
        try:
            for tau in self._interface_candidates(node, open_interface, pinned):
                candidates_tried += 1
                g = pinned.union(tau)
                if not self._satisfiable(node, g):
                    continue
                if self._children_handled(node, children, g):
                    return True
            return False
        finally:
            if self.collector is not None:
                self.collector.add(node, candidates=candidates_tried)

    def _interface_candidates(
        self, node: int, open_interface: Sequence[Variable], pinned: Mapping
    ) -> Iterator[Mapping]:
        """Assignments of the unpinned child-interface variables.

        Candidate values per variable are pre-filtered: ``v ↦ a`` is only
        possible if every atom of ``λ(node)`` mentioning ``v``, with
        ``pinned`` substituted, has a matching fact with ``a`` in ``v``'s
        positions (sound: every candidate extends ``pinned``).  The cross
        product is at most ``|adom|^c`` under ``BI(c)``.
        """
        if not open_interface:
            yield Mapping()
            return
        fixed = pinned.as_dict()
        per_variable: List[List[Constant]] = []
        n_candidates = 1
        for v in open_interface:
            values = self._candidate_values(node, v, fixed)
            if not values:
                return
            per_variable.append(values)
            n_candidates *= len(values)
        account_rows(n_candidates)
        for combo in product(*per_variable):
            yield frozenset.__new__(Mapping, zip(open_interface, combo))

    def _candidate_values(
        self, node: int, v: Variable, fixed: Dict[Variable, Constant]
    ) -> List[Constant]:
        candidates: Optional[Set[Constant]] = None
        for a in self.p.labels[node]:
            positions = [i for i, t in enumerate(a.args) if t == v]
            if not positions:
                continue
            values = {
                fact.args[positions[0]]
                for fact in self.db.match(_blank_except(a.substitute(fixed), v))
                if all(fact.args[i] == fact.args[positions[0]] for i in positions)
            }
            candidates = values if candidates is None else candidates & values
            if not candidates:
                return []
        assert candidates is not None  # v occurs in some atom of the node
        return sorted(candidates)  # type: ignore[arg-type]

    def _children_handled(self, node: int, children: Sequence[int], g: Mapping) -> bool:
        for child in children:
            if not self._child_handled(node, child, g):
                return False
        return True

    def _child_handled(self, node: int, child: int, g: Mapping) -> bool:
        p = self.p
        shared = p.node_variables(node) & p.node_variables(child)
        sigma_child = g.restrict(shared)
        if child in self.mandatory:
            return self.node_in(child, sigma_child)
        if child in self.allowed:
            return self.node_in(child, sigma_child) or self.blocked(
                child, sigma_child
            )
        return self.blocked(child, sigma_child)


def _blank_except(a: Atom, v: Variable) -> Atom:
    """``a`` with every variable other than ``v`` replaced by a fresh one,
    so that :meth:`Database.match` only enforces constants (those of the
    label and the pinned values substituted into it) and the repeated
    positions of ``v``."""
    fresh = 0
    args = []
    for t in a.args:
        if isinstance(t, Variable) and t != v:
            args.append(Variable("__blank_%d" % fresh))
            fresh += 1
        else:
            args.append(t)
    return Atom(a.relation, args)
