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

Everything but the values is fixed by the tree and ``dom(h)``: ``T'``,
``T''``, each node's ``S_t``, the variables of ``h`` it pins, its open
child-interface variables, each child's mode (mandatory, optional or
outside ``T''``) and so the bound set, hence the plan, of every check.
:func:`compile_eval` fixes them once per (tree shape, ``dom(h)``) into a
:class:`EvalProgram`, kept on the planner's profile of the tree
(:func:`~repro.wdpt.partial_eval.program`); a decision runs it on
values tuples and binding dicts.  It issues the checks the DP above
issues, in the same order: the memos are keyed by ``(node, σ's values in
S_t order)``, which is ``(node, σ)``.
"""

from __future__ import annotations

import time
from itertools import product
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Set, Tuple, TYPE_CHECKING

from ..core.atoms import Atom
from ..core.database import Database
from ..core.mappings import Mapping
from ..core.terms import Constant, Term, Variable
from ..telemetry.metrics import NodeStatsCollector
from ..telemetry.resources import account_rows
from ..telemetry.tracer import current_tracer
from .partial_eval import Check, program
from .subtrees import (
    interface_to_children,
    interface_to_parent,
    maximal_subtree_within_free,
    minimal_subtree_containing,
    subtree_free_variables,
)
from .tree import ROOT
from .wdpt import WDPT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..planner.planner import Planner
    from ..planner.profile import TreeProfile

#: How a node handles a child (see the module docstring).
MANDATORY, OPTIONAL, OUTSIDE = range(3)

#: One atom of a node mentioning an open interface variable ``v``, for
#: its candidate filter: the relation, the arguments with every variable
#: but ``v`` and the pinned ones blanked, and ``v``'s positions.
Filter = Tuple[str, Tuple[Term, ...], Tuple[int, ...]]


class NodeStep(NamedTuple):
    """What ``IN(t, σ)`` does at a node ``t`` of ``T''``."""

    #: The open child-interface variables, sorted: the ones neither ``σ``
    #: nor ``h`` pins.
    open: Tuple[Variable, ...]
    #: Per open variable, the filters its candidate values pass.
    filters: Tuple[Tuple[Filter, ...], ...]
    #: ``λ(t)`` with ``σ``, ``h``'s variables of ``t`` and the open ones bound.
    check: Check
    #: ``(child, mode)`` per child, in tree order.
    children: Tuple[Tuple[int, int], ...]


class EvalProgram(NamedTuple):
    """The Theorem 6 program for one candidate domain."""

    mandatory: FrozenSet[int]
    allowed: FrozenSet[int]
    #: Per node, ``S_t`` in the order σ's values are kept (root: empty).
    interfaces: Tuple[Tuple[Variable, ...], ...]
    #: Per node, its :class:`NodeStep` (``None`` outside ``T''``).
    steps: Tuple[Optional[NodeStep], ...]
    #: Per node, ``λ(u)`` with ``S_u`` bound, the ``BLOCKED`` check
    #: (``None`` where no parent asks it).
    blocked: Tuple[Optional[Check], ...]


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
        bound = h.as_dict()
        compiled = program(compile_eval, p, frozenset(bound), planner)
        if compiled is None:
            return False
        run = _Run(compiled, db, bound, planner, NodeStatsCollector() if tracer.enabled else None)
        result = run.node_in(ROOT, ())
        if run.collector is not None:
            sp.set(
                node_stats=run.collector.rows(),
                result=result,
                mandatory=sorted(compiled.mandatory),
                allowed=sorted(compiled.allowed),
            )
        return result


def compile_eval(
    p: WDPT, domain: FrozenSet[Variable], tree: "Optional[TreeProfile]"
) -> Optional[EvalProgram]:
    """The Theorem 6 program for candidates with domain ``domain ⊆ x̄``, or
    ``None`` when every such candidate is rejected: ``T'`` drags in a free
    variable outside ``domain`` (every ``ĥ`` would project to strictly
    more than ``h``), or even the root mentions one (``T''`` is empty)."""
    if not domain <= p.variables():
        return None
    mandatory = minimal_subtree_containing(p, domain)
    if subtree_free_variables(p, mandatory) != domain:
        return None
    allowed = maximal_subtree_within_free(p, domain)
    if not allowed:
        return None
    assert mandatory <= allowed
    nodes = p.tree.nodes()
    interfaces = tuple(tuple(sorted(interface_to_parent(p, n))) for n in nodes)
    steps: List[Optional[NodeStep]] = [None] * len(nodes)
    blocked: List[Optional[Check]] = [None] * len(nodes)

    def check(node: int, bound: FrozenSet[Variable]) -> Check:
        profile = None if tree is None else tree.node_profile(node)
        return Check.of(p.labels[node], profile, bound)

    for node in sorted(allowed):
        pinned = frozenset(interfaces[node]) | (domain & p.node_variables(node))
        open_ = tuple(sorted(interface_to_children(p, node) - pinned))
        children = []
        for child in p.tree.children(node):
            mode = MANDATORY if child in mandatory else OPTIONAL if child in allowed else OUTSIDE
            if mode != MANDATORY:
                blocked[child] = check(child, frozenset(interfaces[child]))
            children.append((child, mode))
        steps[node] = NodeStep(
            open_,
            tuple(_filters(p, node, v, pinned) for v in open_),
            check(node, pinned.union(open_)),
            tuple(children),
        )
    return EvalProgram(mandatory, allowed, interfaces, tuple(steps), tuple(blocked))


def _filters(p: WDPT, node: int, v: Variable, pinned: FrozenSet[Variable]) -> Tuple[Filter, ...]:
    """The candidate filters of the open variable ``v`` at ``node``: one
    per atom mentioning it, every variable other than ``v`` and the pinned
    ones replaced by a fresh one, so that :meth:`Database.match` of the
    atom with the pinned values filled in only enforces constants (those
    of the label and the pinned values) and the repeated positions of
    ``v``."""
    out = []
    for a in sorted(p.labels[node]):
        positions = tuple(i for i, t in enumerate(a.args) if t == v)
        if not positions:
            continue
        fresh = 0
        template: List[Term] = []
        for t in a.args:
            if isinstance(t, Variable) and t != v and t not in pinned:
                t = Variable("__blank_%d" % fresh)
                fresh += 1
            template.append(t)
        out.append((a.relation, tuple(template), positions))
    return tuple(out)


class _Run:
    """One run of an :class:`EvalProgram`: the memoized ``IN``/``BLOCKED``
    computation (see the module docstring) for one candidate ``h``."""

    __slots__ = ("program", "db", "h", "planner", "collector", "in_memo", "blocked_memo")

    def __init__(
        self,
        compiled: EvalProgram,
        db: Database,
        h: Dict[Variable, Constant],
        planner: "Optional[Planner]",
        collector: Optional[NodeStatsCollector],
    ):
        self.program = compiled
        self.db = db
        self.h = h
        self.planner = planner
        self.collector = collector
        self.in_memo: Dict[Tuple[int, Tuple[Constant, ...]], bool] = {}
        self.blocked_memo: Dict[Tuple[int, Tuple[Constant, ...]], bool] = {}

    def _check(self, node: int, check: Check, binding: Dict[Variable, Constant]) -> bool:
        """One satisfiability check; traced, it counts under the engine
        that ran."""
        collector = self.collector
        if collector is None:
            return check.run(binding, self.db, self.planner)
        start = time.perf_counter()
        result = check.run(binding, self.db, self.planner)
        collector.add(node, sat_checks=1, seconds=time.perf_counter() - start)
        collector.tally(node, "engines", check.engine)
        return result

    # ------------------------------------------------------------------
    # BLOCKED(u, σ): no homomorphism of λ(u) extends σ.
    # ------------------------------------------------------------------
    def blocked(self, node: int, sigma: Tuple[Constant, ...]) -> bool:
        key = (node, sigma)
        cached = self.blocked_memo.get(key)
        if cached is None:
            if self.collector is not None:
                self.collector.add(node, blocked_checks=1)
            binding = dict(zip(self.program.interfaces[node], sigma))
            cached = self.blocked_memo[key] = not self._check(
                node, self.program.blocked[node], binding  # type: ignore[arg-type]
            )
        return cached

    # ------------------------------------------------------------------
    # IN(t, σ)
    # ------------------------------------------------------------------
    def node_in(self, node: int, sigma: Tuple[Constant, ...]) -> bool:
        key = (node, sigma)
        cached = self.in_memo.get(key)
        if cached is None:
            if self.collector is not None:
                self.collector.add(node, in_calls=1)
            cached = self.in_memo[key] = self._compute_in(node, sigma)
        return cached

    def _compute_in(self, node: int, sigma: Tuple[Constant, ...]) -> bool:
        step: NodeStep = self.program.steps[node]  # type: ignore[assignment]
        # σ, h (its variables outside λ(t) are not read) and, below, τ.
        pinned = dict(self.h)
        pinned.update(zip(self.program.interfaces[node], sigma))
        if not step.children:
            return self._check(node, step.check, pinned)
        candidates_tried = 0
        try:
            for g in self._interface_candidates(step, pinned):
                candidates_tried += 1
                if self._check(node, step.check, g) and self._children_handled(step, g):
                    return True
            return False
        finally:
            if self.collector is not None:
                self.collector.add(node, candidates=candidates_tried)

    def _interface_candidates(
        self, step: NodeStep, pinned: Dict[Variable, Constant]
    ) -> Iterator[Dict[Variable, Constant]]:
        """``pinned`` extended by each assignment of the open
        child-interface variables.

        Candidate values per variable are pre-filtered: ``v ↦ a`` is only
        possible if every atom of ``λ(node)`` mentioning ``v``, with
        ``pinned`` substituted, has a matching fact with ``a`` in ``v``'s
        positions (sound: every candidate extends ``pinned``).  The cross
        product is at most ``|adom|^c`` under ``BI(c)``.
        """
        if not step.open:
            yield pinned
            return
        per_variable: List[List[Constant]] = []
        n_candidates = 1
        for filters in step.filters:
            values = self._candidate_values(filters, pinned)
            if not values:
                return
            per_variable.append(values)
            n_candidates *= len(values)
        account_rows(n_candidates)
        for combo in product(*per_variable):
            g = dict(pinned)
            g.update(zip(step.open, combo))
            yield g

    def _candidate_values(
        self, filters: Tuple[Filter, ...], pinned: Dict[Variable, Constant]
    ) -> List[Constant]:
        get = pinned.get
        candidates: Optional[Set[Constant]] = None
        for relation, template, positions in filters:
            first = positions[0]
            values = {
                fact.args[first]
                for fact in self.db.match(Atom(relation, map(get, template, template)))
                if all(fact.args[i] == fact.args[first] for i in positions)
            }
            candidates = values if candidates is None else candidates & values
            if not candidates:
                return []
        assert candidates is not None  # v occurs in some atom of the node
        return sorted(candidates)  # type: ignore[arg-type]

    def _children_handled(self, step: NodeStep, g: Dict[Variable, Constant]) -> bool:
        interfaces = self.program.interfaces
        for child, mode in step.children:
            sigma = tuple(map(g.__getitem__, interfaces[child]))
            if mode == MANDATORY:
                handled = self.node_in(child, sigma)
            elif mode == OPTIONAL:
                handled = self.node_in(child, sigma) or self.blocked(child, sigma)
            else:
                handled = self.blocked(child, sigma)
            if not handled:
                return False
        return True
