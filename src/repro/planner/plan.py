"""Node plans: the route of one CQ shape for one op kind, decided once.

A :class:`NodePlan` names the engine that runs, the paper result licensing
it, and the structure the engine runs on.  :func:`plan_node` is the whole
routing rule, one branch per op kind:

* **answers** (``bound is None``) — acyclic → Yannakakis over the join
  tree (Theorem 3 with ``k = 1``), cyclic → Theorem 2's bucket
  elimination over the elimination order, either run by
  :meth:`NodePlan.relation` (seeded by the caller's interface keys);
* **Boolean under a bound set** — ``probe`` when no two atoms share a
  variable the binding leaves open, with its probe program (one
  :class:`~repro.storage.base.ProbeAtom` per atom); otherwise Yannakakis if acyclic,
  Theorem 2's bucket elimination over the elimination order with the
  bound variables dropped if the treewidth bound is at most
  :data:`TW_CUTOFF`, the search if neither.

A Theorem 2 plan names the width of its order.
:class:`~repro.planner.profile.StructuralProfile` keeps each plan it is
asked for, one per (op kind, ``bound ∩ vars(shape)``); the top-down
evaluator, :meth:`~repro.planner.planner.Planner._run` and EXPLAIN read
those, never the rule.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet, Iterable, NamedTuple, Optional, Sequence, Tuple, Union

from ..core.terms import Variable
from ..cqalgs.structured import relation_by_elimination
from ..cqalgs.yannakakis import relation_with_join_tree
from ..hypergraphs.gyo import JoinTree
from ..hypergraphs.treewidth import order_width
from ..relalg.relation import Relation
from ..storage.base import ProbeAtom

if TYPE_CHECKING:  # pragma: no cover - profile imports this module
    from ..core.atoms import Atom
    from ..core.database import Database
    from .profile import StructuralProfile

#: Engine identifiers (also the ``engine`` label of the planner metrics).
ENGINE_YANNAKAKIS = "yannakakis"
ENGINE_TREEWIDTH = "treewidth"
ENGINE_NAIVE = "naive"
#: A Boolean check whose atoms, under its binding, pairwise share no open
#: variable: one existence read per atom, no relation built — the plan's
#: probe program, read by
#: :meth:`~repro.storage.base.StorageBackend.exists_substituted`.
ENGINE_PROBE = "probe"

#: Treewidth (heuristic upper bound) up to which a Boolean check runs the
#: elimination engine rather than the search.
TW_CUTOFF = 3

_YANNAKAKIS = "Theorem 3, k=1 (HW(1) = AC): Yannakakis over the memoized join tree"


class NodePlan(NamedTuple):
    """The route of one shape for one op kind (and, for a Boolean check,
    one bound-variable set)."""

    engine: str
    #: The paper result (or the reason) justifying the engine.
    theorem: str
    #: What the engine runs on: the ``JoinTree`` (Yannakakis), the
    #: elimination order of the open variables (Theorem 2), the probe
    #: program (probe), or ``None`` (search).
    structure: Union[JoinTree, Tuple[Variable, ...], Tuple[ProbeAtom, ...], None] = None

    def describe(self) -> str:
        """One-line EXPLAIN: engine plus justification."""
        return "%s — %s" % (self.engine, self.theorem)

    def relation(
        self, atoms: "Sequence[Atom]", db: "Database", frees: "Iterable[Variable]",
        seed: Optional[Relation] = None,
    ) -> Relation:
        """The answers of the CQ ``(frees, atoms)`` on this answers plan's
        engine, restricted to those that join with ``seed``."""
        if self.engine == ENGINE_YANNAKAKIS:
            return relation_with_join_tree(atoms, self.structure, db, frees, seed)
        return relation_by_elimination(atoms, self.structure, db, frees, seed)


def plan_node(
    profile: "StructuralProfile", bound: "Optional[FrozenSet[Variable]]" = None
) -> NodePlan:
    """The plan of ``profile``'s atoms for the answers op (``bound is
    None``) or for a Boolean check binding ``bound ⊆ vars(shape)``.

    Substitution only removes vertices from the query hypergraph, so the
    join tree of the unbound shape stays one, and its elimination order
    with the bound variables dropped is no wider."""
    tree = profile.join_tree
    if bound is not None:
        seen: set = set()
        for a in profile.sorted_atoms:
            open_ = a.variables() - bound
            if not seen.isdisjoint(open_):
                break
            seen |= open_
        else:
            return NodePlan(
                ENGINE_PROBE, "no two atoms share an open variable: one existence probe per atom",
                tuple(_probe_atom(a, bound) for a in profile.sorted_atoms),
            )
    if tree is not None:
        return NodePlan(ENGINE_YANNAKAKIS, _YANNAKAKIS, tree)
    if bound is None:
        bound = frozenset()
    elif profile.treewidth_upper > TW_CUTOFF:
        return NodePlan(ENGINE_NAIVE, "no structural bound (Theorem 1 regime): backtracking search")
    order = tuple(v for v in profile.elimination_order if v not in bound)
    width = order_width(profile.hypergraph.induced_subhypergraph(order), order)
    return NodePlan(
        ENGINE_TREEWIDTH,
        "Theorem 2: TW(%d) bucket elimination over the memoized elimination order" % width,
        order,
    )


def _probe_atom(a: "Atom", bound: "FrozenSet[Variable]") -> ProbeAtom:
    """The probe program's entry for ``a`` under ``bound``: a ground one
    is its template; an open one also lists its fixed positions
    (constants and bound variables) and the repeats of its open
    variables, which is all a backend's read needs."""
    if a.variables() <= bound:
        return ProbeAtom(a.relation, a.args, True)
    fixed = []
    first: dict = {}
    repeats = []
    for pos, t in enumerate(a.args):
        if t in bound or not isinstance(t, Variable):
            fixed.append((pos, t))
        elif first.setdefault(t, pos) != pos:
            repeats.append((first[t], pos))
    return ProbeAtom(a.relation, a.args, False, tuple(fixed), tuple(repeats))
