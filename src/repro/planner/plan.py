"""Query plans: the routing decision, its paper justification, and the
precomputed structures the chosen engine consumes.

A :class:`QueryPlan` describes, it does not instruct: its engine is
:attr:`~repro.planner.profile.StructuralProfile.engine` of the memoized
profile it references, the value the planner's dispatch site reads, so no
run needs a plan built.  It cites the theorem licensing the engine
(:data:`THEOREMS`) and exposes ``describe()`` for EXPLAIN-style output.
"""

from __future__ import annotations

from .profile import (
    ENGINE_HYPERTREEWIDTH,
    ENGINE_NAIVE,
    ENGINE_TREEWIDTH,
    ENGINE_YANNAKAKIS,
    StructuralProfile,
)

#: The route of a Boolean check whose atoms, under its binding, pairwise
#: share no open variable: one existence read per atom
#: (:meth:`~repro.storage.base.StorageBackend.exists`), no relation
#: built.  Chosen per (shape, bound-variable set) by
#: :meth:`~repro.planner.profile.StructuralProfile.independent_under`,
#: never per shape, so no :class:`QueryPlan` names it.
ENGINE_PROBE = "probe"

#: The paper result licensing each engine the router can pick (``%d``:
#: the shape's treewidth bound).
THEOREMS = {
    ENGINE_YANNAKAKIS: "Theorem 3, k=1 (HW(1) = AC): Yannakakis over the memoized join tree",
    ENGINE_TREEWIDTH: "Theorem 2: TW(%d) bounded-treewidth engine over the memoized decomposition",
    ENGINE_NAIVE: "no structural bound (Theorem 1 regime): backtracking search",
}


class QueryPlan:
    """The planner's routing decision for one CQ shape.

    Attributes
    ----------
    fingerprint:
        The structural fingerprint the plan is cached under.
    engine:
        One of the ``ENGINE_*`` identifiers.
    theorem:
        The paper result justifying the choice.
    profile:
        The memoized structural analysis (join tree / decomposition) the
        engine consumes — shared with every other plan for this shape.
    """

    __slots__ = ("fingerprint", "engine", "theorem", "profile")

    def __init__(
        self,
        fingerprint: str,
        engine: str,
        theorem: str,
        profile: StructuralProfile,
    ):
        self.fingerprint = fingerprint
        self.engine = engine
        self.theorem = theorem
        self.profile = profile

    def describe(self) -> str:
        """One-line EXPLAIN: engine plus justification."""
        return "%s — %s" % (self.engine, self.theorem)

    def __repr__(self) -> str:
        return "QueryPlan(%s)" % self.describe()
