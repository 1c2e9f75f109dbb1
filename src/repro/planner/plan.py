"""Query plans: the routing decision, its paper justification, and the
precomputed structures the chosen engine consumes.

A :class:`QueryPlan` describes, it does not instruct: its engine is
:attr:`~repro.planner.profile.StructuralProfile.engine` of the memoized
profile it references, the value the planner's dispatch site reads, so no
run needs a plan built.  It cites the theorem licensing the engine
(:data:`THEOREMS`) and exposes ``describe()`` for EXPLAIN-style output.
"""

from __future__ import annotations

from typing import Optional

from .profile import (
    ENGINE_HYPERTREEWIDTH,
    ENGINE_NAIVE,
    ENGINE_TREEWIDTH,
    ENGINE_YANNAKAKIS,
    StructuralProfile,
)

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
    kernel:
        For Yannakakis plans, the relational kernel (``sql`` /
        ``columnar``, see :mod:`repro.relalg.config`)
        ``choose_kernel`` resolves against the database the plan was
        built for — the same call the run makes, so the label names the
        kernel that runs; ``None`` for the other engines (they evaluate
        through their own decomposition machinery before reaching the
        kernels).
    estimate:
        The planner's :class:`~repro.telemetry.insight.CardinalityEstimate`
        for this atom set against the database the plan was built for
        (``None`` when no database was given) — relation sizes,
        independence-assumption output estimate, and the AGM fractional
        cover bound where one is available.  Memoized by the planner per
        ``(atom set, backend_id, data_version)``, so stamping it here is
        a cache lookup, not a recount.
    """

    __slots__ = ("fingerprint", "engine", "theorem", "profile", "kernel", "estimate")

    def __init__(
        self,
        fingerprint: str,
        engine: str,
        theorem: str,
        profile: StructuralProfile,
        kernel: Optional[str] = None,
        estimate: Optional[object] = None,
    ):
        self.fingerprint = fingerprint
        self.engine = engine
        self.theorem = theorem
        self.profile = profile
        self.kernel = kernel
        self.estimate = estimate

    def describe(self) -> str:
        """One-line EXPLAIN: engine plus justification."""
        base = "%s — %s" % (self.engine, self.theorem)
        if self.kernel is not None:
            base += " [kernel=%s]" % self.kernel
        if self.estimate is not None:
            base += " [est≈%.4g rows, %s]" % (
                self.estimate.estimated_rows,
                self.estimate.method,
            )
        return base

    def __repr__(self) -> str:
        return "QueryPlan(%s)" % self.describe()
