"""The central query planner: memoized analysis + plan-aware engine routing.

One :class:`Planner` owns

* a bounded LRU :class:`~repro.planner.cache.PlanCache` of
  :class:`~repro.planner.profile.StructuralProfile` /
  :class:`~repro.planner.profile.TreeProfile` objects keyed by structural
  fingerprint (object identity and atom order are irrelevant);
* a parse cache (query text → WDPT) for the session layer, and an
  EXPLAIN cache (fingerprint → rendered profile) so repeated EXPLAINs
  are hits;
* instrumentation: cache hits/misses/evictions plus a
  :class:`~repro.telemetry.metrics.MetricsRegistry` holding the
  per-call engine-time histograms (one per engine, the only instrument
  an engine run updates), the per-engine selection counters and the
  cumulative engine time read from them, and the cumulative analysis
  time; spans are emitted through
  :func:`repro.telemetry.tracer.current_tracer` whenever tracing is
  enabled.

Routing follows the paper, as one rule per op kind
(:func:`~repro.planner.plan.plan_node`) whose
:class:`~repro.planner.plan.NodePlan` the profile keeps: answer sets
(:meth:`Planner.evaluate_cq`) run the shape's answers plan, the Boolean
checks of the Theorem 6/8/9/16 procedures (:meth:`Planner.check`) the
plan for the variables their binding fixes, which their compiled
programs resolve once per candidate domain — ``probe``, one existence
read per atom of the plan's probe program
(:meth:`~repro.storage.base.StorageBackend.exists_substituted`), when no
two atoms share an open variable.  :meth:`Planner._run` is the one place that acts
on a plan's engine; the top-down evaluator runs the same answers plans
and EXPLAIN prints them.

The module-level :func:`get_default_planner` provides a process-wide
planner so free functions (``cqalgs.dispatch.evaluate``, ``wdpt.classes``,
``wdpt.explain``) share analyses without explicit wiring; a
:class:`~repro.engine.Session` owns a private planner instead.

One planner may serve many threads at once (the query service's
executor threads share one planner across every tenant session): the
caches lock their LRU mutation, the metrics registry locks its series,
and :meth:`Planner.stats` aggregates from point-in-time snapshots, so
concurrent queries neither corrupt state nor perturb each other's
results.
"""

from __future__ import annotations

from time import perf_counter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Mapping as TMapping,
    Optional,
    Sequence,
    TYPE_CHECKING,
    Union,
)

from ..collector import collector_paused
from ..core.atoms import Atom
from ..core.cq import ConjunctiveQuery
from ..core.database import Database
from ..core.terms import Term, Variable
from ..cqalgs.naive import satisfiable
from ..cqalgs.structured import satisfiable_by_elimination
from ..cqalgs.yannakakis import satisfiable_with_join_tree
from ..relalg.relation import to_mappings
from ..telemetry.context import current
from ..telemetry.metrics import Histogram, MetricsRegistry, View
from ..telemetry.resources import account_rows
from ..telemetry.tracer import NULL_SPAN, current_tracer
from ..wdpt.wdpt import WDPT
from .cache import PlanCache
from .plan import ENGINE_PROBE, ENGINE_TREEWIDTH, ENGINE_YANNAKAKIS, NodePlan
from .profile import StructuralProfile, TreeProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..wdpt.explain import WDPTProfile


class Planner:
    """Memoized structural analysis plus plan-aware engine routing."""

    def __init__(
        self,
        profile_cache_size: int = 256,
        parse_cache_size: int = 256,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.profiles = PlanCache(profile_cache_size)
        self.parses = PlanCache(parse_cache_size)
        self.explains = PlanCache(profile_cache_size)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: engine → its latency histogram, resolved by its first
        #: :meth:`record_engine`; the registry keeps instruments across
        #: ``reset()``, so they stay live.
        self._engine_latency: Dict[str, Histogram] = {}

    # Views over the metrics registry.
    @property
    def engine_selections(self) -> Dict[str, int]:
        return {
            engine: int(count)
            for engine, count in self.metrics.labeled_values(
                "planner.engine.selected", "engine"
            ).items()
            if count  # instruments survive reset_counters() at zero
        }

    @property
    def analysis_seconds(self) -> float:
        return self.metrics.counter("planner.analysis_seconds").value

    @property
    def engine_seconds(self) -> float:
        return self._engine_seconds().value

    @property
    def plans_built(self) -> int:
        return int(self.metrics.counter("planner.plans_built").value)

    # ------------------------------------------------------------------
    # Profiles (memoized by structural fingerprint)
    # ------------------------------------------------------------------
    def profile_cq(self, query: ConjunctiveQuery) -> StructuralProfile:
        """The memoized structural profile of ``query``."""
        key = query.structural_fingerprint()
        profile = self.profiles.get(key)
        if profile is None:
            with current_tracer().span("planner.profile", kind="cq"):
                profile = StructuralProfile(
                    sorted(query.atoms),
                    free_variables=query.free_variables,
                    on_analysis=self._on_analysis,
                    on_plan=self._on_plan,
                )
            self.profiles.put(key, profile)
        return profile

    def profile_wdpt(self, p: WDPT) -> TreeProfile:
        """The memoized structural profile of a pattern tree — one shared
        analysis for classes, EXPLAIN, and the Theorem 6/8/9 algorithms."""
        key = p.structural_fingerprint()
        profile = self.profiles.get(key)
        if profile is None:
            with current_tracer().span("planner.profile", kind="wdpt"):
                profile = TreeProfile(p, self._on_analysis, self._on_plan)
            self.profiles.put(key, profile)
        return profile

    def explain_wdpt(self, p: WDPT) -> "WDPTProfile":
        """The memoized EXPLAIN profile of ``p`` (fingerprint-keyed, so
        repeated EXPLAINs — ``Session.explain``, ``Result.profile`` — are
        cache hits, visible in :meth:`stats`)."""
        key = p.structural_fingerprint()
        profile = self.explains.get(key)
        if profile is None:
            from ..wdpt.explain import WDPTProfile

            with current_tracer().span("planner.explain"):
                profile = self.explains.put(key, WDPTProfile(p, planner=self))
        return profile

    def _on_analysis(self, seconds: float) -> None:
        self.metrics.counter("planner.analysis_seconds").inc(seconds)

    def _on_plan(self) -> None:
        self.metrics.counter("planner.plans_built").inc()

    # ------------------------------------------------------------------
    # Planning and execution
    # ------------------------------------------------------------------
    def plan_cq(self, query: ConjunctiveQuery, db: Optional[Database] = None) -> NodePlan:
        """The answers plan of ``query``.  It depends on the query's shape
        alone; ``db`` is accepted and ignored."""
        return self.plan_for_profile(query.structural_fingerprint(), self.profile_cq(query))

    def plan_for_profile(self, fingerprint: str, profile: StructuralProfile) -> NodePlan:
        """The answers plan of an already-profiled atom set, built on first
        request and kept on ``profile`` (``fingerprint`` is not read)."""
        return profile.answers_plan

    def evaluate_cq(self, query: ConjunctiveQuery, db: Database) -> FrozenSet:
        """``q(D)`` on the shape's answers plan (what
        :func:`repro.cqalgs.dispatch.evaluate` runs)."""
        profile = self.profile_cq(query)
        return self._run(
            "planner.evaluate_cq", profile.answers_plan, profile.sorted_atoms, db, query
        )

    def _run(
        self,
        span: str,
        plan: NodePlan,
        atoms: Sequence,
        db: Database,
        query: Optional[ConjunctiveQuery] = None,
        binding: Optional[TMapping[Variable, Term]] = None,
    ) -> Union[FrozenSet, bool]:
        """The one dispatch site: ``atoms`` on the engine ``plan`` names —
        the answers of ``query`` when one is given (the evaluator's seam,
        :meth:`~repro.planner.plan.NodePlan.relation`), else whether the
        Boolean CQ ``binding(atoms)`` is satisfiable, by each engine's form
        that stops early: ``probe`` hands its program and the binding to
        one :meth:`~repro.storage.base.StorageBackend.exists_substituted`
        read, the other engines run on the substituted atoms.  The run is
        timed into the engine's histogram; the ``span`` is opened only when
        the calling context has a recording tracer."""
        engine = plan.engine
        tracer = current().tracer
        start = perf_counter()
        try:
            with NULL_SPAN if tracer is None else tracer.span(span, engine=engine):
                if query is not None:
                    with collector_paused:
                        return to_mappings(plan.relation(atoms, db, query.free_variables))
                if engine == ENGINE_PROBE:
                    account_rows(1)
                    return db.exists_substituted(plan.structure, binding)
                atoms = [a.substitute(binding) for a in atoms]
                if engine == ENGINE_YANNAKAKIS:
                    return satisfiable_with_join_tree(atoms, plan.structure, db)
                if engine == ENGINE_TREEWIDTH:
                    return satisfiable_by_elimination(atoms, plan.structure, db)
                return satisfiable(atoms, db)
        finally:
            self.record_engine(engine, perf_counter() - start)

    def record_engine(self, engine: str, seconds: float) -> None:
        """Record one engine run: one observation of the engine's latency
        histogram (p50/p95/p99/max in :meth:`stats`), under its one lock.

        The selection counter ``planner.engine.selected{engine}`` and the
        cumulative ``planner.engine_seconds`` are views of that histogram's
        ``count`` and of the family's summed ``sum``, registered with it,
        so all three stay exact with one update.  Labeled families
        (``{"engine": engine}``) render in the Prometheus exposition as
        one metric with an ``engine`` label."""
        latency = self._engine_latency.get(engine)
        if latency is None:
            latency = self._engine_histogram(engine)
        latency.observe(seconds)

    def _engine_histogram(self, engine: str) -> Histogram:
        """Register ``engine``'s latency histogram and the counters read
        from it (the first run on the engine)."""
        labels = {"engine": engine}
        latency = self.metrics.histogram("planner.engine_latency", labels=labels)
        self.metrics.counter_view(
            "planner.engine.selected", lambda: latency.count, labels
        )
        self._engine_seconds()
        return self._engine_latency.setdefault(engine, latency)

    def _engine_seconds(self) -> View:
        """``planner.engine_seconds``: the summed ``sum`` of every
        ``planner.engine_latency`` histogram of the registry."""
        metrics = self.metrics
        return metrics.counter_view("planner.engine_seconds", lambda: sum(
            h.sum for h in metrics.labeled_histograms("planner.engine_latency", "engine").values()
        ))

    # ------------------------------------------------------------------
    # Boolean checks (the Theorem 6/8/9/16 inner loop)
    # ------------------------------------------------------------------
    def check(
        self,
        plan: NodePlan,
        atoms: Sequence[Atom],
        binding: TMapping[Variable, Term],
        db: Database,
    ) -> bool:
        """Is the Boolean CQ ``binding(atoms)`` satisfiable over ``db``,
        run on ``plan`` — the Boolean plan of ``atoms``' shape for the
        variables ``binding`` fixes (``binding`` may bind more variables;
        those outside ``atoms`` are not read)?  The one way a check with
        a resolved plan enters the planner: the compiled Theorem 6/8/9
        decision programs resolve their plans once per candidate domain
        and call this for every check
        (:meth:`repro.wdpt.partial_eval.Check.run`)."""
        return self._run("planner.satisfiable", plan, atoms, db, binding=binding)

    def satisfiable_substituted(
        self,
        profile: StructuralProfile,
        substitution: TMapping[Variable, Term],
        db: Database,
    ) -> bool:
        """Is the Boolean CQ ``σ(atoms)`` satisfiable over ``db``, where
        ``atoms`` is the (unsubstituted) atom set profiled by ``profile``
        and ``substitution`` maps variables to constants?  The profile's
        plan for the substitution's variables, looked up, then
        :meth:`check`: the analysis of the unsubstituted shape stays valid
        (:mod:`repro.planner.profile`), and so does its probe program."""
        return self.check(
            profile.boolean_plan(substitution), profile.sorted_atoms, substitution, db
        )

    # ------------------------------------------------------------------
    # Parse cache (session layer)
    # ------------------------------------------------------------------
    def cached_parse(self, text: str, parse: Callable[[str], WDPT]) -> WDPT:
        """Parse ``text`` through the LRU parse cache."""
        cached = self.parses.get(text)
        if cached is not None:
            return cached
        return self.parses.put(text, parse(text))

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def cache_hit_rate(self) -> float:
        """Hit rate of the structural-profile cache."""
        return self.profiles.hit_rate()

    def stats(self) -> Dict[str, object]:
        """Counters for ``session.stats()`` and the benchmark tables."""
        subtree_hits = subtree_misses = program_hits = program_misses = 0
        for profile in self.profiles.values_snapshot():
            if isinstance(profile, TreeProfile):
                subtree_hits += profile.subtree_hits
                subtree_misses += profile.subtree_misses
                program_hits += profile.program_hits
                program_misses += profile.program_misses
        return {
            "plan_cache": self.profiles.stats(),
            "parse_cache": self.parses.stats(),
            "explain_cache": self.explains.stats(),
            "subtree_profiles": {"hits": subtree_hits, "misses": subtree_misses},
            "decision_programs": {"hits": program_hits, "misses": program_misses},
            "engine_selections": dict(self.engine_selections),
            "plans_built": self.plans_built,
            "analysis_seconds": self.analysis_seconds,
            "engine_seconds": self.engine_seconds,
            "engine_latency": {
                engine: histogram.snapshot()
                for engine, histogram in self.metrics.labeled_histograms(
                    "planner.engine_latency", "engine"
                ).items()
                if engine in self.engine_selections
            },
        }

    def reset_counters(self) -> None:
        """Zero all counters (cached analyses are kept)."""
        self.profiles.hits = self.profiles.misses = self.profiles.evictions = 0
        self.parses.hits = self.parses.misses = self.parses.evictions = 0
        self.explains.hits = self.explains.misses = self.explains.evictions = 0
        self.metrics.reset()

    def __repr__(self) -> str:
        return "Planner(%d cached profiles, hit rate %.0f%%)" % (
            len(self.profiles),
            100 * self.cache_hit_rate(),
        )


# ---------------------------------------------------------------------------
# Process-wide default planner
# ---------------------------------------------------------------------------
_default_planner: Optional[Planner] = None


def get_default_planner() -> Planner:
    """The process-wide planner used by free functions when no explicit
    planner is passed."""
    global _default_planner
    if _default_planner is None:
        _default_planner = Planner()
    return _default_planner
