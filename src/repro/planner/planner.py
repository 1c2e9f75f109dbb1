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
  per-engine selection counters, per-call engine-time histograms, and
  cumulative analysis/engine time; spans are emitted through
  :func:`repro.telemetry.tracer.current_tracer` whenever tracing is
  enabled.

Routing follows the paper, as one rule on the query shape —
:attr:`~repro.planner.profile.StructuralProfile.engine` — that
:meth:`Planner._run` alone acts on: answer sets
(:meth:`Planner.evaluate_cq`) and the Boolean checks of the Theorem
6/8/9/16 procedures (:meth:`Planner.satisfiable_substituted`) reach their
engine there, and EXPLAIN's :class:`~repro.planner.plan.QueryPlan` reads
the same property.

The module-level :func:`get_default_planner` provides a process-wide
planner so free functions (``cqalgs.dispatch.evaluate``, ``wdpt.classes``,
``wdpt.explain``) share analyses without explicit wiring; a
:class:`~repro.engine.Session` owns a private planner instead.

One planner may serve many threads at once (:mod:`repro.parallel`'s
thread executor shares the session's planner across its workers): the
caches lock their LRU mutation, the metrics registry locks its series,
and :meth:`Planner.stats` aggregates from point-in-time snapshots, so
concurrent queries neither corrupt state nor perturb each other's
results.
"""

from __future__ import annotations

import time
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

from ..core.atoms import Atom
from ..core.cq import ConjunctiveQuery
from ..core.database import Database
from ..core.terms import Term, Variable
from ..cqalgs.naive import evaluate_naive, satisfiable
from ..cqalgs.structured import (
    evaluate_bounded_treewidth,
    satisfiable_with_decomposition,
)
from ..cqalgs.yannakakis import evaluate_with_join_tree, satisfiable_with_join_tree
from ..hypergraphs.treedecomp import TreeDecomposition
from ..relalg.config import choose_kernel
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.tracer import current_tracer
from ..wdpt.wdpt import WDPT
from .cache import PlanCache
from .plan import (
    ENGINE_TREEWIDTH,
    ENGINE_YANNAKAKIS,
    THEOREMS,
    QueryPlan,
)
from .profile import StructuralProfile, TreeProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..telemetry.insight import CardinalityEstimate
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
        self.estimates = PlanCache(profile_cache_size)
        self.metrics = metrics if metrics is not None else MetricsRegistry()

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
        return self.metrics.counter("planner.engine_seconds").value

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
                profile = TreeProfile(p, on_analysis=self._on_analysis)
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

    # ------------------------------------------------------------------
    # Planning and execution
    # ------------------------------------------------------------------
    def plan_cq(self, query: ConjunctiveQuery, db: Optional[Database] = None) -> QueryPlan:
        """The plan for ``query``: engine + justification + structures.

        ``db`` (optional) lets the plan resolve the relational kernel a
        Yannakakis run would use against that database (SQL pushdown is
        backend-dependent)."""
        profile = self.profile_cq(query)
        return self.plan_for_profile(query.structural_fingerprint(), profile, db)

    def plan_for_profile(
        self,
        fingerprint: str,
        profile: StructuralProfile,
        db: Optional[Database] = None,
    ) -> QueryPlan:
        """The routing decision for an already-profiled atom set, as
        EXPLAIN shows it: ``profile.engine`` — the value :meth:`_run`
        dispatches on — plus its justification, kernel and estimate."""
        self.metrics.counter("planner.plans_built").inc()
        engine = profile.engine
        theorem = THEOREMS[engine]
        if engine == ENGINE_TREEWIDTH:
            theorem %= profile.treewidth_upper
        return QueryPlan(
            fingerprint,
            engine,
            theorem,
            profile,
            kernel=choose_kernel(db) if engine == ENGINE_YANNAKAKIS else None,
            estimate=self.estimate_for_profile(profile, db),
        )

    def estimate_for_profile(
        self, profile: StructuralProfile, db: Optional[Database] = None
    ) -> Optional["CardinalityEstimate"]:
        """The memoized cardinality estimate for ``profile`` over ``db``.

        Keyed by ``(atom set, backend_id, data_version)``: relation
        counts are taken at most once per query shape per database epoch.
        Only plans and reports ask for one; no engine run does."""
        if db is None:
            return None
        key = (profile.sorted_atoms, db.backend_id, db.data_version)
        estimate = self.estimates.get(key)
        if estimate is None:
            from ..telemetry.insight import estimate_profile

            with current_tracer().span(
                "planner.estimate", atoms=len(profile.sorted_atoms)
            ):
                estimate = estimate_profile(profile, db)
            self.estimates.put(key, estimate)
        return estimate

    def evaluate_cq(self, query: ConjunctiveQuery, db: Database) -> FrozenSet:
        """``q(D)`` through the router (the ``auto`` method of
        :func:`repro.cqalgs.dispatch.evaluate`)."""
        return self._run("planner.evaluate_cq", self.profile_cq(query), db, query=query)

    def _run(
        self,
        span: str,
        profile: StructuralProfile,
        db: Database,
        query: Optional[ConjunctiveQuery] = None,
        bind: Optional[TMapping[Variable, Term]] = None,
    ) -> Union[FrozenSet, bool]:
        """The one dispatch site: the atoms of ``profile`` on the engine
        ``profile.engine`` names — the answers of ``query`` when one is
        given, else whether the Boolean CQ is satisfiable (each engine's
        form that stops after its bottom-up sweep or first witness).

        ``bind`` substitutes constants for variables first; the analysis of
        the unsubstituted shape stays valid (:mod:`repro.planner.profile`):
        the join tree as it is, the decomposition with every bag cut down
        to the surviving variables — each keeps its connected set of bags,
        each atom's variables stay inside its old bag.
        """
        engine = profile.engine
        atoms: Sequence[Atom] = profile.sorted_atoms
        if bind is not None:
            atoms = [a.substitute(bind) for a in atoms]
        if engine == ENGINE_YANNAKAKIS:
            self.record_kernel(choose_kernel(db))
        start = time.perf_counter()
        try:
            with current_tracer().span(span, engine=engine):
                if engine == ENGINE_YANNAKAKIS:
                    if query is not None:
                        return evaluate_with_join_tree(
                            query, db, atoms, profile.join_tree
                        )
                    return satisfiable_with_join_tree(atoms, profile.join_tree, db)
                if engine == ENGINE_TREEWIDTH:
                    td = profile.tree_decomposition
                    if bind is not None:
                        keep = frozenset(v for a in atoms for v in a.variables())
                        td = TreeDecomposition(
                            [bag & keep for bag in td.bags], td.tree_edges
                        )
                    if query is not None:
                        return evaluate_bounded_treewidth(query, db, decomposition=td)
                    return satisfiable_with_decomposition(atoms, td, db)
                if query is not None:
                    return evaluate_naive(query, db)
                return satisfiable(atoms, db)
        finally:
            self.record_engine(engine, time.perf_counter() - start)

    def record_engine(self, engine: str, seconds: float) -> None:
        """Record one engine run: selection counter, cumulative time, and
        a per-call latency histogram (p50/p95/p99/max in :meth:`stats`).

        Both instruments are labeled families (``{"engine": engine}``), so
        the Prometheus exposition renders them as one metric with an
        ``engine`` label rather than one metric per engine."""
        labels = {"engine": engine}
        self.metrics.counter("planner.engine.selected", labels).inc()
        self.metrics.counter("planner.engine_seconds").inc(seconds)
        self.metrics.histogram("planner.engine_latency", labels=labels).observe(seconds)

    def record_kernel(self, kernel: str) -> None:
        """Record which relational kernel (``sql``/``columnar``)
        a Yannakakis run resolved to — a labeled counter family, mirroring
        :meth:`record_engine`."""
        self.metrics.counter("planner.kernel.selected", {"kernel": kernel}).inc()

    @property
    def kernel_selections(self) -> Dict[str, int]:
        return {
            kernel: int(count)
            for kernel, count in self.metrics.labeled_values(
                "planner.kernel.selected", "kernel"
            ).items()
            if count
        }

    # ------------------------------------------------------------------
    # Substituted satisfiability (the Theorem 6/8/9 inner loop)
    # ------------------------------------------------------------------
    def satisfiable_substituted(
        self,
        profile: StructuralProfile,
        substitution: TMapping[Variable, Term],
        db: Database,
    ) -> bool:
        """Is the Boolean CQ ``σ(atoms)`` satisfiable over ``db``, where
        ``atoms`` is the (unsubstituted) atom set profiled by ``profile``?
        Routed on the unsubstituted profile (see :meth:`_run`)."""
        return self._run("planner.satisfiable", profile, db, bind=substitution)

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
        subtree_hits = subtree_misses = 0
        for profile in self.profiles.values_snapshot():
            if isinstance(profile, TreeProfile):
                subtree_hits += profile.subtree_hits
                subtree_misses += profile.subtree_misses
        return {
            "plan_cache": self.profiles.stats(),
            "parse_cache": self.parses.stats(),
            "explain_cache": self.explains.stats(),
            "estimate_cache": self.estimates.stats(),
            "subtree_profiles": {"hits": subtree_hits, "misses": subtree_misses},
            "engine_selections": dict(self.engine_selections),
            "kernel_selections": dict(self.kernel_selections),
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
        self.estimates.hits = self.estimates.misses = self.estimates.evictions = 0
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


def set_default_planner(planner: Optional[Planner]) -> None:
    """Install (or, with ``None``, reset) the process-wide planner."""
    global _default_planner
    _default_planner = planner
