"""Session API: the convenience layer downstream applications use.

Wraps a database (relational or RDF) with a query interface that hides
parsing, routing and caching:

    >>> from repro.engine import Session
    >>> from repro.workloads.families import example2_graph
    >>> session = Session(example2_graph())
    >>> result = session.query(
    ...     "SELECT ?x ?z WHERE { ?x recorded_by ?y "
    ...     "OPTIONAL { ?x NME_rating ?z } }")
    >>> len(result)
    2

A :class:`Result` carries the answer set plus lazy access to maximal
answers, witnesses, and the query profile.  Each Session owns a private
:class:`~repro.planner.planner.Planner`: parsed queries are LRU-cached by
text, structural analyses are memoized by fingerprint, and decision
problems (``ask``/``contains``/``is_partial``) route to the tractable
algorithms of Sections 3 through the planner's engine router.
:meth:`Session.stats` reports the accumulated counters (cache hit rates,
per-engine selections, analysis vs. engine time).

A query runs start to finish on the thread that asked for it;
:meth:`Session.run_batch` / :meth:`Session.map` fan whole query lists
out over thread or process workers (:mod:`repro.parallel`).

The Session accepts any :class:`~repro.storage.base.StorageBackend`
(:class:`~repro.core.database.Database`/
:class:`~repro.storage.memory.MemoryBackend`,
:class:`~repro.storage.sqlite.SQLiteBackend`), an
:class:`~repro.rdf.graph.RDFGraph`, or an iterable of ground atoms —
``backend="sqlite"`` (or the ``REPRO_BACKEND`` environment variable)
selects the storage kind, and ``path=`` puts a SQLite session on disk:

    >>> s = Session(backend="memory")     # empty in-memory session
    >>> s.size
    0

Finished answers are memoized in a version-stamped
:class:`~repro.storage.cache.ResultCache`: repeating a query against an
unmodified database is a cache hit.  Every write moves the backend's data
version, and an entry is served only at the version it is stamped with;
a write made *through the session* (:meth:`Session.add`,
:meth:`Session.remove`, :meth:`Session.add_triples`) re-stamps the
entries of the queries the written facts provably cannot reach
(:func:`repro.wdpt.touch.can_touch`), so those stay hits.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Union

from .core.atoms import Atom
from .core.database import Database
from .core.mappings import Mapping
from .exceptions import ParseError
from .parallel.pool import WorkerPool
from .rdf.graph import RDFGraph
from .rdf.parser import parse_query
from .rdf.sparql import parse_sparql
from .planner.planner import Planner
from .storage import ResultCache, StorageBackend, to_backend
from .storage.cache import DEFAULT_SIZE as DEFAULT_CACHE_SIZE
from .table import format_table
from .telemetry.insight import STATS_SCHEMA, QueryStatsStore
from .telemetry.obslog import QueryLog, QueryObservation
from .telemetry.profiler import current_profiler, gc_summary
from .telemetry.resources import ResourceBudget
from .telemetry.tracer import Tracer, current_tracer, tracing
from .wdpt.eval_tractable import eval_tractable
from .wdpt.evaluation import evaluate, evaluate_max
from .wdpt.explain import WDPTProfile
from .wdpt.max_eval import max_eval
from .wdpt.partial_eval import partial_eval
from .wdpt.touch import can_touch
from .wdpt.wdpt import WDPT
from .wdpt.witness import AnswerWitness, witness

Query = Union[str, WDPT]
DataSource = Union[StorageBackend, RDFGraph, Iterable[Atom]]

#: Environment variable naming the default storage backend kind.
BACKEND_ENV = "REPRO_BACKEND"


class Result:
    """The outcome of :meth:`Session.query`.

    Iterable over the answer mappings; also exposes the maximal-mapping
    restriction (Section 3.4), per-answer witnesses, and the EXPLAIN
    profile of the executed query.
    """

    def __init__(self, session: "Session", query: WDPT, answers: FrozenSet[Mapping]):
        self._session = session
        self.query = query
        self.answers = answers
        self._profile: Optional[WDPTProfile] = None
        #: :class:`~repro.telemetry.resources.ResourceUsage` when the
        #: session tracks resources; ``None`` otherwise.
        self.resources = None
        #: Sampling-profiler samples attributed to this query's trace
        #: (:mod:`repro.telemetry.profiler`) when a profiler was running;
        #: ``None`` otherwise.  Feed them to ``folded_text`` /
        #: ``to_speedscope`` for a per-query flamegraph.
        self.profile_samples = None

    def __iter__(self):
        return iter(sorted(self.answers, key=repr))

    def __len__(self) -> int:
        return len(self.answers)

    def __contains__(self, mapping: Mapping) -> bool:
        return mapping in self.answers

    def maximal(self) -> FrozenSet[Mapping]:
        """The ⊑-maximal answers, ``p_m(D)``."""
        from .core.mappings import maximal_mappings

        return maximal_mappings(self.answers)

    def witness(self, answer: Mapping) -> Optional[AnswerWitness]:
        """A verified provenance certificate for ``answer``."""
        return witness(self.query, self._session.database, answer)

    def profile(self) -> WDPTProfile:
        """The EXPLAIN profile of the query — memoized on the result and
        served from the planner's EXPLAIN cache, so repeated calls (and
        repeated ``session.explain`` on the same shape) are cache hits."""
        if self._profile is None:
            self._profile = self._session.planner.explain_wdpt(self.query)
        return self._profile

    def to_table(self, limit: Optional[int] = None) -> str:
        """Render answers as a fixed-width table (missing optionals = ``-``)."""
        columns = [v for v in self.query.free_variables]
        rows = []
        for answer in self:
            if limit is not None and len(rows) >= limit:
                break
            rows.append(
                [
                    repr(answer[v]) if v in answer else "-"
                    for v in columns
                ]
            )
        return format_table([repr(v) for v in columns], rows)

    def __repr__(self) -> str:
        return "Result(%d answers)" % len(self.answers)


class Session:
    """A database plus a query planner (parse cache, memoized structural
    analyses, plan-aware routing, instrumentation).

    Keyword arguments beyond ``data``:

    * ``backend=`` — storage kind, ``"memory"`` or ``"sqlite"``
      (:mod:`repro.storage`); an explicitly passed backend
      instance is used as-is, raw data (iterables, graphs) defaults to
      the ``REPRO_BACKEND`` environment variable, else to memory;
    * ``path=`` — with ``backend="sqlite"``, the on-disk database file
      (created when missing, resumed when present);
    * ``cache=`` — the result cache: ``True``/``None`` (default) enables
      a version-stamped :class:`~repro.storage.cache.ResultCache`,
      ``False`` disables caching, or pass a ``ResultCache`` to share one;
    * ``cache_size=`` — LRU bound of the default cache;
    * ``planner=`` — share an existing :class:`Planner` (warmed caches)
      instead of the private default;
    * ``obslog=`` — a :class:`~repro.telemetry.obslog.QueryLog` receiving
      one structured JSON record per query lifecycle event (``None``
      disables observation at zero per-query cost);
    * ``budgets=`` — a :class:`~repro.telemetry.resources.ResourceBudget`
      applied to every query (soft limits are logged, hard limits raise
      :class:`~repro.exceptions.ResourceBudgetExceeded`);
    * ``track_resources=`` — account wall/CPU/peak-rows per query even
      without budgets (``Result.resources``);
    * ``stats_store=`` — a
      :class:`~repro.telemetry.insight.QueryStatsStore` accumulating
      per-query-shape execution history (latency, rows, cache hits,
      kernel outcomes, q-errors);
    * ``tenant=`` — name of the tenant this session serves
      (:mod:`repro.service`): obslog records emitted by the session are
      stamped ``tenant=<name>`` (via ``QueryLog.bound``) and the
      ``/debug/queries`` entries carry it too.

    >>> from repro.core.atoms import atom
    >>> s = Session([atom("E", 1, 2)])
    >>> s.size
    1

    A session is also a context manager — leaving the block shuts down
    the worker pools :meth:`run_batch` created:

    >>> with Session([atom("E", 1, 2)]) as s:
    ...     s.size
    1
    """

    def __init__(
        self,
        data: Optional[DataSource] = None,
        planner: Optional[Planner] = None,
        obslog: Optional["QueryLog"] = None,
        budgets: Optional["ResourceBudget"] = None,
        track_resources: bool = False,
        stats_store: Optional[QueryStatsStore] = None,
        backend: Optional[str] = None,
        path: Optional[str] = None,
        cache: Union[bool, ResultCache, None] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        tenant: Optional[str] = None,
    ):
        # Asked of the caller's argument, before a graph becomes a
        # ``Database``: a graph is raw data like a list of facts.
        handed_backend = isinstance(data, StorageBackend)
        if isinstance(data, RDFGraph):
            data = data.to_database()
        kind = backend
        if kind is None and path is not None:
            kind = "sqlite"
        if kind is None and not handed_backend:
            # The env var only picks the default for *raw* data; an
            # explicitly passed backend instance is always used as-is
            # (converting would silently detach the session from it).
            kind = os.environ.get(BACKEND_ENV)
        if kind is not None:
            self.database = to_backend(
                data if data is not None else (), kind, path=path
            )
        elif isinstance(data, StorageBackend):
            self.database = data
        else:
            self.database = Database(data if data is not None else ())
        self.planner = planner if planner is not None else Planner()
        #: Version-stamped finished-answer cache (``repro.storage.cache``);
        #: ``None`` when caching is disabled.
        self.result_cache: Optional[ResultCache]
        if isinstance(cache, ResultCache):
            self.result_cache = cache
        elif cache is None or cache:
            self.result_cache = ResultCache(
                cache_size, metrics=self.planner.metrics
            )
        else:
            self.result_cache = None
        #: Tenant this session serves (multi-tenant service layer,
        #: :mod:`repro.service`); ``None`` for a plain single-user session.
        #: When set, the session's obslog records and ``/debug/queries``
        #: entries are stamped with it.
        self.tenant = tenant
        if tenant is not None and obslog is not None:
            obslog = obslog.bound(tenant=tenant)
        #: Structured query-event log (``repro.telemetry.obslog.QueryLog``);
        #: ``None`` disables observation entirely (zero per-query cost).
        self.obslog = obslog
        #: Per-query resource budgets (``repro.telemetry.resources``).
        self.budgets = budgets
        #: Account resources even without budgets (``Result.resources``).
        self.track_resources = bool(track_resources or budgets is not None)
        #: Per-query-shape execution history (``telemetry.insight``);
        #: ``None`` disables stats accumulation.
        self.stats_store = stats_store
        self._pools: Dict[object, WorkerPool] = {}
        # Live observability state backing the /debug/queries endpoint:
        # observations currently inside their ``with`` block, plus a
        # bounded ring of finished ones.
        self._in_flight: Dict[int, QueryObservation] = {}
        self._recent_queries: List[Dict[str, Any]] = []
        self._debug_lock = threading.Lock()
        # Set by analyze() so EXPLAIN ANALYZE measures a real execution
        # instead of a result-cache hit; thread-local, so concurrent
        # queries on other threads keep their cache.
        self._cache_bypass = threading.local()

    # ------------------------------------------------------------------
    # Worker pools (repro.parallel)
    # ------------------------------------------------------------------
    def _pool_for(self, jobs: int, kind: str) -> WorkerPool:
        """The session's cached pool for ``(jobs, kind)``; created on
        first use (process pools carry an initializer building the
        per-worker session from this database)."""
        key = (jobs, kind)
        pool = self._pools.get(key)
        if pool is None:
            if kind == "process":
                from .parallel.batch import _init_process_worker

                pool = WorkerPool(
                    jobs,
                    "process",
                    initializer=_init_process_worker,
                    initargs=(
                        self.database,
                        self.budgets,
                        self.track_resources,
                        self.result_cache is not None,
                        self.obslog is not None,
                        self.stats_store is not None,
                    ),
                    metrics=self.planner.metrics,
                )
            else:
                pool = WorkerPool(jobs, "thread", metrics=self.planner.metrics)
            self._pools[key] = pool
        return pool

    def close(self) -> None:
        """Shut down every worker pool this session created
        (idempotent; a closed session still answers queries)."""
        for pool in self._pools.values():
            pool.close()
        self._pools.clear()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Batch evaluation (repro.parallel.batch)
    # ------------------------------------------------------------------
    def run_batch(
        self,
        queries,
        jobs: Optional[int] = None,
        executor: Optional[str] = None,
        op: str = "query",
    ):
        """Evaluate many independent queries, ``jobs`` at a time
        (``None``: the sequential loop) on ``executor`` workers
        (``"thread"``, the default, or ``"process"``).

        Returns a :class:`~repro.parallel.batch.BatchResult` whose
        ``results[i]`` matches ``queries[i]`` — identical to the
        sequential loop regardless of executor or scheduling.  ``op`` may
        be ``"query"``, ``"query_maximal"``, or ``"ask"`` (then
        ``queries`` holds ``(query, candidate)`` pairs).

        >>> from repro.workloads.families import example2_graph
        >>> s = Session(example2_graph())
        >>> q = ("SELECT ?x ?z WHERE { ?x recorded_by ?y "
        ...      "OPTIONAL { ?x NME_rating ?z } }")
        >>> batch = s.run_batch([q, q], jobs=2)
        >>> [len(r) for r in batch]
        [2, 2]
        >>> batch.answers() == [s.query(q).answers, s.query(q).answers]
        True
        """
        from .parallel.batch import run_batch

        return run_batch(self, queries, jobs=jobs, executor=executor, op=op)

    def map(
        self,
        queries,
        jobs: Optional[int] = None,
        executor: Optional[str] = None,
    ):
        """``[self.query(q) for q in queries]``, fanned over the pool —
        the list-of-:class:`Result` convenience over :meth:`run_batch`."""
        return list(self.run_batch(queries, jobs=jobs, executor=executor))

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------
    def parse(self, query: Query) -> WDPT:
        """Parse a query string (surface SPARQL, falling back to the
        paper's algebraic notation) or pass a WDPT through.  Parses are
        LRU-cached by text in the planner."""
        if isinstance(query, WDPT):
            return query
        return self.planner.cached_parse(query, _parse_text)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _observe(self, op: str, query: Query) -> Optional[QueryObservation]:
        """A per-call observation when obslog/budgets/resource tracking or
        a stats store is configured — or a sampling profiler is running,
        so profiled queries get a ``trace_id`` their samples attribute
        to; ``None`` (the zero-overhead path, one module-global read)
        otherwise."""
        if (
            self.obslog is None
            and not self.track_resources
            and self.stats_store is None
        ):
            profiler = current_profiler()
            if profiler is None or not profiler.running:
                return None
        return QueryObservation(self, op, query)

    @staticmethod
    def _attach_profile(result: Result, obs: QueryObservation) -> None:
        """Attach the running profiler's samples for this query's trace
        to the result (no-op when no profiler is running)."""
        profiler = current_profiler()
        if profiler is not None and profiler.running:
            result.profile_samples = profiler.samples_for_trace(obs.trace_id)

    # ------------------------------------------------------------------
    # Live query registry (/debug/queries)
    # ------------------------------------------------------------------
    #: How many finished queries :meth:`debug_queries` retains.
    RECENT_QUERIES = 64

    def _query_started(self, obs: QueryObservation) -> None:
        """Register an observation as in flight (called on ``__enter__``)."""
        with self._debug_lock:
            self._in_flight[id(obs)] = obs

    def _query_finished(
        self, obs: QueryObservation, wall: float, error: Optional[str]
    ) -> None:
        """Move an observation from in-flight to the recent ring."""
        record = {
            "op": obs.op,
            "query_id": obs.query_id,
            "trace_id": obs.trace_id,
            "rows": obs.n_rows,
            "wall_seconds": wall,
            "cache": obs.cache_outcome,
            "error": error,
        }
        if self.tenant is not None:
            record["tenant"] = self.tenant
        with self._debug_lock:
            self._in_flight.pop(id(obs), None)
            self._recent_queries.append(record)
            if len(self._recent_queries) > self.RECENT_QUERIES:
                del self._recent_queries[: len(self._recent_queries)
                                         - self.RECENT_QUERIES]

    def debug_queries(self) -> Dict[str, Any]:
        """The ``/debug/queries`` payload: queries currently executing
        (with their trace ids and elapsed time) plus the recent ring."""
        now = time.perf_counter()
        with self._debug_lock:
            in_flight = [
                {
                    "op": obs.op,
                    "query_id": obs.query_id,
                    "trace_id": obs.trace_id,
                    "elapsed_seconds": max(0.0, now - obs._start),
                    **({"tenant": self.tenant} if self.tenant else {}),
                }
                for obs in self._in_flight.values()
            ]
            recent = list(self._recent_queries)
        return {"in_flight": in_flight, "recent": recent}

    def debug_plans(self) -> Dict[str, Any]:
        """The ``/debug/plans`` payload: the planner's EXPLAIN cache
        joined with each shape's accumulated estimate accuracy."""
        store = self.stats_store
        plans = []
        for key, profile in self.planner.explains.items_snapshot():
            fingerprint = key if isinstance(key, str) else repr(key)
            entry: Dict[str, Any] = {
                "fingerprint": fingerprint[:16],
                "eval_route": profile.eval_route(),
                "partial_eval_route": profile.partial_eval_route(),
            }
            if store is not None:
                snapshot = store.snapshot(fingerprint[:16])
                if snapshot is not None:
                    entry["executions"] = snapshot["executions"]
                    entry["q_error"] = snapshot["q_error"]
            plans.append(entry)
        return {
            "plans": plans,
            "estimate_cache": self.planner.estimates.stats(),
            "profile_cache": self.planner.profiles.stats(),
        }

    def debug_stats(self) -> Dict[str, Any]:
        """The ``/debug/stats`` payload: the stats store dump (an empty
        schema-stamped dump when no store is configured)."""
        if self.stats_store is None:
            return {"schema": STATS_SCHEMA, "queries": {}}
        return self.stats_store.dump()

    def debug_providers(self) -> Dict[str, Any]:
        """Callables for :class:`~repro.telemetry.promhttp.MetricsServer`'s
        ``/debug/*`` routes
        (``MetricsServer(..., debug=session.debug_providers())``)."""
        return {
            "queries": self.debug_queries,
            "plans": self.debug_plans,
            "stats": self.debug_stats,
        }

    def _cache_slot(self, op: str, p: WDPT, extra=None):
        """``(key, stamp)`` of one evaluation call — its
        :class:`ResultCache` slot and the data version an entry must be
        stamped with to answer it — or ``None`` when caching is off (or
        bypassed by ``analyze`` on this thread — EXPLAIN ANALYZE must
        measure a real execution)."""
        if self.result_cache is None:
            return None
        if getattr(self._cache_bypass, "active", False):
            return None
        db = self.database
        key = ResultCache.key(
            op, p.structural_fingerprint(), db.backend_id, extra=extra
        )
        return key, db.data_version

    def _note_cache(self, obs: Optional[QueryObservation], outcome: str) -> None:
        """Emit a ``query.cache`` obslog record (hit or miss) and note
        the outcome on the observation for the stats store."""
        if obs is None:
            return
        obs.cache_outcome = outcome
        if obs.log is not None:
            obs.log.emit(
                "query.cache",
                op=obs.op,
                query_id=obs.query_id,
                outcome=outcome,
            )

    def query(self, query: Query) -> Result:
        """Evaluate and return all answers."""
        return self._evaluate("query", query, evaluate, "wdpt-topdown")

    def query_maximal(self, query: Query) -> Result:
        """Evaluate under the maximal-mapping semantics ``p_m(D)``."""
        return self._evaluate(
            "query_maximal", query, evaluate_max, "wdpt-topdown-max"
        )

    def _evaluate(self, op: str, query: Query, evaluator, engine: str) -> Result:
        """:meth:`query` and :meth:`query_maximal` — they differ in the op
        name, the evaluator and the planner's engine label only.  This is
        the observation wrapper; the evaluation is :meth:`_evaluate_impl`."""
        obs = self._observe(op, query)
        if obs is None:
            return self._evaluate_impl(op, query, evaluator, engine, None)
        with obs:
            result = self._evaluate_impl(op, query, evaluator, engine, obs)
            obs.finish(result.query, len(result.answers))
        result.resources = obs.usage
        self._attach_profile(result, obs)
        return result

    def _evaluate_impl(
        self,
        op: str,
        query: Query,
        evaluator,
        engine: str,
        obs: Optional[QueryObservation],
    ) -> Result:
        tracer = current_tracer()
        with tracer.span("session." + op):
            with tracer.span("session.parse"):
                p = self.parse(query)
            with tracer.span("session.profile"):
                profile = self.planner.profile_wdpt(p)  # warm the shared analysis
            if obs is not None:
                obs.parsed(p)
            slot = self._cache_slot(op, p)
            if slot is not None:
                answers = self.result_cache.get(*slot)
                if answers is not None:
                    self._note_cache(obs, "hit")
                    return Result(self, p, answers)
                self._note_cache(obs, "miss")
            start = time.perf_counter()
            answers = evaluator(p, self.database, profile)
            self.planner.record_engine(engine, time.perf_counter() - start)
            if slot is not None:
                self.result_cache.put(*slot, answers, p)
        return Result(self, p, answers)

    def ask(self, query: Query, candidate: Mapping) -> bool:
        """``EVAL``: is ``candidate`` an answer?  (Theorem 6 DP, node
        checks routed through the planner.)"""
        return self._decide("ask", query, candidate, eval_tractable)

    def is_partial(self, query: Query, candidate: Mapping) -> bool:
        """``PARTIAL-EVAL``: does some answer extend ``candidate``?
        (Theorem 8, subtree CQ routed through the planner.)"""
        return self._decide("is_partial", query, candidate, partial_eval)

    def is_maximal(self, query: Query, candidate: Mapping) -> bool:
        """``MAX-EVAL``: is ``candidate`` a ⊑-maximal answer?  (Theorem 9.)"""
        return self._decide("is_maximal", query, candidate, max_eval)

    def _decide(self, op: str, query: Query, candidate: Mapping, procedure) -> bool:
        """:meth:`ask`, :meth:`is_partial` and :meth:`is_maximal` — they
        differ in the op name and the Section 3 procedure only.  This is
        the observation wrapper; the decision is :meth:`_decide_impl`."""
        obs = self._observe(op, query)
        if obs is None:
            return self._decide_impl(op, query, candidate, procedure, None)
        with obs:
            decision = self._decide_impl(op, query, candidate, procedure, obs)
            obs.finish(obs.query, int(decision))
        return decision

    def _decide_impl(
        self,
        op: str,
        query: Query,
        candidate: Mapping,
        procedure,
        obs: Optional[QueryObservation],
    ) -> bool:
        with current_tracer().span("session." + op):
            p = self.parse(query)
            if obs is not None:
                obs.parsed(p)
            slot = self._cache_slot(op, p, extra=candidate)
            if slot is not None:
                decision = self.result_cache.get(*slot)
                if decision is not None:
                    self._note_cache(obs, "hit")
                    return decision
                self._note_cache(obs, "miss")
            decision = procedure(p, self.database, candidate, planner=self.planner)
            if slot is not None:
                self.result_cache.put(*slot, decision, p)
            return decision

    def explain(self, query: Query) -> WDPTProfile:
        """EXPLAIN profile without evaluating — served from the planner's
        EXPLAIN cache (repeated calls are hits, visible in :meth:`stats`)."""
        return self.planner.explain_wdpt(self.parse(query))

    def analyze(
        self,
        query: Query,
        candidate: Optional[Mapping] = None,
        maximal: bool = False,
    ):
        """EXPLAIN ANALYZE: evaluate under a fresh tracer and join the
        static profile with the measured per-node execution trace.

        * default — the top-down evaluator (``p(D)``), per-node candidate
          and extension counts;
        * ``candidate=h`` — the Theorem 6 DP for ``h ∈ p(D)``, whose
          per-node CQ checks route through the planner (Yannakakis on
          acyclic node labels), per-node interface-candidate and
          satisfiability-check counts;
        * ``maximal=True`` — the ``p_m(D)`` semantics.

        The result cache is bypassed for the analyzed call (on this
        thread only): EXPLAIN ANALYZE always measures a real execution,
        never a cache hit with nothing to report.

        Returns an :class:`repro.analyze.AnalyzeReport`; ``print(report)``
        renders the tree-shaped text form.
        """
        from .analyze import build_report

        p = self.parse(query)
        profile = self.planner.explain_wdpt(p)
        tracer = Tracer()
        n_answers: Optional[int] = None
        self._cache_bypass.active = True
        try:
            with tracing(tracer):
                if candidate is not None:
                    start = time.perf_counter()
                    self.ask(p, candidate)
                    self.planner.record_engine(
                        "wdpt-dp", time.perf_counter() - start
                    )
                    mode = "ask"
                elif maximal:
                    n_answers = len(self.query_maximal(p).answers)
                    mode = "query_maximal"
                else:
                    n_answers = len(self.query(p).answers)
                    mode = "query"
        finally:
            self._cache_bypass.active = False
        return build_report(
            p, profile, tracer, self.planner, n_answers=n_answers, mode=mode,
            db=self.database,
        )

    def stats(self) -> Dict[str, object]:
        """Planner instrumentation (cache hit rates, per-engine selection
        counts, analysis vs. engine time) plus the result-cache state."""
        out = self.planner.stats()
        out["result_cache"] = (
            self.result_cache.stats() if self.result_cache is not None else None
        )
        out["gc"] = gc_summary(self.planner.metrics)
        return out

    def reset_stats(self) -> None:
        """Zero the instrumentation counters while keeping the warmed
        planner caches (parsed queries, structural profiles, EXPLAINs)
        and cached results, so steady-state measurement windows start
        from a warm cache."""
        self.planner.reset_counters()
        if self.result_cache is not None:
            self.result_cache.reset_counters()

    # ------------------------------------------------------------------
    # Data management
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.database)

    def add(self, fact: Atom) -> bool:
        """Insert a fact; ``True`` iff it was new.  Answers of previous
        Results are snapshots.  The data version moves, and with it the
        stamp of every cached result ``fact`` cannot touch
        (:meth:`_write`); the others are dropped."""
        return bool(self._write([fact], lambda: int(self.database.add(fact)), False))

    def remove(self, fact: Atom) -> None:
        """Delete a fact (:exc:`KeyError` when absent); like :meth:`add`,
        this keeps the cached results ``fact`` could not touch while it
        was there and drops the rest."""
        self._write([fact], lambda: self.database.remove(fact) or 1, True)

    def add_triples(self, triples: Iterable) -> int:
        """Insert RDF triples into the ``triple/3`` relation (one
        transaction on SQLite); returns how many were new.  A cached
        result survives iff none of the triples can touch it."""
        from .rdf.graph import TRIPLE_RELATION

        facts = [Atom(TRIPLE_RELATION, t) for t in triples]
        return self._write(facts, lambda: self.database.update(facts), False)

    def _write(self, facts: List[Atom], apply: Callable[[], int], deleting: bool) -> int:
        """The one way a session writes: run ``apply`` (which returns how
        many of ``facts`` it wrote) and carry the cached results the
        write provably cannot touch across it.

        A cached query is *untouched* when :func:`~repro.wdpt.touch.
        can_touch` fails for every fact, tested over the store that holds
        the facts — after an insert, before a delete.  Its entries
        (``query``, ``query_maximal`` and every per-candidate decision
        share the verdict) are re-stamped ``before → after``; the entries
        of touched queries are deleted.  Nothing is carried unless the
        version moved by exactly what this call wrote: after a racing
        writer, or a backend that counts differently, the entries keep
        their old stamp and miss."""
        db, cache = self.database, self.result_cache
        if cache is None:
            return apply()
        with current_tracer().span("session.write") as sp:
            before = db.data_version
            verdicts: Dict[WDPT, bool] = {}

            def probe() -> None:
                for p in cache.queries(db.backend_id, before):
                    verdicts[p] = not any(can_touch(p, db, f) for f in facts)

            if deleting:
                probe()
            written = apply()
            after = db.data_version
            if after == before:
                return written
            carried = dropped = 0
            if after - before == written:
                if not deleting:
                    probe()
                carried, dropped = cache.advance(
                    db.backend_id, before, after, lambda p: verdicts.get(p, False)
                )
            counts = {
                "facts": written, "probed": len(verdicts),
                "carried": carried, "dropped": dropped,
            }
            sp.set(**counts)
            if self.obslog is not None:
                self.obslog.emit("cache.carry", **counts)
            return written

    def __repr__(self) -> str:
        return "Session(%d facts, %d cached queries)" % (
            len(self.database),
            len(self.planner.parses),
        )


def _parse_text(text: str) -> WDPT:
    """Surface SPARQL, falling back to the paper's algebraic notation."""
    try:
        return parse_sparql(text)
    except ParseError:
        try:
            return parse_query(text)
        except ParseError as exc:
            raise ParseError(
                "query parses neither as surface SPARQL nor as the "
                "algebraic notation: %s" % exc
            ) from None
