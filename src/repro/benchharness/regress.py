"""Benchmark regression tracking: named workloads → trajectory points.

``scripts/bench_regress.py`` runs the named benchmarks below, appends one
**trajectory point** (per-benchmark best-of-N seconds + per-stage
breakdown, plus planner cache rates and per-engine latency quantiles) to a
JSON trajectory file (``BENCH_eval.json`` by convention), and compares the
new point against the previous one — failing when any benchmark slowed
down by more than a configurable percentage.  CI keeps the trajectory as a
workflow artifact, so perf history is queryable without a dashboard.

Workload naming mirrors the paper: ``fig1.query`` is the running example
(query (1) over the Example 2 database), ``thm6.dp`` the Theorem 6
interface DP, ``thm8.partial_eval`` / ``thm9.max_eval`` the decision
procedures, and ``cq.yannakakis`` a pure acyclic-CQ evaluation through the
planner's router.

Every benchmark factory receives the shared :class:`Planner` of the run,
so the planner section of the point reflects realistic mixed-workload
cache behaviour.  The factories also take the storage ``backend`` kind
(:mod:`repro.storage`), and each point records which backend it measured:
``bench_regress.py --backend sqlite`` times the same workloads against
SQLite-backed databases (compared only against previous sqlite points),
and :func:`compare_backends` produces the side-by-side memory-vs-sqlite
rows in ``docs/BENCHMARKS.md``.  Benchmark sessions always disable the
result cache — the gate times evaluation, not cache lookups.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..core.cq import ConjunctiveQuery
from ..planner.planner import Planner
from .runner import stage_breakdown, time_callable

#: Trajectory file schema version.
TRAJECTORY_SCHEMA = 1

#: Default regression threshold: fail when a benchmark slows by more.
DEFAULT_THRESHOLD_PCT = 25.0

#: Noise floor: timings below this are too jittery to compare.
DEFAULT_MIN_SECONDS = 1e-4

#: Latency-quantile keys copied from histogram snapshots into the point.
_LATENCY_KEYS = ("count", "p50", "p95", "p99", "max")


# ---------------------------------------------------------------------------
# Named workloads
# ---------------------------------------------------------------------------
def _bench_fig1_query(
    planner: Planner, backend: str = "memory"
) -> Callable[[], object]:
    from ..engine import Session
    from ..workloads.families import FIGURE1_QUERY_TEXT, example2_graph

    session = Session(
        example2_graph(), planner=planner, backend=backend, cache=False
    )
    return lambda: session.query(FIGURE1_QUERY_TEXT)


def _company_dp_pieces(backend: str = "memory"):
    from ..core.atoms import atom
    from ..storage import to_backend
    from ..wdpt.evaluation import evaluate
    from ..wdpt.wdpt import wdpt_from_nested
    from ..workloads.datasets import company_directory

    query = wdpt_from_nested(
        (
            [atom("works_in", "?e", "?d")],
            [
                ([atom("phone", "?e", "?p")], []),
                ([atom("reports_to", "?e", "?m")],
                 [([atom("office", "?m", "?o")], [])]),
            ],
        ),
        free_variables=["?e", "?d", "?p", "?m", "?o"],
    )
    db = to_backend(
        company_directory(n_departments=4, employees_per_department=8, seed=1),
        backend,
    )
    h = max(evaluate(query, db), key=lambda m: (len(m), repr(m)))
    return query, db, h


def _bench_thm6_dp(
    planner: Planner, backend: str = "memory"
) -> Callable[[], object]:
    from ..wdpt.eval_tractable import eval_tractable

    query, db, h = _company_dp_pieces(backend)
    return lambda: eval_tractable(query, db, h, method="auto", planner=planner)


def _bench_thm8_partial_eval(
    planner: Planner, backend: str = "memory"
) -> Callable[[], object]:
    from ..wdpt.partial_eval import partial_eval

    query, db, h = _company_dp_pieces(backend)
    partial = h.restrict(sorted(h.domain(), key=repr)[:2])
    return lambda: partial_eval(query, db, partial, method="auto", planner=planner)


def _bench_thm9_max_eval(
    planner: Planner, backend: str = "memory"
) -> Callable[[], object]:
    from ..wdpt.max_eval import max_eval

    query, db, h = _company_dp_pieces(backend)
    return lambda: max_eval(query, db, h, method="auto", planner=planner)


def _bench_cq_yannakakis(
    planner: Planner, backend: str = "memory"
) -> Callable[[], object]:
    from ..core.atoms import atom
    from ..storage import to_backend
    from ..workloads.datasets import company_directory

    q = ConjunctiveQuery(
        ("?e", "?d", "?m"),
        [
            atom("works_in", "?e", "?d"),
            atom("reports_to", "?e", "?m"),
            atom("office", "?m", "?o"),
        ],
    )
    db = to_backend(
        company_directory(n_departments=6, employees_per_department=10, seed=2),
        backend,
    )
    return lambda: planner.evaluate_cq(q, db)


#: name → factory(planner, backend) → zero-arg timed workload.
BENCHMARKS: Dict[str, Callable[..., Callable[[], object]]] = {
    "fig1.query": _bench_fig1_query,
    "thm6.dp": _bench_thm6_dp,
    "thm8.partial_eval": _bench_thm8_partial_eval,
    "thm9.max_eval": _bench_thm9_max_eval,
    "cq.yannakakis": _bench_cq_yannakakis,
}


# ---------------------------------------------------------------------------
# Parallel batch scaling (repro.parallel)
# ---------------------------------------------------------------------------
def measure_parallel_scaling(
    jobs_list: Sequence[int] = (1, 2, 4),
    n_queries: int = 24,
    employees: int = 64,
    repeats: int = 2,
    executor: str = "process",
) -> Dict[str, Any]:
    """Batch the table-1 eval workload at each job count and report the
    speedup over ``jobs=1``.

    The workload is ``n_queries`` copies of the bounded-interface company
    query over ``company_directory(4, employees)`` — the same query/data
    family as ``benchmarks/bench_table1_eval.py`` — run through
    ``Session.run_batch`` with the given executor (``"process"`` by
    default: thread pools cannot beat the GIL on this pure-Python compute).
    Worker spawn cost is paid in an untimed warm-up batch per job count;
    every batch's answers are checked against the ``jobs=1`` baseline.

    Returns ``{"seconds": {jobs: s}, "speedup": {jobs: x}, ...}`` — the
    payload ``benchmarks/bench_parallel_scaling.py`` and ``python -m repro
    bench --jobs`` record into the trajectory.  Speedup expectations must
    be gated on ``effective_cpus``: a 1-CPU container cannot beat 1× no
    matter how many workers it spawns.
    """
    from ..core.atoms import atom
    from ..engine import Session
    from ..parallel.pool import effective_cpu_count
    from ..wdpt.wdpt import wdpt_from_nested
    from ..workloads.datasets import company_directory

    query = wdpt_from_nested(
        (
            [atom("works_in", "?e", "?d")],
            [
                ([atom("phone", "?e", "?p")], []),
                ([atom("reports_to", "?e", "?m")],
                 [([atom("office", "?m", "?o")], [])]),
            ],
        ),
        free_variables=["?e", "?d", "?p", "?m", "?o"],
    )
    db = company_directory(
        n_departments=4, employees_per_department=employees, seed=1
    )
    queries = [query] * n_queries
    seconds: Dict[int, float] = {}
    baseline_answers: Optional[List[Any]] = None
    answers_equal = True
    for jobs in jobs_list:
        jobs = int(jobs)
        kind = executor if jobs > 1 else "thread"
        # cache=False: the sweep times evaluation, and a shared result
        # cache would collapse the repeated identical queries to lookups.
        with Session(db, jobs=jobs, executor=kind, cache=False) as session:
            run = lambda: session.run_batch(queries, jobs=jobs, executor=kind)
            batch = run()  # warm-up: spawn workers, warm plan caches
            if baseline_answers is None:
                baseline_answers = batch.answers()
            elif batch.answers() != baseline_answers:
                answers_equal = False
            seconds[jobs] = time_callable(run, repeats=repeats)
    base = seconds[min(seconds)]
    return {
        "workload": "table1.eval",
        "executor": executor,
        "n_queries": n_queries,
        "employees": employees,
        "effective_cpus": effective_cpu_count(),
        "seconds": seconds,
        "speedup": {jobs: base / s for jobs, s in seconds.items()},
        "answers_equal": answers_equal,
    }


# ---------------------------------------------------------------------------
# Distributed shard scaling (repro.dist)
# ---------------------------------------------------------------------------
def _dist_chain_workload(tuples: int, seed: int = 1):
    """A selective three-relation chain over ``tuples`` generated facts.

    The CQ is ``q(?a) :- E1(?a, ?b), E2(?b, ?c), E3(?c, ?d)``.  The
    ``E2``/``E3`` key columns draw from a 20×-restricted window of the
    shared-variable domain, so whichever way the join tree is rooted the
    semi-join sweeps kill ~95% of every relation — the shard-local scans
    and filter passes dominate (and parallelise across shards), while
    the exchanged key sets stay inside the broadcast limit and the final
    gather ships only the few thousand surviving (projected) rows to the
    coordinator."""
    import random

    from ..core.atoms import atom
    from ..core.cq import cq

    rng = random.Random(seed)
    per = max(1, tuples // 3)
    wide, narrow = 1000, 50
    facts = []
    for _ in range(per):
        facts.append(atom("E1", rng.randrange(per), rng.randrange(wide)))
        facts.append(atom("E2", rng.randrange(narrow), rng.randrange(wide)))
        facts.append(atom("E3", rng.randrange(narrow), rng.randrange(per)))
    query = cq(
        ["?a"],
        [
            atom("E1", "?a", "?b"),
            atom("E2", "?b", "?c"),
            atom("E3", "?c", "?d"),
        ],
    )
    return facts, query


def measure_dist_scaling(
    shards_list: Sequence[int] = (1, 2, 4),
    n_queries: int = 6,
    tuples: int = 102_000,
    repeats: int = 2,
) -> Dict[str, Any]:
    """Run the selective chain workload on a sharded backend at each
    shard count and report the speedup over ``shards=1``.

    The same shape as :func:`measure_parallel_scaling`, but the axis is
    *intra-query* distribution: ``n_queries`` evaluations of one acyclic
    chain CQ over a ≥10⁵-tuple generated database, each executed as the
    distributed Yannakakis shard program
    (:func:`repro.dist.exec.run_program`) through the planner's router.
    Shard-process spawn and partition-load cost is paid in an untimed
    warm-up query per shard count; every run's answers are checked
    against an in-memory baseline.  Speedup expectations must be gated
    on ``effective_cpus`` — a 1-CPU container cannot beat 1× however
    many shards it spawns.
    """
    from ..dist.backend import ShardedBackend
    from ..parallel.pool import effective_cpu_count
    from ..storage.memory import MemoryBackend

    facts, query = _dist_chain_workload(tuples)
    planner = Planner()
    baseline_answers = planner.evaluate_cq(query, MemoryBackend(facts))

    seconds: Dict[int, float] = {}
    answers_equal = True
    for shards in shards_list:
        shards = int(shards)
        backend = ShardedBackend(facts, shards=shards)
        run = lambda: [
            planner.evaluate_cq(query, backend) for _ in range(n_queries)
        ]
        answers = planner.evaluate_cq(query, backend)  # warm-up: spawn shards
        if answers != baseline_answers:
            answers_equal = False
        seconds[shards] = time_callable(run, repeats=repeats)
        backend.shutdown()
    base = seconds[min(seconds)]
    return {
        "workload": "dist.chain",
        "n_queries": n_queries,
        "tuples": tuples,
        "effective_cpus": effective_cpu_count(),
        "seconds": seconds,
        "speedup": {shards: base / s for shards, s in seconds.items()},
        "answers_equal": answers_equal,
    }


# ---------------------------------------------------------------------------
# Estimator accuracy (q-error of the planner's cardinality estimates)
# ---------------------------------------------------------------------------
def measure_estimator_accuracy(backend: str = "memory") -> Dict[str, Any]:
    """Per-node q-error distribution of the cardinality estimator over
    the benchmark query families, via EXPLAIN ANALYZE.

    Runs the paper's query (1) and the company-directory WDPT under
    :meth:`repro.engine.Session.analyze` and pools every node's q-error
    (``max(est/actual, actual/est)``).  The summary rides along in each
    trajectory point, so estimator drift is visible in the perf history
    the same way timings are — informational, not gated.
    """
    from ..analyze import _percentile
    from ..engine import Session
    from ..workloads.families import FIGURE1_QUERY_TEXT, example2_graph

    errors: List[float] = []

    def pool(report) -> None:
        errors.extend(
            row["q_error"] for row in report.rows
            if row.get("q_error") is not None
        )

    with Session(example2_graph(), backend=backend, cache=False) as session:
        pool(session.analyze(FIGURE1_QUERY_TEXT))
    query, db, _ = _company_dp_pieces(backend)
    with Session(db, cache=False) as session:
        pool(session.analyze(query))
    errors.sort()
    return {
        "nodes": len(errors),
        "p50": _percentile(errors, 0.50),
        "p95": _percentile(errors, 0.95),
        "max": errors[-1] if errors else 0.0,
    }


# ---------------------------------------------------------------------------
# Trajectory points
# ---------------------------------------------------------------------------
def build_point(
    names: Optional[Sequence[str]] = None,
    repeats: int = 3,
    backend: str = "memory",
    profiler=None,
) -> Dict[str, Any]:
    """Run the named benchmarks (all by default) against the given
    storage backend and return one point.

    With ``profiler=`` (a *running*
    :class:`~repro.telemetry.profiler.SamplingProfiler`) each benchmark
    entry also carries a ``"profile"`` summary — sample counts, phase
    split and hottest folded stacks for that benchmark's timed window —
    and the profiler retains all samples afterwards so the caller can
    export one flamegraph for the whole point.
    """
    from ..telemetry.profiler import summarize_samples

    selected = list(names) if names else sorted(BENCHMARKS)
    unknown = [n for n in selected if n not in BENCHMARKS]
    if unknown:
        raise KeyError(
            "unknown benchmark(s) %s; available: %s"
            % (", ".join(unknown), ", ".join(sorted(BENCHMARKS)))
        )
    planner = Planner()
    benchmarks: Dict[str, Any] = {}
    profiled: List[Any] = []
    for name in selected:
        workload = BENCHMARKS[name](planner, backend)
        workload()  # warm caches: measure steady-state, not first-parse
        if profiler is not None:
            profiled.extend(profiler.drain())  # warm-up samples: keep, unattributed
        benchmarks[name] = {
            "seconds": time_callable(workload, repeats=repeats),
            "stages": stage_breakdown(workload),
        }
        if profiler is not None:
            window = profiler.drain()
            profiled.extend(window)
            benchmarks[name]["profile"] = summarize_samples(
                window, profiler.hz, top=5
            )
    if profiler is not None:
        profiler.absorb(profiled)
    return {
        "schema": TRAJECTORY_SCHEMA,
        "backend": backend,
        "meta": {
            "created": time.time(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "repeats": repeats,
        },
        "benchmarks": benchmarks,
        "planner": _planner_summary(planner),
        "estimator": measure_estimator_accuracy(backend),
    }


def compare_backends(
    names: Optional[Sequence[str]] = None,
    repeats: int = 3,
    backends: Sequence[str] = ("memory", "sqlite"),
) -> List[Dict[str, Any]]:
    """Side-by-side timings of the named benchmarks per backend.

    Returns one row per benchmark — ``{"name", "<backend>_seconds"...,
    "ratio"}`` with ``ratio`` the last backend's seconds over the
    first's — the memory-vs-sqlite table in ``docs/BENCHMARKS.md``
    (informational: backend ratios are not gated).
    """
    points = {b: build_point(names=names, repeats=repeats, backend=b)
              for b in backends}
    rows: List[Dict[str, Any]] = []
    for name in sorted(points[backends[0]]["benchmarks"]):
        row: Dict[str, Any] = {"name": name}
        for b in backends:
            row["%s_seconds" % b] = points[b]["benchmarks"][name]["seconds"]
        first = row["%s_seconds" % backends[0]]
        last = row["%s_seconds" % backends[-1]]
        row["ratio"] = last / first if first else float("nan")
        rows.append(row)
    return rows


def _planner_summary(planner: Planner) -> Dict[str, Any]:
    stats = planner.stats()
    return {
        "plan_cache_hit_rate": stats["plan_cache"]["hit_rate"],
        "parse_cache_hit_rate": stats["parse_cache"]["hit_rate"],
        "engine_selections": dict(stats["engine_selections"]),
        "kernel_selections": dict(stats.get("kernel_selections", {})),
        "engine_latency": {
            engine: {key: snap.get(key) for key in _LATENCY_KEYS}
            for engine, snap in stats["engine_latency"].items()
        },
    }


def inject_regression(point: Dict[str, Any], name: str, factor: float) -> None:
    """Scale one benchmark's timing — the CI self-test that the comparison
    actually fails uses this to fake a slowdown."""
    bench = point["benchmarks"].get(name)
    if bench is None:
        raise KeyError(
            "cannot inject into unknown benchmark %r (have: %s)"
            % (name, ", ".join(sorted(point["benchmarks"])))
        )
    bench["seconds"] *= factor
    bench["injected_factor"] = factor


# ---------------------------------------------------------------------------
# Trajectory file
# ---------------------------------------------------------------------------
def load_trajectory(path: str) -> Dict[str, Any]:
    """The trajectory document at ``path`` (a fresh one when missing)."""
    if not os.path.exists(path):
        return {"schema": TRAJECTORY_SCHEMA, "points": []}
    with open(path) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or "points" not in doc:
        raise ValueError("%s is not a benchmark trajectory file" % path)
    return doc


def append_point(path: str, point: Dict[str, Any]) -> Dict[str, Any]:
    """Append ``point`` to the trajectory at ``path`` and rewrite it."""
    doc = load_trajectory(path)
    doc["points"].append(point)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return doc


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------
class Regression:
    """One benchmark that slowed down beyond the threshold."""

    def __init__(self, name: str, previous: float, current: float):
        self.name = name
        self.previous = previous
        self.current = current

    @property
    def change_pct(self) -> float:
        return 100.0 * (self.current - self.previous) / self.previous

    def __repr__(self) -> str:
        return "%s: %.6fs -> %.6fs (%+.1f%%)" % (
            self.name, self.previous, self.current, self.change_pct,
        )


def compare_points(
    previous: Dict[str, Any],
    current: Dict[str, Any],
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> List[Regression]:
    """Benchmarks in ``current`` that regressed against ``previous``.

    Timings under ``min_seconds`` on either side are skipped (too close to
    timer jitter to call a >N% change a regression).
    """
    regressions: List[Regression] = []
    for name in sorted(current.get("benchmarks", {})):
        curr = current["benchmarks"][name]
        prev = previous.get("benchmarks", {}).get(name)
        if prev is None:
            continue
        prev_s = float(prev["seconds"])
        curr_s = float(curr["seconds"])
        if prev_s < min_seconds or curr_s < min_seconds:
            continue
        if 100.0 * (curr_s - prev_s) / prev_s > threshold_pct:
            regressions.append(Regression(name, prev_s, curr_s))
    return regressions
