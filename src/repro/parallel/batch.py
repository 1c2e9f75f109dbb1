"""Batched query evaluation: fan a list of queries over a worker pool.

The batch layer runs *independent* queries concurrently — the
embarrassingly-parallel outer loop of every benchmark sweep and of any
application evaluating a workload against one database.  Entry points are
:meth:`repro.engine.Session.run_batch` / :meth:`~repro.engine.Session.map`;
the function here does the work.

Two executors (:data:`repro.parallel.pool.EXECUTORS`):

* ``"thread"`` — workers share the session: one warmed
  :class:`~repro.planner.cache.PlanCache`, one (thread-safe) metrics
  registry, one obslog.  CPython's GIL serialises pure-Python compute, so
  this overlaps latency rather than adding CPU throughput — but it is
  cheap, needs no pickling, and exercises exactly the locking the
  process path relies on.
* ``"process"`` — workers are separate interpreters, each owning a
  private :class:`~repro.engine.Session` built once per worker from the
  pickled database (so its plan cache warms across the tasks it serves).
  Tasks ship back an :class:`Envelope`; the parent folds the per-task
  :meth:`~repro.telemetry.metrics.MetricsRegistry.dump`
  payloads into the session's registry **in task order**, making the
  merged metrics deterministic regardless of which worker ran which
  task.  When the parent session has an obslog, a recording tracer, or
  a stats store, the corresponding worker-side payloads are absorbed the
  same way (:meth:`~repro.telemetry.obslog.QueryLog.absorb`,
  :func:`~repro.telemetry.export.span_from_dict`,
  :meth:`~repro.telemetry.insight.QueryStatsStore.merge_dump`).

Either executor, every task runs under the **batch's trace context**
(:mod:`repro.telemetry.context`): ``run_batch`` establishes one
``trace_id`` (reusing an ambient one when the caller already has a trace
in flight), the thread envelope carries it across threads, and process
tasks ship it inside the task tuple — so all spans and obslog lines of a
fanned-out batch stitch together under a single id.  Each task's
``session.query`` installs its own resource monitor, in whichever worker
runs it.

Either way the contract is: ``run_batch(...).answers()`` equals the
sequential ``[session.query(q).answers for q in queries]`` exactly, and
per-query resource budgets (:mod:`repro.telemetry.resources`) are
enforced in whichever worker runs the query — a hard violation propagates
out of :func:`run_batch` just as it would out of ``session.query``.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence

from ..telemetry.context import ensure_trace_id, set_trace_context, trace_context
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.tracer import Tracer, current_tracer, tracing
from .pool import (
    EXECUTORS,
    current_worker_id,
    mark_process_worker,
    process_worker_id,
)

__all__ = ["BATCH_OPS", "BatchResult", "Envelope", "run_batch"]

#: Session operations a batch can fan out.
BATCH_OPS = ("query", "query_maximal", "ask")


class BatchResult:
    """The ordered outcome of one :func:`run_batch` call.

    ``results[i]`` corresponds to ``queries[i]`` — a
    :class:`~repro.engine.Result` for ``op="query"``/``"query_maximal"``,
    a ``bool`` for ``op="ask"`` — independent of executor, job count, and
    scheduling.  Sequence-like: iterable, indexable, sized.
    """

    __slots__ = ("op", "jobs", "executor", "results", "wall_seconds", "worker_ids")

    def __init__(
        self,
        op: str,
        jobs: int,
        executor: str,
        results: List[Any],
        wall_seconds: float,
        worker_ids: List[Optional[str]],
    ):
        self.op = op
        self.jobs = jobs
        self.executor = executor
        self.results = results
        self.wall_seconds = wall_seconds
        #: Per-task id of the worker that ran it (``None`` = ran inline).
        self.worker_ids = worker_ids

    def answers(self) -> List[Any]:
        """Per-query answer payloads: frozensets of mappings for the query
        operations, booleans for ``ask`` — the values the sequential loop
        would have produced, for direct equality checks."""
        if self.op == "ask":
            return list(self.results)
        return [result.answers for result in self.results]

    def workers_used(self) -> List[str]:
        """The distinct worker ids that served this batch, sorted."""
        return sorted({w for w in self.worker_ids if w is not None})

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> Any:
        return self.results[index]

    def __iter__(self) -> Iterator[Any]:
        return iter(self.results)

    def __repr__(self) -> str:
        return "BatchResult(op=%r, %d results, jobs=%d, executor=%r, %.4fs)" % (
            self.op, len(self.results), self.jobs, self.executor,
            self.wall_seconds,
        )


# ---------------------------------------------------------------------------
# Process-pool worker side (module-level: must pickle by reference)
# ---------------------------------------------------------------------------
class Envelope(NamedTuple):
    """The pickle-safe reply a process worker ships home."""

    value: Any
    #: ``p<pid>`` of the process that ran the task.
    worker_id: str
    #: Position of the task in its batch.
    index: int = 0
    #: The task's :class:`~repro.telemetry.resources.ResourceUsage`.
    usage: Any = None
    metrics_dump: Any = None
    #: Obslog records the task emitted.
    records: Sequence[Dict[str, Any]] = ()
    #: ``Span.to_dict()`` of the root spans the task recorded.
    span_dicts: Sequence[Dict[str, Any]] = ()
    stats_dump: Any = None
    profile_dump: Any = None


class _Task(NamedTuple):
    """One batch task.  The last three fields only matter to a process
    worker, which shares no thread-locals with the parent: the batch's
    ``trace_id`` to install for the duration of the task, whether to
    record spans, and the rate of the parent's running sampling profiler
    (``None``: not profiling)."""

    index: int
    op: str
    query: Any
    candidate: Any
    trace_id: Optional[str] = None
    want_trace: bool = False
    profile_hz: Optional[int] = None


_worker_session = None
_worker_records: List[Dict[str, Any]] = []


def _collect_record(record: Dict[str, Any]) -> None:
    """Callable obslog sink of the worker session: buffer records so each
    task can ship its slice back inside the envelope."""
    _worker_records.append(record)


def _init_process_worker(
    database, budgets, track_resources, cache=True,
    want_obslog=False, want_stats=False,
) -> None:
    """Build this worker process's private session, once.  Its plan cache
    then warms across every task the worker serves; ``cache`` mirrors the
    parent session's result-cache setting.  ``want_obslog``/``want_stats``
    mirror the parent's observability configuration: when set, the worker
    session records obslog events (into the per-task buffer) and stats
    entries so the envelopes can carry them home."""
    global _worker_session
    from ..engine import Session
    from ..telemetry.obslog import QueryLog

    mark_process_worker()
    _worker_session = Session(
        database, budgets=budgets, track_resources=track_resources, cache=cache,
        obslog=QueryLog(sink=_collect_record) if want_obslog else None,
    )
    _worker_session._want_stats = want_stats


def _run_process_task(task: _Task) -> Envelope:
    """Run one task on the worker's session.  Fresh metrics/stats
    accumulators are swapped in per task, so the payloads shipped back
    are exactly this task's contribution — the parent merges them in task
    order.  Every record and span the worker emits carries the batch's
    ``trace_id``.  With ``profile_hz`` a worker-local profiler runs at
    that rate; the samples collected during the task ship home in the
    envelope and the parent absorbs them, so a parallel batch still
    yields one merged, trace-attributed profile."""
    op, query, trace_id = task.op, task.query, task.trace_id
    session = _worker_session
    profiler = None
    if task.profile_hz:
        from ..telemetry.profiler import ensure_profiler

        profiler = ensure_profiler(task.profile_hz)
        profiler.drain()  # keep only this task's samples for the envelope
    registry = MetricsRegistry()
    session.planner.metrics = registry
    if getattr(session, "_want_stats", False):
        from ..telemetry.insight import QueryStatsStore

        session.stats_store = QueryStatsStore()
    del _worker_records[:]
    tracer = Tracer() if task.want_trace else None
    usage = None
    with trace_context(trace_id):
        with tracing(tracer) if tracer is not None else nullcontext():
            span = (
                current_tracer().span(
                    "parallel.task",
                    index=task.index, op=op,
                    trace_id=trace_id, worker=process_worker_id(),
                )
            )
            with span:
                if op == "ask":
                    value = session.ask(query, task.candidate)
                elif op == "query_maximal":
                    result = session.query_maximal(query)
                    value, usage = result.answers, result.resources
                else:
                    result = session.query(query)
                    value, usage = result.answers, result.resources
    span_dicts = (
        [root.to_dict() for root in tracer.roots] if tracer is not None else []
    )
    stats_dump = (
        session.stats_store.dump() if session.stats_store is not None else None
    )
    profile_dump = profiler.dump(drain=True) if profiler is not None else None
    return Envelope(
        value,
        process_worker_id(),
        index=task.index,
        usage=usage,
        metrics_dump=registry.dump(),
        records=list(_worker_records),
        span_dicts=span_dicts,
        stats_dump=stats_dump,
        profile_dump=profile_dump,
    )


# ---------------------------------------------------------------------------
# The batch driver (parent side)
# ---------------------------------------------------------------------------
def run_batch(
    session,
    queries: Sequence[Any],
    jobs: Optional[int] = None,
    executor: Optional[str] = None,
    op: str = "query",
) -> BatchResult:
    """Evaluate ``queries`` against ``session``'s database, ``jobs`` at a
    time, preserving input order and sequential semantics exactly.

    ``op`` selects the session operation: ``"query"`` (default),
    ``"query_maximal"``, or ``"ask"`` — for ``ask``, ``queries`` is a
    sequence of ``(query, candidate)`` pairs.  ``jobs=None`` or ``1`` runs
    the plain sequential loop (the parity baseline the tests compare
    against); ``executor=None`` means ``"thread"``.
    """
    if op not in BATCH_OPS:
        raise ValueError(
            "unknown batch op %r (expected one of %s)" % (op, ", ".join(BATCH_OPS))
        )
    jobs = 1 if jobs is None else max(1, int(jobs))
    kind = "thread" if executor is None else executor
    if kind not in EXECUTORS:
        raise ValueError(
            "unknown executor %r (expected one of %s)"
            % (kind, ", ".join(EXECUTORS))
        )
    tasks: List[_Task] = []
    for index, item in enumerate(queries):
        if op == "ask":
            query, candidate = item
        else:
            query, candidate = item, None
        tasks.append(_Task(index, op, query, candidate))

    # One trace id for the whole batch: every task (thread envelope or
    # process task tuple) runs under it, so the batch's spans and obslog
    # lines stitch together across workers.
    trace_id, owns_trace = ensure_trace_id()
    try:
        log = session.obslog
        if log is not None:
            log.emit(
                "batch.start", op=op, queries=len(tasks), jobs=jobs, executor=kind
            )
        start = time.perf_counter()
        with current_tracer().span(
            "parallel.run_batch",
            op=op, jobs=jobs, executor=kind, trace_id=trace_id,
        ):
            if kind == "process" and jobs > 1 and len(tasks) >= 2:
                results, worker_ids = _run_process_batch(
                    session, tasks, jobs, trace_id
                )
            else:
                results, worker_ids = _run_thread_batch(session, tasks, jobs, kind)
        wall = time.perf_counter() - start
        batch = BatchResult(op, jobs, kind, results, wall, worker_ids)
        if log is not None:
            log.emit(
                "batch.complete",
                op=op,
                queries=len(tasks),
                jobs=jobs,
                executor=kind,
                wall_seconds=wall,
                workers=batch.workers_used(),
            )
    finally:
        if owns_trace:
            set_trace_context(None, None)
    return batch


def _run_thread_batch(session, tasks, jobs: int, kind: str):
    """Thread (or inline, ``jobs=1``) execution on the shared session."""

    def run(task: _Task):
        if task.op == "ask":
            value = session.ask(task.query, task.candidate)
        elif task.op == "query_maximal":
            value = session.query_maximal(task.query)
        else:
            value = session.query(task.query)
        return (value, current_worker_id())

    pool = session._pool_for(jobs, "thread")
    outcomes = pool.map_tasks(run, tasks)
    results = [value for value, _ in outcomes]
    worker_ids = [worker for _, worker in outcomes]
    return results, worker_ids


def _run_process_batch(session, tasks, jobs: int, trace_id: Optional[str]):
    """Process execution: per-worker sessions, envelope merge in the
    parent.  Results are rebuilt against the *parent* session (queries
    parsed through its cache), so downstream ``Result`` conveniences —
    witnesses, EXPLAIN profiles — keep working.  Worker-side obslog
    records, spans, and stats entries come home inside the envelopes and
    are folded into the parent's log/tracer/store in task order."""
    from ..engine import Result

    from ..telemetry.profiler import current_profiler

    tracer = current_tracer()
    want_trace = bool(getattr(tracer, "enabled", False))
    profiler = current_profiler()
    if profiler is not None and not profiler.running:
        profiler = None
    profile_hz = profiler.hz if profiler is not None else None
    pool = session._pool_for(jobs, "process")
    shipped = [
        task._replace(trace_id=trace_id, want_trace=want_trace, profile_hz=profile_hz)
        for task in tasks
    ]
    chunksize = max(1, len(tasks) // (jobs * 4))
    envelopes = pool.map_tasks(_run_process_task, shipped, chunksize=chunksize)
    results: List[Any] = []
    worker_ids: List[Optional[str]] = []
    for task, envelope in zip(tasks, envelopes):
        assert envelope.index == task.index
        session.planner.metrics.merge_dump(envelope.metrics_dump)
        if envelope.records and session.obslog is not None:
            session.obslog.absorb(envelope.records)
        if envelope.span_dicts and want_trace:
            _graft_spans(tracer, envelope.span_dicts)
        if envelope.stats_dump is not None and session.stats_store is not None:
            session.stats_store.merge_dump(envelope.stats_dump)
        if envelope.profile_dump and profiler is not None:
            profiler.absorb_dump(envelope.profile_dump)
        worker_ids.append(envelope.worker_id)
        if task.op == "ask":
            results.append(envelope.value)
        else:
            result = Result(session, session.parse(task.query), envelope.value)
            result.resources = envelope.usage
            results.append(result)
    return results, worker_ids


def _graft_spans(tracer, span_dicts) -> None:
    """Attach spans recorded in a worker process to the parent's tracer —
    under the currently open span when there is one (the batch's
    ``parallel.run_batch`` span), else as new roots.  Worker clocks are a
    different ``perf_counter`` domain; the spans are kept for structure,
    attributes, and durations, not for cross-process alignment."""
    from ..telemetry.export import span_from_dict

    parent = tracer.current()
    for payload in span_dicts:
        span = span_from_dict(payload)
        if parent is not None:
            parent.children.append(span)
        else:
            with tracer._lock:
                tracer.roots.append(span)
