"""Process-parallel ``ask`` batches: many Theorem 6 decisions at once.

:meth:`repro.engine.Session.run_batch` decides a list of ``(query,
candidate)`` pairs — ``[session.ask(q, h) for q, h in pairs]``, in order
— on the session's one ``ProcessPoolExecutor``; the function here does
the work.  It is the only batch path this package keeps: a thread pool
lost to the plain loop on every pool measured, and so did worker
processes on answer-producing queries, whose answer sets cost more to
ship home than the workers save.  Boolean ``ask`` batches win past a
break-even of a few hundred pairs (DESIGN.md, "Batches").

Each worker process owns a private :class:`~repro.engine.Session`, built
once per pool from the parent's database (inherited under ``fork``,
pickled through the backends' ``__reduce__`` under ``spawn`` and
``forkserver``), so its plan cache warms across the tasks it serves.
Queries, candidates and facts pickle by value, so a worker with another
hash seed rehashes them on arrival.
The session rebuilds the pool when its database's ``(backend_id,
data_version)`` has moved since the pool was built: a worker never
answers from facts older than the batch.

Tasks ship back an :class:`Envelope`; the parent folds the per-task
:meth:`~repro.telemetry.metrics.MetricsRegistry.dump` payloads into the
session's registry **in task order**, so the merged metrics are
deterministic regardless of which worker ran which task.  When the
parent session has an obslog, a recording tracer or a running profiler,
the worker-side records, spans and samples come home the same way
(:meth:`~repro.telemetry.obslog.QueryLog.absorb`,
:func:`~repro.telemetry.export.span_from_dict`,
:meth:`~repro.telemetry.profiler.SamplingProfiler.absorb_dump`).

Every task runs under the **batch's trace context**
(:mod:`repro.telemetry.context`): ``run_batch`` establishes one
``trace_id`` (reusing an ambient one when the caller already has a trace
in flight) and ships it inside each task, so all spans and obslog lines
of a batch stitch together under a single id.  Per-query resource
budgets (:mod:`repro.telemetry.resources`) are enforced in the worker
that runs the pair; a hard violation propagates out of :func:`run_batch`
just as it would out of ``session.ask``.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..telemetry.context import (
    ensure_trace_id,
    set_trace_context,
    set_worker_id,
    trace_context,
)
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.tracer import Tracer, current_tracer, tracing

__all__ = ["Envelope", "run_batch"]


class Envelope(NamedTuple):
    """The pickle-safe reply a worker process ships home."""

    value: bool
    #: ``p<pid>`` of the process that ran the task.
    worker_id: str
    #: Position of the task in its batch.
    index: int
    metrics_dump: Any
    #: Obslog records the task emitted.
    records: Sequence[Dict[str, Any]] = ()
    #: ``Span.to_dict()`` of the root spans the task recorded.
    span_dicts: Sequence[Dict[str, Any]] = ()
    profile_dump: Any = None


class _Task(NamedTuple):
    """One ``ask`` pair plus what a worker process, which shares no
    thread-locals with the parent, needs to observe it: the batch's
    ``trace_id``, whether to record spans, and the rate of the parent's
    running sampling profiler (``None``: not profiling)."""

    index: int
    query: Any
    candidate: Any
    trace_id: Optional[str]
    want_trace: bool
    profile_hz: Optional[int]


_worker_session = None
_worker_records: List[Dict[str, Any]] = []


def _init_process_worker(database, budgets, track_resources, cache, want_obslog) -> None:
    """Build this worker process's private session, once.  ``cache``
    mirrors the parent session's result-cache setting; with
    ``want_obslog`` the session records obslog events into a buffer each
    task ships home."""
    global _worker_session
    from ..engine import Session
    from ..telemetry.obslog import QueryLog

    set_worker_id("p%d" % os.getpid())
    _worker_session = Session(
        database, budgets=budgets, track_resources=track_resources, cache=cache,
        obslog=QueryLog(sink=_worker_records.append) if want_obslog else None,
    )


def _run_process_task(task: _Task) -> Envelope:
    """Decide one pair on the worker's session.  A fresh metrics registry
    is swapped in per task, so the dump shipped back is exactly this
    task's contribution.  With ``profile_hz`` a worker-local profiler runs
    at that rate and the task's samples ride home in the envelope."""
    session = _worker_session
    profiler = None
    if task.profile_hz:
        from ..telemetry.profiler import ensure_profiler

        profiler = ensure_profiler(task.profile_hz)
        profiler.drain()  # keep only this task's samples for the envelope
    registry = MetricsRegistry()
    session.planner.metrics = registry
    del _worker_records[:]
    tracer = Tracer() if task.want_trace else None
    worker = "p%d" % os.getpid()
    with trace_context(task.trace_id):
        with tracing(tracer) if tracer is not None else nullcontext():
            with current_tracer().span(
                "parallel.task",
                index=task.index, trace_id=task.trace_id, worker=worker,
            ):
                value = session.ask(task.query, task.candidate)
    return Envelope(
        value,
        worker,
        task.index,
        registry.dump(),
        records=list(_worker_records),
        span_dicts=(
            [root.to_dict() for root in tracer.roots] if tracer is not None else ()
        ),
        profile_dump=profiler.dump(drain=True) if profiler is not None else None,
    )


def run_batch(
    session, pairs: Sequence[Tuple[Any, Any]], jobs: Optional[int] = None
) -> List[bool]:
    """``[session.ask(q, h) for q, h in pairs]``, decided ``jobs`` at a
    time in worker processes.  ``jobs=None`` or ``1`` (or fewer than two
    pairs) runs that sequential loop itself."""
    pairs = list(pairs)
    jobs = 1 if jobs is None else max(1, int(jobs))
    # One trace id for the whole batch: every task runs under it, so the
    # batch's spans and obslog lines stitch together across workers.
    trace_id, owns_trace = ensure_trace_id()
    try:
        log = session.obslog
        if log is not None:
            log.emit("batch.start", queries=len(pairs), jobs=jobs)
        start = time.perf_counter()
        with current_tracer().span("parallel.run_batch", jobs=jobs, trace_id=trace_id):
            if jobs > 1 and len(pairs) >= 2:
                values, workers = _run_process_batch(session, pairs, jobs, trace_id)
            else:
                values, workers = [session.ask(q, h) for q, h in pairs], []
        if log is not None:
            log.emit(
                "batch.complete",
                queries=len(pairs),
                jobs=jobs,
                wall_seconds=time.perf_counter() - start,
                workers=sorted(set(workers)),
            )
    finally:
        if owns_trace:
            set_trace_context(None, None)
    return values


def _run_process_batch(session, pairs, jobs: int, trace_id: str):
    """Fan the pairs over the session's pool and fold the envelopes into
    the parent's registry, log, tracer and profiler in task order."""
    from ..telemetry.profiler import current_profiler

    tracer = current_tracer()
    want_trace = bool(getattr(tracer, "enabled", False))
    profiler = current_profiler()
    if profiler is not None and not profiler.running:
        profiler = None
    profile_hz = profiler.hz if profiler is not None else None
    tasks = [
        _Task(index, query, candidate, trace_id, want_trace, profile_hz)
        for index, (query, candidate) in enumerate(pairs)
    ]
    chunksize = max(1, len(tasks) // (jobs * 4))
    envelopes = session._pool_for(jobs).map(
        _run_process_task, tasks, chunksize=chunksize
    )
    values: List[bool] = []
    workers: List[str] = []
    for task, envelope in zip(tasks, envelopes):
        assert envelope.index == task.index
        session.planner.metrics.merge_dump(envelope.metrics_dump)
        if envelope.records and session.obslog is not None:
            session.obslog.absorb(envelope.records)
        if envelope.span_dicts and want_trace:
            _graft_spans(tracer, envelope.span_dicts)
        if envelope.profile_dump and profiler is not None:
            profiler.absorb_dump(envelope.profile_dump)
        values.append(envelope.value)
        workers.append(envelope.worker_id)
    return values, workers


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
