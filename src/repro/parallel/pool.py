"""Worker pools: the execution substrate of :mod:`repro.parallel`.

A :class:`WorkerPool` wraps a :mod:`concurrent.futures` executor —
``ThreadPoolExecutor`` by default, ``ProcessPoolExecutor`` on request —
behind an API shaped for the query path:

* :meth:`WorkerPool.map_tasks` runs a function over items **in order**,
  carrying the submitting thread's trace context
  (:mod:`repro.telemetry.context`) into the worker for the duration of
  each task, so everything a batch emits shares one ``trace_id``;
* every worker carries a stable **worker id** (``t1``/``t2``… for
  threads, ``p<pid>`` for processes) kept beside the trace context and
  read with :func:`current_worker_id` — the query log stamps it on events
  emitted from inside a worker;
* tasks submitted *from* a worker — a thread that has a worker id — run
  **inline** (sequentially, on the worker itself).  This makes nested
  dispatch deadlock-free by construction: only the outermost dispatch
  uses the pool.

The pool fans out *across* queries (:mod:`repro.parallel.batch`); a
single query runs start to finish on the thread that asked for it.

Threads vs processes: CPython's GIL serialises pure-Python compute, so
**thread** pools overlap latency (and exercise the concurrency paths
deterministically) while **process** pools deliver CPU parallelism at the
cost of pickling task envelopes; :mod:`repro.parallel.batch` supports
both.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Sequence

from ..telemetry.context import (
    current_span_id,
    current_trace_id,
    current_worker_id,
    set_trace_context,
    set_worker_id,
)

__all__ = [
    "WorkerPool",
    "current_worker_id",
    "effective_cpu_count",
]

#: Executor kinds accepted by :class:`WorkerPool` and the Session API.
EXECUTORS = ("thread", "process")


def effective_cpu_count() -> int:
    """The CPUs actually available to this process (cgroup/affinity aware
    where the platform supports it) — the default worker count."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class WorkerPool:
    """A bounded pool of thread or process workers.

    >>> with WorkerPool(jobs=2) as pool:
    ...     pool.map_tasks(lambda x: x * x, [1, 2, 3])
    [1, 4, 9]

    ``jobs=1`` (or fewer items than 2) short-circuits to an inline loop —
    a ``WorkerPool`` is always safe to use unconditionally.

    With ``metrics=`` (a :class:`~repro.telemetry.metrics.MetricsRegistry`)
    the pool exports saturation gauges, labelled by executor kind, so
    ``/metrics`` shows pool pressure: ``pool.queue_depth`` (submitted,
    not yet started), ``pool.active_workers`` (running right now; for
    process pools an estimate — the parent cannot observe task starts
    inside workers), and a ``pool.tasks_total`` counter.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        executor: str = "thread",
        initializer: Optional[Callable[..., None]] = None,
        initargs: tuple = (),
        metrics=None,
    ):
        if executor not in EXECUTORS:
            raise ValueError(
                "unknown executor %r (expected one of %s)"
                % (executor, ", ".join(EXECUTORS))
            )
        self.jobs = effective_cpu_count() if jobs is None else max(1, int(jobs))
        self.kind = executor
        self.metrics = metrics
        self._executor = None
        self._initializer = initializer
        self._initargs = initargs
        self._worker_seq = 0
        self._queued = 0
        self._active = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Executor lifecycle (created lazily: a jobs=1 pool never spawns)
    # ------------------------------------------------------------------
    def _ensure_executor(self):
        if self._executor is None:
            if self.kind == "process":
                self._executor = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    initializer=self._initializer,
                    initargs=self._initargs,
                )
            else:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.jobs, thread_name_prefix="repro-worker"
                )
        return self._executor

    def close(self) -> None:
        """Shut the executor down (idempotent; waits for running tasks)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def map_tasks(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        chunksize: int = 1,
    ) -> List[Any]:
        """``[fn(item) for item in items]``, fanned out over the workers.

        Results come back **in input order** (determinism is the batch
        layer's contract).  The first task exception propagates to the
        caller.  Runs inline when the pool is serial, when there is
        nothing to overlap, or when the calling thread is itself a pool
        worker (nested dispatch).
        """
        items = list(items)
        if self.jobs <= 1 or len(items) < 2 or current_worker_id() is not None:
            if self.metrics is not None and items:
                self.metrics.counter(
                    "pool.tasks_total", {"executor": self.kind}).inc(len(items))
            return [fn(item) for item in items]
        if self.kind == "process":
            executor = self._ensure_executor()
            self._note_submitted(len(items))
            # The parent cannot see task starts inside worker processes;
            # report the whole map as queued with every worker busy, and
            # settle both gauges when it completes.
            self._note_process_active(min(self.jobs, len(items)))
            try:
                return list(executor.map(fn, items, chunksize=chunksize))
            finally:
                self._note_process_done(len(items))
        executor = self._ensure_executor()
        self._note_submitted(len(items))
        return list(executor.map(self._thread_envelope(fn), items))

    # ------------------------------------------------------------------
    # Saturation gauges (repro.telemetry.metrics)
    # ------------------------------------------------------------------
    def _publish_gauges_locked(self) -> None:
        labels = {"executor": self.kind}
        self.metrics.gauge("pool.queue_depth", labels).set(self._queued)
        self.metrics.gauge("pool.active_workers", labels).set(self._active)

    def _note_submitted(self, n: int) -> None:
        if self.metrics is None:
            return
        self.metrics.counter(
            "pool.tasks_total", {"executor": self.kind}).inc(n)
        with self._lock:
            self._queued += n
            self._publish_gauges_locked()

    def _note_started(self) -> None:
        if self.metrics is None:
            return
        with self._lock:
            self._queued -= 1
            self._active += 1
            self._publish_gauges_locked()

    def _note_finished(self) -> None:
        if self.metrics is None:
            return
        with self._lock:
            self._active -= 1
            self._publish_gauges_locked()

    def _note_process_active(self, n: int) -> None:
        if self.metrics is None:
            return
        with self._lock:
            self._active += n
            self._publish_gauges_locked()

    def _note_process_done(self, n_items: int) -> None:
        if self.metrics is None:
            return
        with self._lock:
            self._queued = max(0, self._queued - n_items)
            self._active = max(0, self._active - min(self.jobs, n_items))
            self._publish_gauges_locked()

    def _thread_envelope(self, fn: Callable[[Any], Any]) -> Callable[[Any], Any]:
        """Wrap ``fn`` for execution on a worker thread: stamp the thread
        with its worker id (which also makes nested dispatch run inline)
        and carry the submitter's trace context so every span/obslog line
        a worker emits shares the batch's ``trace_id``."""
        trace_id = current_trace_id()
        span_id = current_span_id()

        def run(item: Any) -> Any:
            if current_worker_id() is None:
                with self._lock:
                    self._worker_seq += 1
                    set_worker_id("t%d" % self._worker_seq)
            previous_trace = set_trace_context(trace_id, span_id)
            self._note_started()
            try:
                return fn(item)
            finally:
                self._note_finished()
                set_trace_context(*previous_trace)

        return run

    def __repr__(self) -> str:
        return "WorkerPool(jobs=%d, executor=%r)" % (self.jobs, self.kind)


def process_worker_id() -> str:
    """The worker id process-pool tasks report (``p<pid>``)."""
    return "p%d" % os.getpid()


def mark_process_worker() -> None:
    """Stamp the current (process-pool worker) thread with its id, so
    obslog events emitted inside the worker carry it and dispatch from
    inside it runs inline."""
    set_worker_id(process_worker_id())
