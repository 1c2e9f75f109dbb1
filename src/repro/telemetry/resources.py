"""Per-query resource accounting and budgets.

A :class:`ResourceMonitor` wraps one query execution and accounts

* wall-clock and CPU time (``time.perf_counter`` / ``time.process_time``);
* peak memory via :mod:`tracemalloc` (only when requested — starting the
  tracer is not free);
* the peak intermediate cardinality reported by the instrumented engines
  (Yannakakis relation/partial sizes, the top-down evaluator's extension
  sets, the Theorem 6 DP's interface-candidate sets) through
  :func:`account_rows`;
* the number of CQ subqueries issued (:func:`account_subquery` — one per
  tree node the top-down evaluator evaluates, one per Theorem 6/8/9
  satisfiability check).

Budgets come in two strengths (:class:`ResourceBudget`): **soft** limits
are recorded as violations on the resulting :class:`ResourceUsage` (the
session's query log turns them into warning events); **hard** limits raise
:class:`~repro.exceptions.ResourceBudgetExceeded` — for wall time and
intermediate cardinality *in flight*, aborting a blowing-up query at the
next accounting point rather than after the fact.

The monitor is a field of the per-query context
(:mod:`repro.telemetry.context`), so a query on one thread never reports
into another thread's monitor.  The disabled path is one read of a
module global per accounting hook — the set of monitors whose window is
open — and one context read while any is (gated <5% alongside the null
tracer in ``tests/test_resources.py``); no monitor installed means no
clock reads and no allocation.

Wired through :class:`repro.engine.Session` — pass ``budgets=`` or
``track_resources=True`` and every ``query``/``query_maximal``/``ask``
carries a ``.resources`` usage report; the session's
:class:`~repro.telemetry.obslog.QueryObservation` runs the monitor.
"""

from __future__ import annotations

import threading
import time
import tracemalloc
from typing import Any, Dict, List, NoReturn, Optional, Set

from ..exceptions import ResourceBudgetExceeded
from .context import current, current_trace_id, scoped

__all__ = [
    "ResourceBudget",
    "ResourceBudgetExceeded",
    "ResourceMonitor",
    "ResourceUsage",
    "account_rows",
    "account_subquery",
    "current_monitor",
]


class ResourceBudget:
    """Soft and hard limits for one query execution.

    ``None`` disables a limit.  Soft limits are advisory (recorded, and
    logged as warnings by the query log); hard limits abort the query with
    :class:`ResourceBudgetExceeded`.
    """

    __slots__ = (
        "soft_wall_seconds", "hard_wall_seconds",
        "soft_memory_bytes", "hard_memory_bytes",
        "soft_intermediate_rows", "hard_intermediate_rows",
    )

    def __init__(
        self,
        soft_wall_seconds: Optional[float] = None,
        hard_wall_seconds: Optional[float] = None,
        soft_memory_bytes: Optional[int] = None,
        hard_memory_bytes: Optional[int] = None,
        soft_intermediate_rows: Optional[int] = None,
        hard_intermediate_rows: Optional[int] = None,
    ):
        self.soft_wall_seconds = soft_wall_seconds
        self.hard_wall_seconds = hard_wall_seconds
        self.soft_memory_bytes = soft_memory_bytes
        self.hard_memory_bytes = hard_memory_bytes
        self.soft_intermediate_rows = soft_intermediate_rows
        self.hard_intermediate_rows = hard_intermediate_rows

    @property
    def wants_memory(self) -> bool:
        return self.soft_memory_bytes is not None or self.hard_memory_bytes is not None

    def __repr__(self) -> str:
        parts = [
            "%s=%r" % (slot, getattr(self, slot))
            for slot in self.__slots__
            if getattr(self, slot) is not None
        ]
        return "ResourceBudget(%s)" % ", ".join(parts)


class ResourceUsage:
    """What one query actually consumed (see module docstring)."""

    __slots__ = (
        "wall_seconds", "cpu_seconds", "peak_memory_bytes",
        "peak_intermediate_rows", "subqueries", "soft_violations",
        "trace_id",
    )

    def __init__(self) -> None:
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self.peak_memory_bytes: Optional[int] = None
        self.peak_intermediate_rows = 0
        self.subqueries = 0
        self.soft_violations: List[str] = []
        #: Trace id of the query this usage belongs to (correlates
        #: ``Result.resources`` with the obslog lines and spans).
        self.trace_id: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "peak_memory_bytes": self.peak_memory_bytes,
            "peak_intermediate_rows": self.peak_intermediate_rows,
            "subqueries": self.subqueries,
            "soft_violations": list(self.soft_violations),
            "trace_id": self.trace_id,
        }

    def __repr__(self) -> str:
        return (
            "ResourceUsage(wall=%.4fs, cpu=%.4fs, peak_rows=%d, "
            "subqueries=%d, peak_mem=%s)"
            % (self.wall_seconds, self.cpu_seconds, self.peak_intermediate_rows,
               self.subqueries, self.peak_memory_bytes)
        )


# ---------------------------------------------------------------------------
# The accounting hooks: they report into the context's monitor
# ---------------------------------------------------------------------------
def current_monitor() -> "Optional[ResourceMonitor]":
    """The monitor accounting hooks report into (``None`` when disabled)."""
    return current().monitor


#: The monitors whose accounting window is open (between
#: :meth:`ResourceMonitor.start` and :meth:`ResourceMonitor.stop`), on any
#: thread.  While it is empty no context holds a monitor that is counting,
#: and the hooks return without reading the context.  ``add`` and
#: ``discard`` of an object hashed by identity are each one step under the
#: interpreter lock, so threads opening and closing windows lose none.
_open_windows: "Set[ResourceMonitor]" = set()


def account_rows(rows: int) -> None:
    """Report an intermediate relation / candidate-set cardinality.

    Called by the instrumented engines at phase boundaries (never per
    tuple).  A no-op — one global read, or one context read while some
    monitor counts on another thread — unless a monitor is active; with
    an active monitor it updates the peak and enforces the hard
    cardinality and wall-time budgets in flight.
    """
    if _open_windows:
        monitor = current().monitor
        if monitor is not None:
            monitor.note_rows(rows)


def account_subquery(n: int = 1) -> None:
    """Report ``n`` CQ subqueries issued by an evaluator or a decision
    procedure."""
    if _open_windows:
        monitor = current().monitor
        if monitor is not None:
            monitor.note_subqueries(n)


class ResourceMonitor:
    """Context manager accounting one query execution.

    ::

        with ResourceMonitor(budget) as monitor:
            session_does_work()
        monitor.usage.peak_intermediate_rows

    Entering installs the monitor in the calling context (exiting restores
    the previous one, nested or not) and reads the clocks into
    :meth:`start`; exiting reads them again into :meth:`stop`, which
    finalises the :class:`ResourceUsage` and applies post-hoc hard checks
    (memory — tracemalloc peaks are only meaningful at the end).  A
    :class:`~repro.telemetry.obslog.QueryObservation` calls
    :meth:`start`/:meth:`stop` itself, with the context it installs and
    the clock readings it takes, so an observed query has one of each.
    """

    def __init__(
        self,
        budget: Optional[ResourceBudget] = None,
        trace_memory: Optional[bool] = None,
    ):
        self.budget = budget
        # Memory tracing defaults to on exactly when a memory budget exists.
        self.trace_memory = (
            budget is not None and budget.wants_memory
            if trace_memory is None
            else trace_memory
        )
        self.usage = ResourceUsage()
        self._start_wall = 0.0
        self._start_cpu = 0.0
        self._scope: Optional[scoped] = None
        self._started_tracemalloc = False
        # ``note_rows``/``note_subqueries`` may be called by any thread
        # holding the monitor; the peak and subquery updates are guarded
        # so none are lost.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Accounting hooks (called via account_rows / account_subquery)
    # ------------------------------------------------------------------
    def note_rows(self, rows: int) -> None:
        usage = self.usage
        if rows > usage.peak_intermediate_rows:
            with self._lock:
                if rows > usage.peak_intermediate_rows:
                    usage.peak_intermediate_rows = rows
        budget = self.budget
        if budget is None:
            return
        hard_rows = budget.hard_intermediate_rows
        if hard_rows is not None and rows > hard_rows:
            self._exceeded("intermediate-rows", hard_rows, rows)
        hard_wall = budget.hard_wall_seconds
        if hard_wall is not None:
            elapsed = time.perf_counter() - self._start_wall
            if elapsed > hard_wall:
                self._exceeded("wall-seconds", hard_wall, elapsed)

    def note_subqueries(self, n: int) -> None:
        with self._lock:
            self.usage.subqueries += n

    def _exceeded(
        self, dimension: str, limit: float, observed: float
    ) -> NoReturn:
        raise ResourceBudgetExceeded(
            dimension, limit, observed,
            trace_id=self.usage.trace_id or current_trace_id(),
        )

    # ------------------------------------------------------------------
    # The accounting window
    # ------------------------------------------------------------------
    def start(self, wall: float, cpu: float) -> None:
        """Open the window at the readings ``wall`` (``perf_counter``) and
        ``cpu`` (``process_time``); start tracemalloc when it is asked."""
        if self.trace_memory:
            if tracemalloc.is_tracing():
                tracemalloc.reset_peak()
            else:
                tracemalloc.start()
                self._started_tracemalloc = True
        self._start_wall = wall
        self._start_cpu = cpu
        _open_windows.add(self)

    def stop(self, wall: float, cpu: float, failed: bool) -> None:
        """Close the window at the readings ``wall`` and ``cpu``: finalise
        the usage, record the soft violations and — unless the query has
        ``failed`` already — raise :class:`ResourceBudgetExceeded` for a
        hard limit it went past without an accounting point to catch it
        (memory, and wall time after the last point)."""
        _open_windows.discard(self)
        usage = self.usage
        usage.wall_seconds = wall - self._start_wall
        usage.cpu_seconds = cpu - self._start_cpu
        if self.trace_memory:
            _, peak = tracemalloc.get_traced_memory()
            usage.peak_memory_bytes = peak
            if self._started_tracemalloc:
                tracemalloc.stop()
        budget = self.budget
        if budget is None:
            return
        checks = (
            ("wall-seconds", "%.6f", usage.wall_seconds,
             budget.soft_wall_seconds, budget.hard_wall_seconds),
            ("memory-bytes", "%d", usage.peak_memory_bytes,
             budget.soft_memory_bytes, budget.hard_memory_bytes),
            # The hard cardinality limit is enforced in flight (note_rows).
            ("intermediate-rows", "%d", usage.peak_intermediate_rows,
             budget.soft_intermediate_rows, None),
        )
        for dimension, form, observed, soft, _ in checks:
            if soft is not None and observed is not None and observed > soft:
                usage.soft_violations.append(
                    ("%s " + form + " > soft limit " + form)
                    % (dimension, observed, soft)
                )
        if failed:
            return
        for dimension, _, observed, _, hard in checks:
            if hard is not None and observed is not None and observed > hard:
                self._exceeded(dimension, hard, observed)

    def __enter__(self) -> "ResourceMonitor":
        self._scope = scoped(current()._replace(monitor=self))
        self.usage.trace_id = self._scope.__enter__().trace_id
        self.start(time.perf_counter(), time.process_time())
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        try:
            self.stop(time.perf_counter(), time.process_time(), exc_type is not None)
        finally:
            self._scope.__exit__(exc_type, exc, tb)
            self._scope = None
        return False

    def __repr__(self) -> str:
        return "ResourceMonitor(%r)" % (self.budget,)
