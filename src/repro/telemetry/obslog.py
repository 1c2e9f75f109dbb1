"""Structured query-event log (JSON lines) with slow-query capture.

The operator-facing view of the query path: a :class:`QueryLog` receives
one JSON-serialisable record per lifecycle event —

* ``query.start`` — operation and query text preview;
* ``query.parse`` — the **stable query ID** (a prefix of the WDPT's
  structural fingerprint, so the same query shape gets the same ID across
  sessions and textual variants) plus parse/profile cache hits;
* ``query.plan`` — engine chosen, the relational kernel its CQ checks
  resolve to (``sql``/``columnar``), theorem justification,
  and the class memberships the routing was derived from (local
  treewidth, interface width, global treewidth, projection-freeness);
* ``query.complete`` — row count, wall/CPU seconds, resource usage;
* ``query.budget`` — a soft resource budget was exceeded (warning);
* ``query.error`` — the exception type and message;
* ``query.slow`` — emitted *in addition to* ``query.complete`` when the
  query ran longer than ``slow_threshold`` seconds; carries the full
  EXPLAIN ANALYZE profile (per-node static routing joined with the
  measured per-node trace) so the slow query can be diagnosed without
  re-running it — and, when a sampling profiler
  (:mod:`repro.telemetry.profiler`) is running, a ``profile_samples``
  digest of the query's hottest stacks keyed by the same ``trace_id``;
* ``cache.carry`` — one per write made through the session that moved
  the data version: how many facts it wrote, how many cached queries the
  touch test probed, how many result-cache entries were carried across
  the write and how many dropped;
* ``log.rotated`` — a path sink reached ``max_bytes`` and was rotated
  (first record of each fresh file).

Records go to a sink (file path, file object, or callable) as JSON lines
and into a bounded in-memory ring (:meth:`QueryLog.recent`) for
programmatic access and tests.  :func:`validate_obslog` schema-checks a
log (shared with ``scripts/validate_trace.py``).

:class:`QueryObservation` is the session-side orchestrator: it installs a
recording tracer when slow-query capture needs one, runs the query under a
:class:`~repro.telemetry.resources.ResourceMonitor`, and emits the events
above.  ``Session.query``/``query_maximal``/``ask`` construct one per call
when observability is configured — and skip all of it (one ``is None``
check) when it is not.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from .context import (
    current_trace_id,
    current_worker_id,
    ensure_trace_id,
    set_trace_context,
)
from .insight import DEFAULT_MISESTIMATE_QERROR
from .resources import ResourceMonitor
from .tracer import NULL_TRACER, Tracer, current_tracer, set_tracer

#: Schema version stamped on every record.
OBSLOG_SCHEMA = 1

#: Keys every obslog record must carry.
REQUIRED_KEYS = ("event", "ts", "seq", "schema")

#: Events that must reference a query (and therefore carry ``query_id``).
_QUERY_ID_EVENTS = ("query.parse", "query.plan", "query.complete", "query.slow")

#: The counts of a ``cache.carry`` record (one per session write).
_CARRY_COUNTS = ("facts", "probed", "carried", "dropped")

#: ``Session`` operation → engine identifier recorded in the log.
OP_ENGINES = {
    "query": "wdpt-topdown",
    "query_maximal": "wdpt-topdown-max",
    "ask": "wdpt-dp",
    "is_partial": "wdpt-partial",
    "is_maximal": "wdpt-max",
}

#: Operations decided by the Theorem 8/9 procedures: the route the log
#: names for them is the PARTIAL/MAX-EVAL one, not the EVAL one.
_PARTIAL_EVAL_OPS = ("is_partial", "is_maximal")

Sink = Union[None, str, io.IOBase, Callable[[Dict[str, Any]], None]]


class QueryLog:
    """A structured JSON-lines query log.

    Parameters
    ----------
    sink:
        Where records go: a file path (opened for append), a file-like
        object with ``write``, a callable receiving the record dict, or
        ``None`` (ring buffer only).
    slow_threshold:
        Wall-clock seconds above which a ``query.slow`` record with the
        full EXPLAIN ANALYZE profile is emitted; ``None`` disables
        slow-query capture (and the tracer it requires).
    ring_size:
        How many recent records :meth:`recent` retains.
    misestimate_threshold:
        Per-node q-error above which a ``misestimate.detected`` record is
        emitted alongside ``query.complete`` (needs slow-query capture's
        recording tracer for the measured side).
    max_bytes / backup_count:
        Size-based rotation for **path sinks** (a long-lived
        ``serve-metrics --log-queries`` daemon must not grow one file
        unboundedly): once the file reaches ``max_bytes``, it is renamed
        to ``<path>.1`` (existing backups shift to ``.2`` … up to
        ``backup_count``, the oldest dropped) and a fresh file starts
        with a ``log.rotated`` event as its first record.  ``max_bytes=None``
        (default) disables rotation; non-path sinks ignore it.
    """

    def __init__(
        self,
        sink: Sink = None,
        slow_threshold: Optional[float] = None,
        ring_size: int = 256,
        clock: Callable[[], float] = time.time,
        misestimate_threshold: float = DEFAULT_MISESTIMATE_QERROR,
        max_bytes: Optional[int] = None,
        backup_count: int = 3,
    ):
        self.slow_threshold = slow_threshold
        self.misestimate_threshold = misestimate_threshold
        self.max_bytes = max_bytes
        self.backup_count = max(0, int(backup_count))
        self._clock = clock
        self._seq = 0
        self._lock = threading.Lock()
        self._ring: List[Dict[str, Any]] = []
        self._ring_size = ring_size
        self._owns_handle = False
        self._write: Optional[Callable[[str], None]] = None
        self._call: Optional[Callable[[Dict[str, Any]], None]] = None
        self._path: Optional[str] = None
        self._bytes = 0
        if sink is None:
            pass
        elif callable(sink) and not hasattr(sink, "write"):
            self._call = sink
        elif hasattr(sink, "write"):
            self._write = sink.write  # type: ignore[union-attr]
        else:
            handle = open(sink, "a")  # type: ignore[arg-type]
            self._owns_handle = True
            self._handle = handle
            self._write = handle.write
            self._path = str(sink)
            try:
                self._bytes = os.path.getsize(self._path)
            except OSError:
                self._bytes = 0

    def emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Record one event; returns the complete record.

        Events emitted from inside a :mod:`repro.parallel` pool worker are
        stamped with the worker's id as ``worker`` (``t1``/``t2``… for
        threads, ``p<pid>`` for processes), so interleaved batch logs can
        be attributed; the id lives beside the trace context
        (:func:`~repro.telemetry.context.current_worker_id`).

        When a trace context is active on the emitting thread
        (:mod:`repro.telemetry.context`), the record is stamped with its
        ``trace_id`` — the correlation key that ties a query's obslog
        lines, spans, and resource accounting together across workers.
        """
        if "worker" not in fields:
            worker = current_worker_id()
            if worker is not None:
                fields["worker"] = worker
        if "trace_id" not in fields:
            trace_id = current_trace_id()
            if trace_id is not None:
                fields["trace_id"] = trace_id
        record: Dict[str, Any] = {
            "event": event,
            "ts": self._clock(),
            "seq": 0,  # assigned under the lock by _append
            "schema": OBSLOG_SCHEMA,
        }
        record.update(fields)
        self._append(record)
        return record

    def _append(self, record: Dict[str, Any]) -> None:
        """Sequence ``record`` and push it to the ring and the sink."""
        with self._lock:
            if (
                self._path is not None
                and self.max_bytes is not None
                and self._write is not None
                and self._bytes >= self.max_bytes
            ):
                self._rotate_locked()
            self._seq += 1
            record["seq"] = self._seq
            self._push_locked(record)

    def _push_locked(self, record: Dict[str, Any]) -> None:
        self._ring.append(record)
        if len(self._ring) > self._ring_size:
            del self._ring[: len(self._ring) - self._ring_size]
        if self._write is not None:
            line = json.dumps(record, default=repr) + "\n"
            self._write(line)
            self._bytes += len(line)
        if self._call is not None:
            self._call(record)

    def _rotate_locked(self) -> None:
        """Close the current file, shift ``<path>.N`` backups, start a
        fresh file whose first record is a ``log.rotated`` event."""
        rotated_bytes = self._bytes
        self._handle.close()
        rotated_to: Optional[str] = None
        if self.backup_count > 0:
            for n in range(self.backup_count - 1, 0, -1):
                older = "%s.%d" % (self._path, n)
                if os.path.exists(older):
                    os.replace(older, "%s.%d" % (self._path, n + 1))
            rotated_to = self._path + ".1"
            os.replace(self._path, rotated_to)
            mode = "a"
        else:
            mode = "w"  # no backups kept: truncate in place
        handle = open(self._path, mode)
        self._handle = handle
        self._write = handle.write
        self._bytes = 0
        self._seq += 1
        self._push_locked({
            "event": "log.rotated",
            "ts": self._clock(),
            "seq": self._seq,
            "schema": OBSLOG_SCHEMA,
            "rotated_to": rotated_to,
            "rotated_bytes": rotated_bytes,
            "max_bytes": self.max_bytes,
            "backup_count": self.backup_count,
        })

    def absorb(self, records: Iterable[Dict[str, Any]]) -> int:
        """Fold records shipped back from a process worker into this log.

        Each record keeps its original fields — event, timestamp,
        ``trace_id``, ``worker`` — but is re-sequenced locally (``seq`` is
        per-log, and the worker's counter means nothing here).  Returns
        how many records were absorbed.  This is how ``run_batch`` makes
        one obslog tell the whole story of a process-fanned batch.
        """
        count = 0
        for record in records:
            if not isinstance(record, dict) or "event" not in record:
                continue
            copied = dict(record)
            copied["schema"] = OBSLOG_SCHEMA
            copied.setdefault("ts", self._clock())
            self._append(copied)
            count += 1
        return count

    def recent(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        """The most recent ``n`` records (all retained ones by default)."""
        with self._lock:
            records = list(self._ring)
        return records if n is None else records[-n:]

    def events(self, name: str) -> List[Dict[str, Any]]:
        """The retained records of one event type."""
        return [r for r in self.recent() if r["event"] == name]

    def bound(self, **fields: Any) -> "BoundQueryLog":
        """A view of this log that stamps ``fields`` into every record.

        The multi-tenant query service hands each tenant's session a
        ``log.bound(tenant="acme")`` view of one shared service log, so
        every lifecycle event a session emits carries its tenant without
        the engine knowing tenancy exists.  Views are cheap (no separate
        ring or sink) and nest: ``log.bound(a=1).bound(b=2)`` stamps both.
        """
        return BoundQueryLog(self, fields)

    def close(self) -> None:
        if self._owns_handle:
            self._handle.close()
            self._write = None
            self._owns_handle = False

    def __repr__(self) -> str:
        return "QueryLog(%d records, slow_threshold=%r)" % (
            self._seq, self.slow_threshold,
        )


class BoundQueryLog:
    """A :class:`QueryLog` proxy stamping fixed fields into every emit.

    Everything else — ``slow_threshold``, ``recent()``, ``absorb()``,
    rotation — delegates to the underlying log, so a bound view is a
    drop-in ``Session(obslog=...)`` argument.  Explicit per-event fields
    win over the bound ones.
    """

    __slots__ = ("_log", "_fields")

    def __init__(self, log: QueryLog, fields: Dict[str, Any]):
        self._log = log
        self._fields = dict(fields)

    @property
    def base(self) -> QueryLog:
        """The underlying shared log."""
        return self._log

    @property
    def bound_fields(self) -> Dict[str, Any]:
        return dict(self._fields)

    def emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        merged = dict(self._fields)
        merged.update(fields)
        return self._log.emit(event, **merged)

    def bound(self, **fields: Any) -> "BoundQueryLog":
        merged = dict(self._fields)
        merged.update(fields)
        return BoundQueryLog(self._log, merged)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._log, name)

    def __repr__(self) -> str:
        return "BoundQueryLog(%r, %r)" % (self._fields, self._log)


def validate_obslog(lines: Iterable[str]) -> List[str]:
    """Schema errors for a JSON-lines query log (empty list = valid).

    Shared by ``scripts/validate_trace.py --format obslog``: an empty log
    is an error (no events usually means broken wiring), every line must
    be a JSON object carrying the required keys with the right types, and
    query-scoped events must name their stable ``query_id``.
    """
    errors: List[str] = []
    count = 0
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        count += 1
        try:
            record = json.loads(line)
        except ValueError as exc:
            errors.append("line %d: not valid JSON: %s" % (lineno, exc))
            continue
        if not isinstance(record, dict):
            errors.append("line %d: not a JSON object" % lineno)
            continue
        for key in REQUIRED_KEYS:
            if key not in record:
                errors.append("line %d: missing key %r" % (lineno, key))
        event = record.get("event")
        if not isinstance(event, str) or not event:
            errors.append("line %d: 'event' must be a non-empty string" % lineno)
            continue
        if "ts" in record and not isinstance(record["ts"], (int, float)):
            errors.append("line %d: 'ts' must be numeric" % lineno)
        if "seq" in record and not isinstance(record["seq"], int):
            errors.append("line %d: 'seq' must be an integer" % lineno)
        if event in _QUERY_ID_EVENTS:
            qid = record.get("query_id")
            if not isinstance(qid, str) or not qid:
                errors.append(
                    "line %d: %s event must carry a non-empty 'query_id'"
                    % (lineno, event)
                )
        if event == "query.slow":
            profile = record.get("profile")
            if not isinstance(profile, dict) or "nodes" not in profile:
                errors.append(
                    "line %d: query.slow must carry a 'profile' with 'nodes'"
                    % lineno
                )
            samples = record.get("profile_samples")
            if samples is not None and (
                not isinstance(samples, dict)
                or not isinstance(samples.get("samples"), int)
            ):
                errors.append(
                    "line %d: query.slow 'profile_samples' must be a dict "
                    "with an integer 'samples' count" % lineno
                )
        if event == "cache.carry":
            for key in _CARRY_COUNTS:
                if not isinstance(record.get(key), int):
                    errors.append(
                        "line %d: cache.carry must carry an integer %r"
                        % (lineno, key)
                    )
        if event == "log.rotated" and not isinstance(
            record.get("max_bytes"), (int, float)
        ):
            errors.append(
                "line %d: log.rotated must carry numeric 'max_bytes'" % lineno
            )
    if count == 0:
        errors.append("log is empty: no events were recorded")
    return errors


class QueryObservation:
    """Observe one ``Session`` operation: events, resources, slow capture.

    Used as a context manager by the session entry points::

        obs = QueryObservation(session, "query", raw_query)
        with obs:
            ... parse; obs.parsed(p); evaluate ...
            obs.finish(p, n_rows)
        result.resources = obs.usage
    """

    def __init__(self, session, op: str, raw_query: Any):
        self.session = session
        self.op = op
        self.log: Optional[QueryLog] = session.obslog
        self.raw_query = raw_query
        self.query = None
        self.query_id: Optional[str] = None
        self.n_rows: Optional[int] = None
        self.monitor: Optional[ResourceMonitor] = None
        self.usage = None
        self.trace_id: Optional[str] = None
        self.cache_outcome: Optional[str] = None  # "hit"/"miss", set by Session
        self._plan_kernel: Optional[str] = None
        self._report = None  # memoized EXPLAIN ANALYZE (slow + misestimate)
        self._owns_trace = False
        self._tracer: Optional[Tracer] = None
        self._previous_tracer = None
        self._start = 0.0
        self._finished = False
        self._cache_baseline: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def _slow_capture(self) -> bool:
        return self.log is not None and self.log.slow_threshold is not None

    def __enter__(self) -> "QueryObservation":
        # One trace id per top-level query: reuse an ambient context (a
        # batch established one) or mint and own a fresh one.
        self.trace_id, self._owns_trace = ensure_trace_id()
        # Slow-query capture needs a recorded trace to build the EXPLAIN
        # ANALYZE profile from; install a fresh tracer only if none is on.
        if self._slow_capture() and current_tracer() is NULL_TRACER:
            self._tracer = Tracer()
            self._previous_tracer = set_tracer(self._tracer)
        budget = self.session.budgets
        if budget is not None or self.session.track_resources:
            self.monitor = ResourceMonitor(budget)
            self.monitor.__enter__()
        planner = self.session.planner
        self._cache_baseline = {
            "parse_hits": planner.parses.hits,
            "parse_misses": planner.parses.misses,
            "profile_hits": planner.profiles.hits,
            "profile_misses": planner.profiles.misses,
        }
        if self.log is not None:
            preview = (
                self.raw_query
                if isinstance(self.raw_query, str)
                else repr(self.raw_query)
            )
            self.log.emit("query.start", op=self.op, query=preview[:200])
        self._start = time.perf_counter()
        started = getattr(self.session, "_query_started", None)
        if started is not None:  # the session's /debug/queries registry
            started(self)
        return self

    def parsed(self, p) -> None:
        """Called by the session once the WDPT (and its profile) exist."""
        self.query = p
        self.query_id = p.structural_fingerprint()[:16]
        if self._plan_kernel is None:
            from ..relalg.config import choose_kernel

            self._plan_kernel = choose_kernel(self.session.database)
        if self.log is None:
            return
        planner = self.session.planner
        baseline = self._cache_baseline
        self.log.emit(
            "query.parse",
            op=self.op,
            query_id=self.query_id,
            # Per-call deltas: did *this* query hit the parse/profile caches?
            parse_cache={
                "hits": planner.parses.hits - baseline["parse_hits"],
                "misses": planner.parses.misses - baseline["parse_misses"],
            },
            profile_cache={
                "hits": planner.profiles.hits - baseline["profile_hits"],
                "misses": planner.profiles.misses - baseline["profile_misses"],
            },
        )
        profile = planner.explain_wdpt(p)
        estimate = None
        try:
            whole_query = planner.estimate_for_profile(
                profile.tree_profile.global_profile, self.session.database
            )
            if whole_query is not None:
                estimate = whole_query.as_dict()
        except Exception:  # estimation must never break the query path
            estimate = None
        self.log.emit(
            "query.plan",
            op=self.op,
            query_id=self.query_id,
            engine=OP_ENGINES.get(self.op, self.op),
            kernel=self._plan_kernel,
            theorem=self._route(profile),
            estimate=estimate,
            classes={
                "local_treewidth": profile.local_treewidth,
                "interface_width": profile.interface_width,
                "global_treewidth": profile.global_treewidth,
                "global_hypertreewidth": profile.global_hypertreewidth,
                "projection_free": profile.projection_free,
            },
        )

    def _route(self, profile) -> str:
        """The theorem licensing this operation's algorithm on ``profile``."""
        if self.op in _PARTIAL_EVAL_OPS:
            return profile.partial_eval_route()
        return profile.eval_route()

    def finish(self, p, n_rows: int) -> None:
        """Called by the session with the parsed query and the row count."""
        if self.query is None:
            self.parsed(p)
        self.n_rows = n_rows
        self._finished = True

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = time.perf_counter() - self._start
        if self.monitor is not None:
            # May raise ResourceBudgetExceeded (post-hoc hard limits); run
            # it first so the usage is finalised for the log records, and
            # re-enter the normal flow with the budget error as `exc`.
            self.usage = self.monitor.usage
            try:
                self.monitor.__exit__(exc_type, exc, tb)
            except Exception as budget_exc:  # noqa: BLE001 - re-raised below
                exc_type, exc = type(budget_exc), budget_exc
        try:
            self._emit_exit_events(wall, exc_type, exc)
            self._record_stats(wall, exc_type)
        finally:
            finished = getattr(self.session, "_query_finished", None)
            if finished is not None:
                finished(
                    self, wall,
                    None if exc_type is None else exc_type.__name__,
                )
            if self._tracer is not None:
                set_tracer(self._previous_tracer)
            if self._owns_trace:
                set_trace_context(None, None)
        if exc is not None and tb is None:
            raise exc  # a post-hoc hard-budget violation from the monitor
        return False

    def _record_stats(self, wall: float, exc_type) -> None:
        """Fold this execution into the session's stats store (if any)."""
        store = getattr(self.session, "stats_store", None)
        if store is None or self.query_id is None or exc_type is not None:
            return
        max_q_error = None
        if self._report is not None:
            summary = self._report.q_error_summary()
            if summary["count"]:
                max_q_error = summary["max"]
        store.record(
            self.query_id,
            wall_seconds=wall,
            rows=self.n_rows or 0,
            engine=OP_ENGINES.get(self.op, self.op),
            kernel=self._plan_kernel,
            cache_hit=(
                None if self.cache_outcome is None else self.cache_outcome == "hit"
            ),
            max_q_error=max_q_error,
        )

    # ------------------------------------------------------------------
    def _emit_exit_events(self, wall: float, exc_type, exc) -> None:
        log = self.log
        if log is None:
            return
        usage = self.usage
        if usage is not None and usage.soft_violations:
            log.emit(
                "query.budget",
                op=self.op,
                query_id=self.query_id,
                violations=list(usage.soft_violations),
            )
        if exc_type is not None:
            log.emit(
                "query.error",
                op=self.op,
                query_id=self.query_id,
                error=exc_type.__name__,
                message=str(exc),
                wall_seconds=wall,
            )
            return
        record: Dict[str, Any] = {
            "op": self.op,
            "query_id": self.query_id,
            "rows": self.n_rows,
            "wall_seconds": wall,
        }
        if usage is not None:
            record["cpu_seconds"] = usage.cpu_seconds
            record["resources"] = usage.as_dict()
        log.emit("query.complete", **record)
        threshold = log.slow_threshold
        if threshold is not None and wall >= threshold and self.query is not None:
            log.emit("query.slow", **self._slow_record(wall))
        self._emit_misestimate(log)

    def _emit_misestimate(self, log: QueryLog) -> None:
        """``misestimate.detected``: some node's q-error crossed the
        threshold.  Needs the recorded trace for the measured side, so it
        only fires in slow-capture mode (or under an ambient tracer)."""
        report = self._build_report()
        if report is None:
            return
        summary = report.q_error_summary()
        if not summary["count"] or summary["max"] <= log.misestimate_threshold:
            return
        worst = max(
            (row for row in report.rows if row.get("q_error") is not None),
            key=lambda row: row["q_error"],
        )
        log.emit(
            "misestimate.detected",
            op=self.op,
            query_id=self.query_id,
            threshold=log.misestimate_threshold,
            max_q_error=summary["max"],
            p50_q_error=summary["p50"],
            p95_q_error=summary["p95"],
            node=worst["node"],
            est_rows=worst["est_rows"],
            est_method=worst["est_method"],
            actual_rows=worst["candidates"],
        )

    def _build_report(self):
        """The EXPLAIN ANALYZE report of this run, built at most once —
        ``None`` unless a recording tracer observed the execution."""
        if self._report is not None:
            return self._report
        if self.query is None:
            return None
        tracer = self._tracer if self._tracer is not None else current_tracer()
        if not getattr(tracer, "enabled", False) or tracer is NULL_TRACER:
            return None
        from ..analyze import build_report

        planner = self.session.planner
        profile = planner.explain_wdpt(self.query)
        self._report = build_report(
            self.query, profile, tracer, planner,
            n_answers=self.n_rows, mode=self.op,
            db=self.session.database,
        )
        return self._report

    def _slow_record(self, wall: float) -> Dict[str, Any]:
        """The ``query.slow`` payload: plan + per-node EXPLAIN ANALYZE —
        plus, when a sampling profiler is running, the profile digest of
        this query's trace (hottest stacks, per-phase sample counts)
        under ``profile_samples``, so a slow query's flamegraph evidence
        lands in the same record as its plan."""
        planner = self.session.planner
        profile = planner.explain_wdpt(self.query)
        report = self._build_report()
        summary = report.q_error_summary() if report is not None else None
        record = {
            "op": self.op,
            "query_id": self.query_id,
            "threshold_seconds": self.log.slow_threshold,
            "wall_seconds": wall,
            "engine": OP_ENGINES.get(self.op, self.op),
            "theorem": self._route(profile),
            "q_error": summary,
            "profile": {
                "fingerprint": profile.fingerprint,
                "eval_route": profile.eval_route(),
                "nodes": report.rows if report is not None else [],
                "stages": report.stages if report is not None else {},
            },
        }
        from .profiler import current_profiler

        profiler = current_profiler()
        if profiler is not None and profiler.running:
            record["profile_samples"] = profiler.trace_summary(self.trace_id)
        return record
