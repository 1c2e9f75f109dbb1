"""Structured query-event log (JSON lines) with slow-query capture.

The operator-facing view of the query path: a :class:`QueryLog` receives
one JSON-serialisable record per lifecycle event —

* ``query.start`` — operation and query text preview;
* ``query.parse`` — the **stable query ID** (a prefix of the WDPT's
  structural fingerprint, so the same query shape gets the same ID across
  sessions and textual variants) plus parse/profile cache hits;
* ``query.plan`` — engine chosen, theorem justification,
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

:class:`QueryObservation` is the one object that observes a session
operation: one context install (trace id, the slow-capture tracer when
one is needed, the :class:`~repro.telemetry.resources.ResourceMonitor`),
one clock reading at each end, the events above, and the session's
:class:`LiveQueries` entry.  ``Session.query``/``query_maximal``/``ask``
construct one per call when observability is configured — and skip all
of it (one ``is None`` check) when it is not.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Union

from .context import current, current_trace_id, new_trace_id, scoped
from .profiler import current_profiler
from .resources import ResourceMonitor
from .tracer import Tracer

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
#: Operations run by the top-down evaluator: the route named for them is
#: the query route, not the Theorem 6 DP that ``ask`` runs.
_QUERY_OPS = ("query", "query_maximal")

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
    max_bytes / backup_count:
        Size-based rotation for **path sinks** (a long-lived
        ``serve --log-queries`` daemon must not grow one file
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
        max_bytes: Optional[int] = None,
        backup_count: int = 3,
    ):
        self.slow_threshold = slow_threshold
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

        When a trace context is active on the emitting thread
        (:mod:`repro.telemetry.context`), the record is stamped with its
        ``trace_id`` — the correlation key that ties a query's obslog
        lines, spans, and resource accounting together.
        """
        if "trace_id" not in fields:
            trace_id = current_trace_id()
            if trace_id is not None:
                fields["trace_id"] = trace_id
        record: Dict[str, Any] = {
            "event": event,
            "ts": self._clock(),
            "seq": 0,  # assigned under the lock below
            "schema": OBSLOG_SCHEMA,
        }
        record.update(fields)
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
        return record

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


class LiveQueries:
    """A session's live-query registry, the ``/debug/queries`` payload: the
    observations inside their ``with`` block, and the last :attr:`SIZE`
    finished ones.  Each :class:`QueryObservation` reports here on entry
    and on exit."""

    #: How many finished queries the registry retains.
    SIZE = 64

    def __init__(self, tenant: Optional[str] = None):
        self.tenant = tenant
        self._running: Dict[int, "QueryObservation"] = {}
        self._recent: Deque[Dict[str, Any]] = deque(maxlen=self.SIZE)
        self._lock = threading.Lock()

    def started(self, obs: "QueryObservation") -> None:
        with self._lock:
            self._running[id(obs)] = obs

    def finished(
        self, obs: "QueryObservation", wall: float, error: Optional[str]
    ) -> None:
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
        with self._lock:
            self._running.pop(id(obs), None)
            self._recent.append(record)

    def snapshot(self) -> Dict[str, Any]:
        """Queries executing now (trace id, elapsed seconds since their
        observation's start reading) plus the recent ring."""
        now = time.perf_counter()
        tenant = {"tenant": self.tenant} if self.tenant else {}
        with self._lock:
            in_flight = [
                {
                    "op": obs.op,
                    "query_id": obs.query_id,
                    "trace_id": obs.trace_id,
                    "elapsed_seconds": max(0.0, now - obs.wall_start),
                    **tenant,
                }
                for obs in self._running.values()
            ]
            recent = list(self._recent)
        return {"in_flight": in_flight, "recent": recent}


class QueryObservation:
    """Observe one ``Session`` operation: the one object that does.

    Entering installs the query's context once — its trace id (the
    caller's, or a fresh one), the recording tracer slow-query capture
    needs, and the session's :class:`ResourceMonitor` when it accounts
    resources, in a single :class:`~repro.telemetry.context.scoped` — and
    reads the wall clock (``perf_counter``) once at each end, the CPU
    clock too when a monitor runs.  That one wall time is the
    ``ResourceUsage``'s, the obslog records' and the ``/debug/queries``
    entry's.  The session entry points use it as a context manager::

        obs = QueryObservation(session, "query", raw_query)
        with obs:
            ... parse; obs.parsed(p); obs.cache("miss"); evaluate ...
            obs.finish(n_rows, result)

    and on a clean exit it attaches the usage (and, while a sampling
    profiler runs, this trace's samples) to ``result``.
    """

    def __init__(self, session, op: str, raw_query: Any):
        self.session = session
        self.op = op
        self.log: Optional[QueryLog] = session.obslog
        self.raw_query = raw_query
        self.query = None
        self.query_id: Optional[str] = None
        self.n_rows: Optional[int] = None
        self.result = None
        self.monitor: Optional[ResourceMonitor] = None
        if session.budgets is not None or session.track_resources:
            self.monitor = ResourceMonitor(session.budgets)
        self.usage = None if self.monitor is None else self.monitor.usage
        self.trace_id: Optional[str] = None
        self.cache_outcome: Optional[str] = None  # "hit"/"miss", see cache()
        #: The ``perf_counter`` reading the query's wall time runs from.
        self.wall_start = 0.0
        self._scope: Optional[scoped] = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "QueryObservation":
        # One trace id per top-level query: reuse the caller's or mint one.
        # Slow-query capture needs a recorded trace to build the EXPLAIN
        # ANALYZE profile from; record into a fresh tracer if none is on.
        # All of it, and the monitor, live in this query's context only.
        context = current()
        log, monitor = self.log, self.monitor
        tracer = context.tracer
        if (
            log is not None and log.slow_threshold is not None
            and not getattr(tracer, "enabled", False)
        ):
            tracer = Tracer()
        self.trace_id = context.trace_id or new_trace_id()
        self._scope = scoped(context._replace(
            trace_id=self.trace_id, tracer=tracer,
            monitor=context.monitor if monitor is None else monitor,
        ))
        self._scope.__enter__()
        try:
            if log is not None:
                planner = self.session.planner
                self._cache_baseline = (
                    planner.parses.hits, planner.parses.misses,
                    planner.profiles.hits, planner.profiles.misses,
                )
                preview = (
                    self.raw_query
                    if isinstance(self.raw_query, str)
                    else repr(self.raw_query)
                )
                log.emit("query.start", op=self.op, query=preview[:200])
            self.wall_start = time.perf_counter()
            if monitor is not None:
                monitor.usage.trace_id = self.trace_id
                monitor.start(self.wall_start, time.process_time())
            self.session.live_queries.started(self)
        except BaseException as exc:
            # Never leave the scope set: a pool thread runs the next job
            # in whatever context this one leaves behind.
            self._scope.__exit__(type(exc), exc, exc.__traceback__)
            raise
        return self

    def parsed(self, p) -> None:
        """Called by the session once the WDPT (and its profile) exist."""
        self.query = p
        self.query_id = p.structural_fingerprint()[:16]
        if self.log is None:
            return
        planner = self.session.planner
        parse_hits, parse_misses, profile_hits, profile_misses = self._cache_baseline
        self.log.emit(
            "query.parse",
            op=self.op,
            query_id=self.query_id,
            # Per-call deltas: did *this* query hit the parse/profile caches?
            parse_cache={
                "hits": planner.parses.hits - parse_hits,
                "misses": planner.parses.misses - parse_misses,
            },
            profile_cache={
                "hits": planner.profiles.hits - profile_hits,
                "misses": planner.profiles.misses - profile_misses,
            },
        )
        profile = planner.explain_wdpt(p)
        self.log.emit(
            "query.plan",
            op=self.op,
            query_id=self.query_id,
            engine=OP_ENGINES.get(self.op, self.op),
            theorem=self._route(profile),
            classes={
                "local_treewidth": profile.local_treewidth,
                "interface_width": profile.interface_width,
                "global_treewidth": profile.global_treewidth,
                "global_hypertreewidth": profile.global_hypertreewidth,
                "projection_free": profile.projection_free,
            },
        )

    def cache(self, outcome: str) -> None:
        """Called by the session with the result cache's answer, ``"hit"``
        or ``"miss"``: kept for ``/debug/queries``, logged as
        ``query.cache``."""
        self.cache_outcome = outcome
        if self.log is not None:
            self.log.emit(
                "query.cache", op=self.op, query_id=self.query_id, outcome=outcome
            )

    def _route(self, profile) -> str:
        """The theorem licensing this operation's algorithm on ``profile``."""
        if self.op in _PARTIAL_EVAL_OPS:
            return profile.partial_eval_route()
        if self.op in _QUERY_OPS:
            return profile.query_route(maximal=self.op == "query_maximal")
        return profile.eval_route()

    def finish(self, n_rows: int, result=None) -> None:
        """Called by the session with the row count and the ``Result``
        (if any) to attach the usage and profile samples to on exit."""
        self.n_rows = n_rows
        self.result = result

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        wall = end - self.wall_start
        monitor = self.monitor
        if monitor is not None:
            # May raise ResourceBudgetExceeded (post-hoc hard limits); run
            # it first so the usage is finalised for the log records, and
            # re-enter the normal flow with the budget error as `exc`.
            try:
                monitor.stop(end, time.process_time(), exc_type is not None)
            except Exception as budget_exc:  # noqa: BLE001 - re-raised below
                exc_type, exc = type(budget_exc), budget_exc
        try:
            self._emit_exit_events(wall, exc_type, exc)
        finally:
            self._scope.__exit__(exc_type, exc, tb)
            self._scope = None
            self.session.live_queries.finished(
                self, wall, None if exc_type is None else exc_type.__name__
            )
        if exc is not None and tb is None:
            raise exc  # a post-hoc hard-budget violation from the monitor
        result = self.result
        if exc_type is None and result is not None:
            result.resources = self.usage
            profiler = current_profiler()
            if profiler is not None and profiler.running:
                result.profile_samples = profiler.samples_for_trace(self.trace_id)
        return False

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

    def _build_report(self):
        """The EXPLAIN ANALYZE report of this run — ``None`` unless a
        recording tracer observed the execution."""
        tracer = current().tracer
        if not getattr(tracer, "enabled", False):
            return None
        from ..analyze import build_report

        return build_report(
            self.query, self.session.planner.explain_wdpt(self.query), tracer,
            n_answers=self.n_rows, mode=self.op,
        )

    def _slow_record(self, wall: float) -> Dict[str, Any]:
        """The ``query.slow`` payload: plan + per-node EXPLAIN ANALYZE —
        plus, when a sampling profiler is running, the profile digest of
        this query's trace (hottest stacks, per-phase sample counts)
        under ``profile_samples``, so a slow query's flamegraph evidence
        lands in the same record as its plan."""
        planner = self.session.planner
        profile = planner.explain_wdpt(self.query)
        report = self._build_report()
        record = {
            "op": self.op,
            "query_id": self.query_id,
            "threshold_seconds": self.log.slow_threshold,
            "wall_seconds": wall,
            "engine": OP_ENGINES.get(self.op, self.op),
            "theorem": self._route(profile),
            "profile": {
                "fingerprint": profile.fingerprint,
                "eval_route": profile.eval_route(),
                "nodes": report.rows if report is not None else [],
                "stages": report.stages if report is not None else {},
            },
        }
        profiler = current_profiler()
        if profiler is not None and profiler.running:
            record["profile_samples"] = profiler.trace_summary(self.trace_id)
        return record
