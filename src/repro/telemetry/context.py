"""The per-query context: one :class:`QueryContext` in one ``ContextVar``.

Everything one query execution carries implicitly — the ``trace_id`` that
correlates its spans, obslog lines and budget events; the tracer its
instrumentation records into and the innermost span open there; the
resource monitor its accounting hooks report to; whether the result
cache is bypassed (EXPLAIN ANALYZE) — is one frozen :class:`QueryContext`
held by one :class:`contextvars.ContextVar`:

* :func:`current` reads it (the default context when no query is in
  flight: no trace id, no tracer, no span, no monitor, cache on);
* :class:`scoped` installs a whole replacement for a block and resets by
  token on exit — including on an exception, which matters because a
  ``ThreadPoolExecutor`` worker keeps its context from one job to the next;
* :func:`new_trace_id` mints ids (uuid4, 16 hex chars — short enough to
  read, long enough not to collide within one log).

A context variable is per thread *and* per asyncio task, so two queries
on two threads never see each other's tracer, spans or monitor.  The
sampling profiler reads other threads' contexts, which a ``ContextVar``
does not allow; while one runs it installs a table (thread ident →
context) with :func:`publish_threads`, and every context change writes
its thread's entry.  With no profiler the table is ``None`` and a change
pays one ``is None`` check.

Telemetry stays dependency-light: this module imports only the standard
library and is imported by the tracer, obslog, resources and the profiler.
"""

from __future__ import annotations

import uuid
from contextvars import ContextVar, Token
from threading import get_ident
from typing import Any, Dict, NamedTuple, Optional

__all__ = [
    "QueryContext",
    "current",
    "current_trace_id",
    "new_trace_id",
    "publish_threads",
    "scoped",
]


class QueryContext(NamedTuple):
    """What one query carries implicitly (see the module docstring).

    Immutable: a change is a new context, ``current()._replace(...)``,
    installed with :class:`scoped`.
    """

    trace_id: Optional[str] = None
    #: The recording tracer, or ``None`` (instrumentation then sees the
    #: null tracer through ``current_tracer()``).
    tracer: Any = None
    #: The innermost open span (of any tracer) in this context.
    span: Any = None
    #: The :class:`~repro.telemetry.resources.ResourceMonitor` accounting
    #: hooks report into, or ``None``.
    monitor: Any = None
    #: Set by ``Session.analyze``: serve nothing from the result cache.
    cache_bypass: bool = False


_EMPTY = QueryContext()
_context: ContextVar[QueryContext] = ContextVar("repro_query", default=_EMPTY)

#: The context in flight on this thread (or asyncio task).
current = _context.get

# Thread ident -> that thread's current context, kept only while a
# sampling profiler runs (see publish_threads).
_threads: Optional[Dict[int, QueryContext]] = None


def current_trace_id() -> Optional[str]:
    """The trace id of the query in flight here, or None."""
    return _context.get().trace_id


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id."""
    return uuid.uuid4().hex[:16]


class scoped:
    """``with scoped(context):`` runs the block under ``context``.

    The whole context is replaced — build the new one from the old,
    ``scoped(current()._replace(trace_id=t))`` — and the previous one is
    restored by token on exit, whatever the block raised.  Objects whose
    own ``__enter__``/``__exit__`` scope a context (resource monitors,
    query observations) hold one of these and call through.
    """

    __slots__ = ("context", "_token")

    def __init__(self, context: QueryContext):
        self.context = context

    def __enter__(self) -> QueryContext:
        self._token = _enter(self.context)
        return self.context

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        _exit(self._token)
        return False


# The two halves of ``scoped``, also called directly by a recorded span,
# which holds its own token (one allocation less per span).
def _enter(context: QueryContext) -> Token:
    token = _context.set(context)
    threads = _threads
    if threads is not None:
        _publish(threads, context)
    return token


def _exit(token: Token) -> None:
    _context.reset(token)
    threads = _threads
    if threads is not None:
        _publish(threads, _context.get())


def _publish(threads: Dict[int, QueryContext], context: QueryContext) -> None:
    if context is _EMPTY:
        threads.pop(get_ident(), None)
    else:
        threads[get_ident()] = context


def publish_threads(
    table: Optional[Dict[int, QueryContext]],
) -> Optional[Dict[int, QueryContext]]:
    """Install (or, with ``None``, remove) the thread ident → context
    table every context change then writes; returns the table installed
    before.  The sampling profiler's hook: it reads the sampled thread's
    trace id and innermost span from here.  A thread appears once its
    context changes after the install."""
    global _threads
    previous = _threads
    _threads = table
    return previous
