"""Trace-correlation context: one ``trace_id`` per top-level query.

A trace id names one logical query execution end to end: every span,
obslog line, and resource-budget event it produces carries the same id,
so operators can stitch the pieces back together after the fact
(``grep trace_id=… query-log.jsonl``).

The context is a plain thread-local, mirroring
:func:`repro.telemetry.resources.current_monitor`:

* :func:`current_trace_id` / :func:`current_span_id` read it (None when
  no query is in flight),
* :func:`set_trace_context` installs it and returns the previous pair,
* :func:`trace_context` is the scoped form,
* :func:`new_trace_id` mints ids (uuid4, 16 hex chars — short enough to
  read, long enough not to collide within one log).

Telemetry stays dependency-light: this module imports only the standard
library and is imported by obslog, resources, and the profiler.
"""

from __future__ import annotations

import threading
import uuid
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

__all__ = [
    "current_trace_id",
    "current_span_id",
    "new_trace_id",
    "new_span_id",
    "set_trace_context",
    "trace_context",
    "trace_context_for_thread",
    "ensure_trace_id",
]

_context = threading.local()

# Cross-thread view of the per-thread context, keyed by thread ident.
# Thread-locals are unreadable from other threads, but the sampling
# profiler (repro.telemetry.profiler) attributes stack samples taken on
# its own daemon thread to the trace in flight on the *sampled* thread.
# set_trace_context maintains this map as a side channel: dict item
# operations are atomic under the GIL, and the map is touched once per
# query — never in evaluation hot loops.
_threads: Dict[int, Tuple[Optional[str], Optional[str]]] = {}


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id."""
    return uuid.uuid4().hex[:16]


def new_span_id() -> str:
    """A fresh 8-hex-char span id (scoped under a trace id)."""
    return uuid.uuid4().hex[:8]


def current_trace_id() -> Optional[str]:
    """The trace id of the query in flight on this thread, or None."""
    return getattr(_context, "trace_id", None)


def current_span_id() -> Optional[str]:
    """The active span id on this thread, or None."""
    return getattr(_context, "span_id", None)


def set_trace_context(
    trace_id: Optional[str], span_id: Optional[str] = None
) -> Tuple[Optional[str], Optional[str]]:
    """Install ``(trace_id, span_id)`` on this thread; return the previous
    pair so callers can restore it (nested queries)."""
    previous = (current_trace_id(), current_span_id())
    _context.trace_id = trace_id
    _context.span_id = span_id
    ident = threading.get_ident()
    if trace_id is None and span_id is None:
        _threads.pop(ident, None)
    else:
        _threads[ident] = (trace_id, span_id)
    return previous


def trace_context_for_thread(
    ident: int,
) -> Tuple[Optional[str], Optional[str]]:
    """The ``(trace_id, span_id)`` pair installed on the thread with the
    given ident, or ``(None, None)``.  Readable from any thread — this is
    how the sampling profiler tags samples with the sampled thread's
    trace."""
    return _threads.get(ident, (None, None))


@contextmanager
def trace_context(
    trace_id: Optional[str], span_id: Optional[str] = None
) -> Iterator[Optional[str]]:
    """Scoped :func:`set_trace_context`: restore the previous pair on exit."""
    previous = set_trace_context(trace_id, span_id)
    try:
        yield trace_id
    finally:
        set_trace_context(*previous)


def ensure_trace_id() -> Tuple[str, bool]:
    """The current trace id, minting and installing one when absent.

    Returns ``(trace_id, created)`` — ``created`` tells the caller it owns
    the context and should clear it when the query finishes.
    """
    existing = current_trace_id()
    if existing is not None:
        return existing, False
    minted = new_trace_id()
    set_trace_context(minted)
    return minted, True
