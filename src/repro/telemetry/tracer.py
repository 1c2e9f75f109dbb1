"""Hierarchical execution tracing.

A :class:`Tracer` records a forest of nested, monotonic-clock
:class:`Span` objects::

    tracer = Tracer()
    with tracer.span("session.query", query="q1"):
        with tracer.span("planner.profile") as sp:
            sp.set(cache="miss")

The innermost open span lives in the per-query context
(:mod:`repro.telemetry.context`), so spans nest per thread (and per
asyncio task) while the completed roots are collected on the tracer under
a lock: one tracer can observe a multi-threaded evaluation.

Tracing is **off by default**: the context carries no tracer and
:func:`current_tracer` returns a :class:`NullTracer` whose
:meth:`~NullTracer.span` returns a shared no-op span — no allocation, no
clock reads, no bookkeeping — so instrumentation left in hot paths is
close to free (the overhead gate lives in ``tests/test_telemetry.py``).
Hot loops that compute span *attributes* should additionally guard on
``tracer.enabled``.

Record into a tracer for the duration of a block with :func:`tracing`;
it is installed in the calling context only, so queries other threads run
meanwhile record nothing into it::

    with tracing() as tracer:
        session.query(q)
    print(render_trace(tracer))
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from .context import QueryContext, _enter, _exit, current, scoped


class Span:
    """One timed, attributed section of work.  Also its own context
    manager: entering starts the clock and links the span under the
    calling context's innermost open span — or, when that belongs to
    another tracer or there is none, among its tracer's roots; exiting
    stops the clock."""

    __slots__ = ("name", "attrs", "start", "end", "children", "_tracer", "_token")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None,
                 tracer: "Optional[Tracer]" = None):
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.start: float = 0.0
        self.end: Optional[float] = None
        self.children: List[Span] = []
        self._tracer = tracer

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes; returns the span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer is not None:
            context = current()
            parent = context.span
            if parent is not None and parent._tracer is tracer:
                parent.children.append(self)
            else:
                with tracer._lock:
                    tracer.roots.append(self)
            self._token = _enter(QueryContext(
                context.trace_id, context.tracer, self, context.monitor,
                context.cache_bypass,
            ))
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.end = time.perf_counter()
        if self._tracer is not None:
            _exit(self._token)
            # The token holds the enclosing context, whose span holds this
            # one: drop it, so a recorded trace holds no reference cycles.
            self._token = None
        return False

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Iterator["Span"]:
        """Every descendant (including self) named ``name``."""
        for span in self.walk():
            if span.name == name:
                yield span

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:
        return "Span(%r, %.6fs, %d children)" % (
            self.name, self.duration, len(self.children),
        )


class Tracer:
    """A recording tracer: nested spans, thread-safe root collection."""

    enabled = True

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self._lock = threading.Lock()

    def span(self, name: str, **attrs: Any) -> Span:
        """A new span, to be used as a context manager."""
        return Span(name, attrs, tracer=self)

    def clear(self) -> None:
        with self._lock:
            self.roots = []

    def walk(self) -> Iterator[Span]:
        """Every recorded span, pre-order across all roots."""
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> Iterator[Span]:
        """Every recorded span named ``name``."""
        for span in self.walk():
            if span.name == name:
                yield span

    def total_seconds(self, name: str) -> float:
        """Summed duration of all spans named ``name``."""
        return sum(s.duration for s in self.find(name))

    def __repr__(self) -> str:
        return "Tracer(%d roots, %d spans)" % (
            len(self.roots), sum(1 for _ in self.walk()),
        )


class _NullSpan:
    """Shared no-op span: the entire disabled-tracing fast path."""

    __slots__ = ()
    name = "null"
    attrs: Dict[str, Any] = {}
    children: List[Span] = []
    duration = 0.0

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        return False


NULL_SPAN = _NullSpan()


class NullTracer:
    """The zero-cost disabled tracer (module-level default)."""

    enabled = False
    roots: List[Span] = []

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def clear(self) -> None:
        pass

    def walk(self) -> Iterator[Span]:
        return iter(())

    def find(self, name: str) -> Iterator[Span]:
        return iter(())

    def total_seconds(self, name: str) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "NullTracer()"


NULL_TRACER = NullTracer()

def current_tracer():
    """The tracer instrumentation sites record into: the calling
    context's, or the null tracer when tracing is disabled."""
    return current().tracer or NULL_TRACER


@contextmanager
def tracing(tracer: Optional[Tracer] = None):
    """Record into ``tracer`` (a fresh one by default) for the block, in
    the calling context only."""
    installed = tracer if tracer is not None else Tracer()
    with scoped(current()._replace(tracer=installed)):
        yield installed
