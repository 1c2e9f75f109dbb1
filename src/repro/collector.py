"""One pause of the cyclic garbage collector, shared by the whole process.

Building an answer set allocates one tracked object per answer (a
``Mapping`` is a ``frozenset``) and one row tuple per join-phase result,
so the collector runs a generation-0 pass every ~700 of them over
objects that reference counting frees anyway: those builds create no
reference cycles (``tests/test_collector_pause.py`` checks that
``gc.collect()`` finds nothing after them).  :data:`collector_paused`
turns the collector off around such code and back on afterwards:

* the outermost entry records :func:`gc.isenabled` and disables the
  collector; the outermost exit re-enables it only if it was on, on the
  exception path too — a host that runs with the collector off keeps it
  off;
* nested and concurrent entries share one pause (a lock-protected depth
  counter), so two threads whose pauses overlap never restore each
  other's "was off".

Nothing else in the package calls :func:`gc.disable` or
:func:`gc.enable`: the profiler's frame walk, which must not start a
collection (CPython gh-106883), enters the same pause.  That is why this
is a leaf module beside :mod:`repro.exceptions`: the evaluation layers
and :mod:`repro.telemetry` both import it, and it imports neither.
"""

from __future__ import annotations

import gc
import threading

__all__ = ["collector_paused"]


class CollectorPause:
    """A reentrant, thread-safe ``with`` block during which the cyclic
    collector does not run (see the module docstring)."""

    __slots__ = ("_lock", "_depth", "_resume")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._resume = False

    def __enter__(self) -> None:
        with self._lock:
            if not self._depth:
                self._resume = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        with self._lock:
            self._depth -= 1
            if not self._depth and self._resume:
                gc.enable()
        return False


#: The process's one pause: the answer builds of :mod:`repro.cqalgs` and
#: :mod:`repro.wdpt.evaluation` and the profiler's frame walk enter it.
collector_paused = CollectorPause()
