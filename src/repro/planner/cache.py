"""Bounded LRU cache for structural analyses and parsed queries.

The planner memoizes expensive per-query artefacts (join trees, width
bounds, decompositions) keyed by the query's *structural fingerprint*
(:meth:`repro.core.cq.ConjunctiveQuery.structural_fingerprint`), so two
structurally identical query objects share one analysis.  A production
session may see an unbounded stream of distinct queries, so the cache is
LRU-bounded and instrumented: hit/miss/eviction counters feed
``session.stats()`` and the benchmark tables.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional


class PlanCache:
    """A thread-safe, bounded LRU mapping with hit/miss/eviction counters.

    >>> c = PlanCache(maxsize=2)
    >>> for k, v in [("a", 1), ("b", 2), ("c", 3)]:   # 3rd put evicts "a"
    ...     _ = c.put(k, v)
    >>> c.get("a") is None
    True
    >>> c.get("c")
    3
    >>> c.evictions
    1
    """

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_data", "_lock")

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValueError("cache size must be positive, got %d" % maxsize)
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value (refreshed as most-recently-used), or ``None``."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> Any:
        """Insert (or refresh) ``key`` and return ``value``."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1
            return value

    def peek(self, key: Hashable) -> Optional[Any]:
        """The cached value without refreshing recency or counting a
        hit/miss — for introspection (``stats``) paths that must not
        perturb the LRU order."""
        with self._lock:
            return self._data.get(key)

    def values_snapshot(self) -> list:
        """A point-in-time copy of the cached values, taken under the
        lock — safe to iterate while pool workers keep inserting
        (``Planner.stats`` aggregates per-profile counters from it)."""
        with self._lock:
            return list(self._data.values())

    def items_snapshot(self) -> list:
        """A point-in-time ``(key, value)`` copy in LRU order (least
        recent first), taken under the lock — the ``/debug/plans``
        endpoint renders the cache contents from it."""
        with self._lock:
            return list(self._data.items())

    def rewrite(self, fn: Callable[[Hashable, Any], Optional[Any]]) -> None:
        """Replace every value by ``fn(key, value)`` in one step under
        the lock; an entry whose new value is ``None`` is deleted.
        Recency and the counters are left alone."""
        with self._lock:
            for key, value in list(self._data.items()):
                new = fn(key, value)
                if new is None:
                    del self._data[key]
                elif new is not value:
                    self._data[key] = new

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        with self._lock:
            self._data.clear()

    def hit_rate(self) -> float:
        """``hits / (hits + misses)``, 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate(),
        }

    def __repr__(self) -> str:
        return "PlanCache(%d/%d, %d hits, %d misses)" % (
            len(self._data),
            self.maxsize,
            self.hits,
            self.misses,
        )
