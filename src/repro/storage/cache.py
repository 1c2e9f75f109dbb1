"""Version-stamped result caching for :class:`repro.engine.Session`.

A :class:`ResultCache` memoizes finished answers in *slots*

    ``(operation, query fingerprint, extra, backend_id)``

— the query's structural fingerprint (the same machinery
:mod:`repro.planner` memoizes analyses under) and the identity of the
database instance — and every entry carries a *stamp*: the
:attr:`~repro.storage.base.StorageBackend.data_version` its value was
computed at, beside the value and the query itself.  A lookup hits iff
the stamp equals the backend's current version, so an entry nobody
vouched for after a write simply misses, and the next ``put`` of its
slot replaces it: a slot holds one entry however many writes go by.

The version is a stamp and not part of the key so that a write can
*keep* an entry: :meth:`ResultCache.advance` moves the stamp of the
entries of one backend from the version before a write to the version
after it, for exactly the queries a caller-supplied test clears, by
compare-and-set under the cache's lock.  The one caller is the write
funnel of :class:`~repro.engine.Session`, whose test is
:func:`repro.wdpt.touch.can_touch` — can the written fact take part in
any homomorphism of the query? — and which calls only when the version
moved by exactly what it wrote.  Everything else (a write that goes
around the session, another cache, a racing writer) advances nothing,
and the entries miss as if the version were still in the key.  The
cache knows nothing of that test; it is WDPT semantics, not storage.

Values are immutable (answer frozensets, booleans), so one entry may
back many :class:`~repro.engine.Result` objects, and a carried entry is
the *same object* before and after the write — what is keyed by its
identity downstream (the service's encoded fragments) stays valid with
it.  Storage is a :class:`~repro.planner.cache.PlanCache` (thread-safe
bounded LRU), and the counters are mirrored into a
:class:`~repro.telemetry.metrics.MetricsRegistry`
(``session.result_cache.hits``/``.misses``/``.puts``/``.carried``/
``.dropped``), so cache behaviour shows up in ``session.stats()``, the
Prometheus exposition, and the query log.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from ..telemetry.metrics import MetricsRegistry

#: Metric names mirrored into the registry.
HITS = "session.result_cache.hits"
MISSES = "session.result_cache.misses"
PUTS = "session.result_cache.puts"
#: Entries whose stamp a write advanced / entries a write deleted.
CARRIED = "session.result_cache.carried"
DROPPED = "session.result_cache.dropped"

#: Default LRU bound.
DEFAULT_SIZE = 128


class ResultCache:
    """A bounded LRU of finished query results, one version-stamped entry
    ``(stamp, value, query)`` per slot."""

    def __init__(
        self,
        maxsize: int = DEFAULT_SIZE,
        metrics: Optional[MetricsRegistry] = None,
    ):
        # Deferred: repro.planner transitively imports repro.core, which
        # is mid-initialisation when repro.storage first loads.
        from ..planner.cache import PlanCache

        self._entries = PlanCache(maxsize)
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @staticmethod
    def key(
        op: str,
        fingerprint: str,
        backend_id: str,
        extra: Hashable = None,
    ) -> Hashable:
        """The slot of one evaluation call."""
        return (op, fingerprint, extra, backend_id)

    def get(self, key: Hashable, version: int) -> Optional[Any]:
        """The value of the slot if it is stamped ``version``, counting a
        hit or miss."""
        entry = self._entries.get(key)
        if entry is None or entry[0] != version:
            self.metrics.counter(MISSES).inc()
            return None
        self.metrics.counter(HITS).inc()
        return entry[1]

    def put(self, key: Hashable, version: int, value: Any, query: Any) -> Any:
        """Fill the slot (replacing what it held) with ``value``, the
        result of ``query`` computed at ``version``."""
        self.metrics.counter(PUTS).inc()
        self._entries.put(key, (version, value, query))
        return value

    def queries(self, backend_id: str, version: int) -> List[Any]:
        """The distinct queries with an entry of ``backend_id`` stamped
        ``version`` — what a write has to test before :meth:`advance`."""
        return list({
            entry[2]
            for key, entry in self._entries.items_snapshot()
            if key[3] == backend_id and entry[0] == version
        })

    def advance(
        self,
        backend_id: str,
        before: int,
        after: int,
        untouched: Callable[[Any], bool],
    ) -> Tuple[int, int]:
        """Carry the entries of ``backend_id`` stamped ``before`` across
        a write that moved its version to ``after``: an entry whose query
        passes ``untouched`` is stamped ``after`` (same value object), the
        others are deleted.  Entries with any other stamp are not looked
        at.  One step under the cache's lock, so ``untouched`` must be a
        lookup of verdicts reached beforehand, not the test itself.
        Returns ``(carried, dropped)``."""
        counts = [0, 0]

        def restamp(key: Hashable, entry: Tuple[int, Any, Any]):
            if key[3] != backend_id or entry[0] != before:
                return entry
            keep = bool(untouched(entry[2]))
            counts[not keep] += 1
            return (after, entry[1], entry[2]) if keep else None

        self._entries.rewrite(restamp)
        carried, dropped = counts
        self.metrics.counter(CARRIED).inc(carried)
        self.metrics.counter(DROPPED).inc(dropped)
        return carried, dropped

    @property
    def hits(self) -> int:
        return int(self.metrics.counter(HITS).value)

    @property
    def misses(self) -> int:
        return int(self.metrics.counter(MISSES).value)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        return {
            "size": len(self._entries),
            "maxsize": self._entries.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "puts": int(self.metrics.counter(PUTS).value),
            "carried": int(self.metrics.counter(CARRIED).value),
            "dropped": int(self.metrics.counter(DROPPED).value),
            "evictions": self._entries.evictions,
            "hit_rate": self.hit_rate(),
        }

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        self._entries.clear()

    def reset_counters(self) -> None:
        """Zero the counters (entries are kept)."""
        for name in (HITS, MISSES, PUTS, CARRIED, DROPPED):
            self.metrics.counter(name).reset()
        self._entries.hits = self._entries.misses = 0
        self._entries.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return "ResultCache(%d/%d, %d hits, %d misses)" % (
            len(self._entries), self._entries.maxsize, self.hits, self.misses,
        )
