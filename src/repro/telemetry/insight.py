"""Plan-quality insight: cardinality estimates, q-error, per-query stats.

The planner's routing is purely structural (acyclicity, widths); this
module adds the *quantitative* half an operator needs to judge a plan
after the fact:

* :func:`estimate_profile` — per-atom-set cardinality estimates built
  from three ingredients, in decreasing order of rigor:

  1. **relation sizes** — ``db.match_count(atom)`` per atom (constants in
     the pattern already filter, so this is the size of the derived
     relation the join actually consumes);
  2. **AGM-style output bound** — ``∏_e |R_e|^{w_e}`` for a fractional
     edge cover ``w`` of *all* variables (Atserias–Grohe–Marx via
     :func:`repro.hypergraphs.fractional.fractional_cover_weights`).
     This is a genuine upper bound on the number of homomorphisms: each
     atom's derived relation contains every homomorphism's restriction,
     and the cover spans every variable.  Projection only shrinks
     output, so the bound also holds for counted candidates;
  3. **independence-assumption estimate** — System-R style: the product
     of relation sizes divided, per join variable, by all but the
     smallest size among the atoms sharing it (``V(R, v) ≈ |R|``).

  The reported ``estimated_rows`` is the AGM bound whenever a cover is
  available (``method="agm"``) and the independence estimate otherwise
  (``method="independence"``), so downstream consumers can rely on
  *method agm ⇒ upper bound*.

* :func:`q_error` — the standard plan-quality metric
  ``max(est/actual, actual/est)`` with both sides clamped to ≥ 1.
  Symmetric, ≥ 1, and 1.0 exactly when the estimate is right.

* :class:`QueryStatsStore` — a bounded, thread-safe, mergeable
  per-fingerprint history (latency, rows, cache hits, per-kernel counts,
  q-error) that persists to JSON.

Everything here is read-side telemetry: estimates are memoized per
``(atom set, backend_id, data_version)`` by the planner, and nothing in
this module touches evaluation semantics.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..exceptions import BudgetExceededError

__all__ = [
    "CardinalityEstimate",
    "estimate_profile",
    "q_error",
    "DEFAULT_MISESTIMATE_QERROR",
    "QueryStatsStore",
]

#: q-error above which a ``misestimate.detected`` obslog event fires.
DEFAULT_MISESTIMATE_QERROR = 16.0

#: Caps for the pure-Python fractional-cover fallback (scipy absent):
#: the {0, ½, 1}-grid search is 3^edges, so stay tiny.
_FALLBACK_MAX_EDGES = 6
_FALLBACK_MAX_VERTICES = 10


class CardinalityEstimate:
    """Cardinality estimates for one atom set against one database state.

    Attributes
    ----------
    relation_rows:
        Per-atom match counts, aligned with the profile's
        ``sorted_atoms``.
    independent_rows:
        The independence-assumption join-size estimate.
    agm_rows:
        The AGM fractional-cover output bound, or ``None`` when no cover
        was computed (budget, infeasibility).
    estimated_rows:
        The headline estimate: ``agm_rows`` when available (a genuine
        upper bound), else ``independent_rows``.
    method:
        ``"agm"`` / ``"independence"`` / ``"trivial"`` (no atoms).
    backend_id / data_version:
        The database state the counts were taken from.
    """

    __slots__ = (
        "relation_rows",
        "independent_rows",
        "agm_rows",
        "estimated_rows",
        "method",
        "backend_id",
        "data_version",
    )

    def __init__(
        self,
        relation_rows: Sequence[int],
        independent_rows: float,
        agm_rows: Optional[float],
        method: str,
        backend_id: str = "?",
        data_version: int = 0,
    ):
        self.relation_rows: Tuple[int, ...] = tuple(relation_rows)
        self.independent_rows = float(independent_rows)
        self.agm_rows = None if agm_rows is None else float(agm_rows)
        self.estimated_rows = (
            self.agm_rows if self.agm_rows is not None else self.independent_rows
        )
        self.method = method
        self.backend_id = backend_id
        self.data_version = data_version

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (obslog ``query.plan``, ``/debug/plans``)."""
        return {
            "relation_rows": list(self.relation_rows),
            "independent_rows": self.independent_rows,
            "agm_rows": self.agm_rows,
            "estimated_rows": self.estimated_rows,
            "method": self.method,
            "backend_id": self.backend_id,
            "data_version": self.data_version,
        }

    def __repr__(self) -> str:
        return "CardinalityEstimate(%s≈%.4g over %d atoms)" % (
            self.method,
            self.estimated_rows,
            len(self.relation_rows),
        )


def q_error(estimated: float, actual: float) -> float:
    """``max(est/actual, actual/est)`` with both sides clamped to ≥ 1.

    >>> q_error(100, 10)
    10.0
    >>> q_error(10, 100)
    10.0
    >>> q_error(0, 0)
    1.0
    """
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return max(est / act, act / est)


def estimate_profile(profile: Any, db: Any) -> CardinalityEstimate:
    """Estimate the (pre-projection) output size of ``profile``'s atom
    set over ``db``.

    ``profile`` needs ``sorted_atoms`` and ``hypergraph`` (any
    :class:`~repro.planner.profile.StructuralProfile` works); ``db`` is a
    :class:`~repro.storage.base.StorageBackend`.
    """
    atoms = tuple(profile.sorted_atoms)
    backend_id = getattr(db, "backend_id", "?")
    data_version = int(getattr(db, "data_version", 0))
    if not atoms:
        return CardinalityEstimate((), 1.0, 1.0, "trivial", backend_id, data_version)
    counts = [int(db.match_count(a)) for a in atoms]
    independent = _independence_estimate(atoms, counts)
    agm = _agm_bound(profile, atoms, counts)
    method = "agm" if agm is not None else "independence"
    return CardinalityEstimate(counts, independent, agm, method, backend_id, data_version)


def _independence_estimate(atoms: Sequence[Any], counts: Sequence[int]) -> float:
    """System-R style: product of sizes, divided per shared variable by
    all but the smallest size among the atoms containing it."""
    est = 1.0
    for c in counts:
        est *= c
    if est <= 0:
        return 0.0
    occurrences: Dict[Any, List[int]] = {}
    for a, c in zip(atoms, counts):
        for v in a.variables():
            occurrences.setdefault(v, []).append(c)
    for sizes in occurrences.values():
        if len(sizes) < 2:
            continue
        for c in sorted(sizes)[1:]:
            est /= max(c, 1)
    return est


def _agm_bound(
    profile: Any, atoms: Sequence[Any], counts: Sequence[int]
) -> Optional[float]:
    """``∏_e |R_e|^{w_e}`` for an optimal fractional cover of all
    variables, or ``None`` when no cover is available within budget."""
    from ..hypergraphs.fractional import _linprog, fractional_cover_weights

    try:
        H = profile.hypergraph
    except Exception:
        return None
    if not H.edges:
        # No variables anywhere: the join is a pure existence check.
        return 1.0 if all(c > 0 for c in counts) else 0.0
    if _linprog is None and (
        len(H.edges) > _FALLBACK_MAX_EDGES
        or len(H.vertices) > _FALLBACK_MAX_VERTICES
    ):
        return None
    # Several atoms can share one variable-set edge (e.g. R(x,y), S(x,y)):
    # covering with the smallest of them keeps the bound valid and tight.
    edge_counts: Dict[Any, int] = {}
    for a, c in zip(atoms, counts):
        edge = frozenset(a.variables())
        if not edge:
            if c <= 0:
                return 0.0  # an unmatched ground atom empties the output
            continue
        previous = edge_counts.get(edge)
        edge_counts[edge] = c if previous is None else min(previous, c)
    try:
        value, weights = fractional_cover_weights(H, H.vertices)
    except (BudgetExceededError, RuntimeError):
        return None
    if value == float("inf") or not weights:
        return None
    bound = 1.0
    for edge, weight in weights.items():
        size = edge_counts.get(edge)
        if size is None:  # pragma: no cover - edges always come from atoms
            return None
        bound *= float(size) ** weight
    return bound


# ---------------------------------------------------------------------------
# Per-fingerprint statistics store
# ---------------------------------------------------------------------------

#: Schema stamp of :meth:`QueryStatsStore.dump` / persisted JSON files.
STATS_SCHEMA = 1


class QueryStatsStore:
    """Bounded, thread-safe, mergeable per-query-shape statistics.

    Keys are query ids (the first 16 chars of a structural fingerprint,
    as stamped on obslog events); values accumulate execution history:
    latency, rows, cache hits, per-kernel counts, q-error.  The store is
    LRU-bounded like :class:`~repro.planner.cache.PlanCache`, merges like
    ``MetricsRegistry.dump``/``merge_dump`` (process workers ship their
    local store back inside the batch envelope), and round-trips through
    JSON for persistence across sessions.
    """

    def __init__(self, maxsize: int = 512):
        if maxsize < 1:
            raise ValueError("stats store size must be positive, got %d" % maxsize)
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._data: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

    @staticmethod
    def _fresh_entry() -> Dict[str, Any]:
        return {
            "executions": 0,
            "wall_seconds": 0.0,
            "max_wall_seconds": 0.0,
            "last_wall_seconds": 0.0,
            "rows": 0,
            "last_rows": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "engines": {},
            "kernels": {},
            "q_error": {"count": 0, "total": 0.0, "max": 0.0, "last": 0.0},
        }

    def record(
        self,
        query_id: str,
        wall_seconds: float = 0.0,
        rows: int = 0,
        engine: Optional[str] = None,
        kernel: Optional[str] = None,
        cache_hit: Optional[bool] = None,
        max_q_error: Optional[float] = None,
    ) -> None:
        """Fold one execution of ``query_id`` into the store."""
        with self._lock:
            entry = self._data.get(query_id)
            if entry is None:
                entry = self._fresh_entry()
            self._data[query_id] = entry
            self._data.move_to_end(query_id)
            entry["executions"] += 1
            entry["wall_seconds"] += float(wall_seconds)
            entry["max_wall_seconds"] = max(
                entry["max_wall_seconds"], float(wall_seconds)
            )
            entry["last_wall_seconds"] = float(wall_seconds)
            entry["rows"] += int(rows)
            entry["last_rows"] = int(rows)
            if cache_hit is True:
                entry["cache_hits"] += 1
            elif cache_hit is False:
                entry["cache_misses"] += 1
            if engine is not None:
                entry["engines"][engine] = entry["engines"].get(engine, 0) + 1
            if kernel is not None:
                k = entry["kernels"].setdefault(
                    kernel, {"count": 0, "wall_seconds": 0.0}
                )
                k["count"] += 1
                k["wall_seconds"] += float(wall_seconds)
            if max_q_error is not None:
                q = entry["q_error"]
                q["count"] += 1
                q["total"] += float(max_q_error)
                q["max"] = max(q["max"], float(max_q_error))
                q["last"] = float(max_q_error)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    # ------------------------------------------------------------------
    # Introspection / merge / persistence
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._data)

    def snapshot(self, query_id: str) -> Optional[Dict[str, Any]]:
        """A deep copy of one entry, or ``None``."""
        with self._lock:
            entry = self._data.get(query_id)
            return json.loads(json.dumps(entry)) if entry is not None else None

    def dump(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of the whole store."""
        with self._lock:
            queries = json.loads(json.dumps(dict(self._data)))
        return {"schema": STATS_SCHEMA, "queries": queries}

    def merge_dump(self, dump: Dict[str, Any]) -> None:
        """Fold another store's :meth:`dump` into this one (process
        workers ship theirs back through the batch envelope)."""
        if dump.get("schema") != STATS_SCHEMA:
            raise ValueError(
                "cannot merge stats dump with schema %r (expected %d)"
                % (dump.get("schema"), STATS_SCHEMA)
            )
        for query_id, other in dump.get("queries", {}).items():
            with self._lock:
                entry = self._data.get(query_id)
                if entry is None:
                    entry = self._fresh_entry()
                self._data[query_id] = entry
                self._data.move_to_end(query_id)
                entry["executions"] += other.get("executions", 0)
                entry["wall_seconds"] += other.get("wall_seconds", 0.0)
                entry["max_wall_seconds"] = max(
                    entry["max_wall_seconds"], other.get("max_wall_seconds", 0.0)
                )
                entry["last_wall_seconds"] = other.get(
                    "last_wall_seconds", entry["last_wall_seconds"]
                )
                entry["rows"] += other.get("rows", 0)
                entry["last_rows"] = other.get("last_rows", entry["last_rows"])
                entry["cache_hits"] += other.get("cache_hits", 0)
                entry["cache_misses"] += other.get("cache_misses", 0)
                for engine, count in other.get("engines", {}).items():
                    entry["engines"][engine] = entry["engines"].get(engine, 0) + count
                for kernel, k in other.get("kernels", {}).items():
                    mine = entry["kernels"].setdefault(
                        kernel, {"count": 0, "wall_seconds": 0.0}
                    )
                    mine["count"] += k.get("count", 0)
                    mine["wall_seconds"] += k.get("wall_seconds", 0.0)
                theirs = other.get("q_error")
                if theirs:
                    q = entry["q_error"]
                    q["count"] += theirs.get("count", 0)
                    q["total"] += theirs.get("total", 0.0)
                    q["max"] = max(q["max"], theirs.get("max", 0.0))
                    q["last"] = theirs.get("last", q["last"])
                while len(self._data) > self.maxsize:
                    self._data.popitem(last=False)

    def save(self, path: str) -> None:
        """Persist the store as JSON at ``path``."""
        with open(path, "w") as handle:
            json.dump(self.dump(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str, maxsize: int = 512) -> "QueryStatsStore":
        """A store rebuilt from a :meth:`save`'d JSON file."""
        with open(path) as handle:
            dump = json.load(handle)
        store = cls(maxsize=maxsize)
        store.merge_dump(dump)
        return store

    def __repr__(self) -> str:
        return "QueryStatsStore(%d/%d query shapes)" % (len(self._data), self.maxsize)
