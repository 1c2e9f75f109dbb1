"""Pluggable storage backends and the version-stamped result cache.

The evaluation engines (:mod:`repro.wdpt`, :mod:`repro.cqalgs`) run
against any :class:`~repro.storage.base.StorageBackend`:

* :class:`~repro.storage.memory.MemoryBackend` — hash-indexed, in
  memory; ``repro.core.database.Database`` is a thin alias of it.
* :class:`~repro.storage.sqlite.SQLiteBackend` — stdlib ``sqlite3``, one
  table per relation with per-position indexes, on-disk open/save, and
  SQL pushdown of the Yannakakis semi-join program.

Every backend maintains a monotonically increasing **data version**
bumped on each mutation; :class:`~repro.storage.cache.ResultCache` files
finished answers under ``(query fingerprint, backend id)`` and stamps
them with the data version, so repeated queries are cache hits and a
write invalidates by moving the version forward — except for the entries
a :class:`~repro.engine.Session` write re-stamps because the written
facts provably cannot touch them.  Select a backend with
``Session(data, backend="sqlite")`` (or the ``REPRO_BACKEND``
environment variable) — see :mod:`repro.engine`.
"""

from .base import StorageBackend
from .cache import ResultCache
from .memory import MemoryBackend
from .sqlite import SQLiteBackend

#: Name → constructor for ``Session(backend=...)`` / ``REPRO_BACKEND``.
BACKENDS = {
    "memory": MemoryBackend,
    "sqlite": SQLiteBackend,
}

#: Every backend kind accepted by ``Session(backend=...)`` and the CLI's
#: ``--backend`` flags.
BACKEND_KINDS = tuple(BACKENDS)


def backend_class(kind: str):
    """The backend class named ``kind`` (``ValueError`` naming the kinds
    there are otherwise)."""
    try:
        return BACKENDS[kind]
    except KeyError:
        raise ValueError(
            "unknown storage backend %r (expected one of %s)"
            % (kind, ", ".join(BACKEND_KINDS))
        ) from None


def to_backend(data, kind: str, path=None):
    """Coerce ``data`` (a backend or an iterable of facts) into a backend
    of the given ``kind``, converting between kinds when necessary.

    An instance already of the requested kind passes through unchanged
    (no copy); anything else is loaded fact-by-fact into a fresh backend.
    """
    cls = backend_class(kind)
    if isinstance(data, cls) and (path is None or kind != "sqlite"):
        return data
    facts = data.facts() if isinstance(data, StorageBackend) else data
    if cls is SQLiteBackend:
        return SQLiteBackend(facts, path=path)
    return cls(facts)


__all__ = [
    "BACKENDS",
    "BACKEND_KINDS",
    "MemoryBackend",
    "ResultCache",
    "SQLiteBackend",
    "StorageBackend",
    "backend_class",
    "to_backend",
]
