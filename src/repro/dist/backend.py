""":class:`ShardedBackend` — a hash-partitioned multi-process store.

The coordinator keeps two synchronised representations of the database:

* a **mirror** — an ordinary :class:`~repro.storage.memory.MemoryBackend`
  holding every fact, which serves the whole
  :class:`~repro.storage.base.StorageBackend` protocol (``match``,
  ``facts``, the active domain, equality…) locally.  The point of the
  shards is query *compute*, not capacity: evaluation is what fans out;
* a **write-ahead relation log (WAL)** — the ordered list of every
  successful mutation (``("add"|"discard", fact)``).  It is the single
  source of truth for shard state: a shard's partition is, by
  definition, the WAL filtered to its hash slot, replayed in order.

Each of the ``shards`` partitions lives in one long-lived worker process
(a single-worker **process** :class:`~repro.parallel.pool.WorkerPool`
whose initializer loads the partition — the same pickle-safe envelope
machinery as :mod:`repro.parallel.batch`).  Facts are routed by a
deterministic hash of their leading argument (the join-key heuristic:
tuples sharing a first column co-locate), computed with
:func:`zlib.crc32` — Python's own ``hash`` is salted per process and
must never decide placement.  Shard processes spawn lazily on first
query and catch up by replaying their pending WAL suffix, so a sharded
backend that is only ever mutated costs no processes at all.

Queries arrive through :meth:`ShardedBackend.dist_yannakakis` (the
``dist`` kernel of :mod:`repro.cqalgs.yannakakis`), which delegates to
the shard program of :mod:`repro.dist.exec`.  **Robustness**: when a
shard process dies mid-query (detected as ``BrokenProcessPool`` and
surfaced as :class:`~repro.dist.exec.ShardFailure`), the dead shard's
pool is torn down, its partition rebuilt from the WAL in a fresh
process, and the in-flight query retried exactly once; a second failure
surfaces as a clean :class:`~repro.exceptions.ReproError`.

Pickling note: a ``ShardedBackend`` shipped into *another* process (for
example by :meth:`repro.engine.Session.run_batch`'s process executor)
reduces to a plain :class:`~repro.storage.memory.MemoryBackend` with the
same facts — batch workers evaluate locally instead of spawning a
nested shard fleet per worker.
"""

from __future__ import annotations

import weakref
import zlib
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from ..core.atoms import Atom, Schema
from ..core.terms import Constant
from ..exceptions import ReproError
from ..parallel.pool import WorkerPool
from ..storage.base import StorageBackend, allocate_backend_id
from ..storage.memory import MemoryBackend, _restore_memory_backend
from .exec import BROADCAST_LIMIT, ShardFailure, run_program
from .worker import init_shard, shard_call

__all__ = ["DEFAULT_SHARDS", "ShardedBackend", "shard_of"]

#: Shard count used when none is requested.
DEFAULT_SHARDS = 2


def shard_of(fact: Atom, shards: int) -> int:
    """The home shard of ``fact``: a stable hash of its leading argument
    (relation name for nullary facts).  ``zlib.crc32`` keeps placement
    identical across processes and runs — Python's builtin ``hash`` is
    per-process salted and would scatter a reloaded partition."""
    if fact.args:
        key = repr(fact.args[0].value)
    else:
        key = fact.relation
    return zlib.crc32(key.encode("utf-8")) % shards


def _close_pools(pools: List[Optional[WorkerPool]]) -> None:
    """GC-time finalizer target: must not reference the backend itself."""
    for pool in pools:
        if pool is not None:
            pool.close()
    pools[:] = []


class ShardedBackend(StorageBackend):
    """A :class:`~repro.storage.base.StorageBackend` whose query compute
    is hash-partitioned across ``shards`` long-lived worker processes.

    >>> from repro.core.atoms import atom
    >>> db = ShardedBackend([atom("E", 1, 2), atom("E", 2, 3)], shards=2)
    >>> len(db), db.data_version
    (2, 1)
    >>> sorted(db.match(atom("E", "?x", 3)))
    [E(2, 3)]
    >>> db.shutdown()
    """

    supports_dist_yannakakis = True

    def __init__(
        self,
        facts: Iterable[Atom] = (),
        schema: Optional[Schema] = None,
        shards: int = DEFAULT_SHARDS,
        broadcast_limit: int = BROADCAST_LIMIT,
    ):
        shards = int(shards)
        if shards < 1:
            raise ValueError("shards must be >= 1, got %d" % shards)
        self.shards = shards
        self.broadcast_limit = broadcast_limit
        self._mirror = MemoryBackend(schema=schema)
        #: Ordered mutation log; shard partitions replay it filtered to
        #: their hash slot.
        self._wal: List[Tuple[str, Atom]] = []
        self._pools: List[Optional[WorkerPool]] = [None] * shards
        #: Per shard, how many WAL entries its process has applied.
        self._synced: List[int] = [0] * shards
        self._qid = 0
        self._backend_id = allocate_backend_id("sharded")
        self.metrics = None
        self.obslog = None
        # Close shard processes when the backend is garbage collected;
        # the finalizer must not keep `self` alive, so it captures only
        # the (in-place mutated) pool list.
        self._finalizer = weakref.finalize(self, _close_pools, self._pools)
        self.add_many(facts)

    # ------------------------------------------------------------------
    # Identity / telemetry
    # ------------------------------------------------------------------
    @property
    def backend_id(self) -> str:
        return self._backend_id

    @property
    def data_version(self) -> int:
        return self._mirror.data_version

    def attach_telemetry(self, metrics=None, obslog=None) -> None:
        """Wire the owning session's metrics registry and obslog in, so
        shard timings, exchange volumes, and recovery events land where
        the rest of the engine's telemetry does."""
        if metrics is not None:
            self.metrics = metrics
        if obslog is not None:
            self.obslog = obslog

    # ------------------------------------------------------------------
    # Mutation: mirror first, then the WAL; shards catch up lazily
    # ------------------------------------------------------------------
    def add(self, fact: Atom) -> bool:
        if self._mirror.add(fact):
            self._wal.append(("add", fact))
            return True
        return False

    def add_many(self, facts: Iterable[Atom]) -> int:
        new = self._mirror._add_new(facts)
        self._wal.extend(("add", fact) for fact in new)
        return len(new)

    def discard(self, fact: Atom) -> bool:
        if self._mirror.discard(fact):
            self._wal.append(("discard", fact))
            return True
        return False

    # ------------------------------------------------------------------
    # Introspection: served by the coordinator's mirror
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._mirror.schema

    def facts(self, relation: Optional[str] = None) -> Tuple[Atom, ...]:
        return self._mirror.facts(relation)

    def relations(self) -> FrozenSet[str]:
        return self._mirror.relations()

    def active_domain(self) -> FrozenSet[Constant]:
        return self._mirror.active_domain()

    def match(self, pattern: Atom) -> Iterator[Atom]:
        return self._mirror.match(pattern)

    def match_bound(self, pattern: Atom) -> int:
        return self._mirror.match_bound(pattern)

    # The cell seam: the mirror's term dictionary is the one authority
    # for codes on the coordinator (shard-local codes never leave a shard).
    @property
    def codec(self):
        return self._mirror.codec

    probe_cost = MemoryBackend.probe_cost

    def rows(self, pattern: Atom):
        return self._mirror.rows(pattern)

    def probe(self, pattern: Atom, variables, keys):
        return self._mirror.probe(pattern, variables, keys)

    def __contains__(self, fact: Atom) -> bool:
        return fact in self._mirror

    def __len__(self) -> int:
        return len(self._mirror)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._mirror)

    def copy(self) -> "ShardedBackend":
        """An independent sharded copy (same shard count and schema, own
        processes — spawned lazily, so copying is cheap)."""
        clone = type(self)(
            schema=self._mirror._schema if self._mirror._explicit_schema else None,
            shards=self.shards,
            broadcast_limit=self.broadcast_limit,
        )
        clone.add_many(self._mirror.facts())
        clone._mirror._version = self._mirror._version
        return clone

    # A sharded backend crossing a process boundary becomes a plain
    # in-memory backend: batch workers must not spawn nested shard
    # fleets, and OS processes cannot be pickled anyway.
    def __reduce__(self):
        return (
            _restore_memory_backend,
            (
                MemoryBackend,
                tuple(self._mirror.facts()),
                self._mirror._schema if self._mirror._explicit_schema else None,
                self._mirror.data_version,
            ),
        )

    # ------------------------------------------------------------------
    # Shard lifecycle
    # ------------------------------------------------------------------
    def _partition(self, sid: int) -> Tuple[Atom, ...]:
        """Shard ``sid``'s fact set, by WAL replay (the rebuild path)."""
        facts: Dict[Atom, None] = {}
        for action, fact in self._wal:
            if shard_of(fact, self.shards) != sid:
                continue
            if action == "add":
                facts[fact] = None
            else:
                facts.pop(fact, None)
        return tuple(facts)

    def _spawn(self, sid: int) -> WorkerPool:
        """Start shard ``sid``'s process, loading its partition via the
        pool initializer; the shard is synced to the current WAL head."""
        pool = WorkerPool(
            jobs=1,
            executor="process",
            initializer=init_shard,
            initargs=(sid, self._partition(sid)),
        )
        self._pools[sid] = pool
        self._synced[sid] = len(self._wal)
        return pool

    def ensure_synced(self) -> None:
        """Make every shard process live and caught up with the WAL.

        Called at the start of every distributed query: missing shards
        spawn with a full partition load, lagging shards replay just
        their pending WAL suffix (filtered to their hash slot)."""
        futures = []
        dead = set()
        for sid in range(self.shards):
            if self._pools[sid] is None:
                self._spawn(sid)
                continue
            pending = self._wal[self._synced[sid]:]
            if not pending:
                continue
            delta = [
                entry for entry in pending
                if shard_of(entry[1], self.shards) == sid
            ]
            self._synced[sid] = len(self._wal)
            if not delta:
                continue
            task = ("apply", delta, None, False, None)
            try:
                futures.append((sid, self.shard_submit(sid, task)))
            except BrokenProcessPool:
                dead.add(sid)
        dead |= {sid for sid, future in futures if _broken(future)}
        if dead:
            raise ShardFailure(dead)

    def shard_submit(self, sid: int, task):
        """Submit one RPC task to shard ``sid``; returns its future.
        ``concurrent.futures.process.BrokenProcessPool`` propagates to
        the caller (the executor turns it into a
        :class:`~repro.dist.exec.ShardFailure`)."""
        pool = self._pools[sid]
        if pool is None:
            pool = self._spawn(sid)
        return pool.submit(shard_call, task)

    def next_qid(self) -> int:
        self._qid += 1
        return self._qid

    def shutdown(self) -> None:
        """Stop every shard process.  Idempotent; the backend stays
        usable — the next query respawns shards from the WAL."""
        for sid, pool in enumerate(self._pools):
            if pool is not None:
                pool.close()
                self._pools[sid] = None
                self._synced[sid] = 0

    # ------------------------------------------------------------------
    # The distributed query entry point (+ recovery)
    # ------------------------------------------------------------------
    def dist_yannakakis(self, atoms, links, frees, exists_only: bool = False):
        """Run the shard program for one join tree; see
        :func:`repro.dist.exec.run_program`.

        A :class:`~repro.dist.exec.ShardFailure` (shard process died)
        triggers recovery — the dead partitions are rebuilt from the WAL
        in fresh processes — and **one** retry of the whole query; a
        failure of the retry surfaces as a clean
        :class:`~repro.exceptions.ReproError`."""
        try:
            self.ensure_synced()
            return run_program(self, atoms, links, frees, exists_only)
        except ShardFailure as failure:
            self._recover(failure.dead)
            if self.metrics is not None:
                self.metrics.counter("dist.retries").inc()
            if self.obslog is not None:
                self.obslog.emit(
                    "dist.retry", dead_shards=sorted(failure.dead)
                )
            try:
                return run_program(self, atoms, links, frees, exists_only)
            except ShardFailure as again:
                raise ReproError(
                    "distributed query failed: shard(s) %s died, and the "
                    "retry after rebuilding lost shard(s) %s from the "
                    "write-ahead log failed too"
                    % (sorted(failure.dead), sorted(again.dead))
                ) from again

    def _recover(self, dead) -> None:
        """Tear down the dead shards' pools and rebuild their partitions
        from the WAL in fresh processes."""
        for sid in sorted(dead):
            pool = self._pools[sid]
            if pool is not None:
                pool.close()
                self._pools[sid] = None
            self._spawn(sid)
            if self.metrics is not None:
                self.metrics.counter(
                    "dist.shard_rebuilds", labels={"shard": "s%d" % sid}
                ).inc()
            if self.obslog is not None:
                self.obslog.emit("dist.shard_rebuilt", shard="s%d" % sid)

    # ------------------------------------------------------------------
    # Introspection/test hooks over the live shard fleet
    # ------------------------------------------------------------------
    def _call(self, sid: int, op: str, payload=None):
        """One synchronous maintenance RPC; unwraps the envelope."""
        envelope = self.shard_submit(sid, (op, payload, None, False, None)).result()
        return envelope.value

    def shard_pids(self) -> Dict[int, int]:
        """Live shard process ids (spawning any missing shard) — the
        recovery tests SIGKILL one of these."""
        self.ensure_synced()
        return {
            sid: self._call(sid, "ping")["pid"] for sid in range(self.shards)
        }

    def fail_shard_next(self, sid: int) -> None:
        """Arm the crash hook on shard ``sid``: its next RPC dies
        abruptly (test hook for the recovery path)."""
        self.ensure_synced()
        self._call(sid, "fail_next")


def _broken(future) -> bool:
    """Did this future die with its process pool?"""
    try:
        future.result()
        return False
    except BrokenProcessPool:
        return True
