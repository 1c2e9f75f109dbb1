"""``rw_sqlite``: reads and writes against an on-disk SQLite session.

96 % reads from a pool of 8 band queries, 4 % single-triple writes
(``add_triples`` / ``remove``, alternating), result cache on.  Every
write bumps ``data_version`` and so invalidates the whole version-keyed
cache: throughput is bounded by miss cost x miss rate, not by hit cost.

Two choices keep the numbers steady on a box whose fsync takes 1-7 ms
depending on the minute.  The file is bulk-loaded with ``add_many`` (one
commit): ``Session(data, path=...)`` commits once per fact, 1.3 k fsyncs
that made ``setup_s`` swing between 0.7 s and 8.9 s.  And writes are one op
in 25, not in 20: at exactly 5 % the 95th percentile sits on the boundary
between the slowest cache misses and the writes, where it jumps; at 4 % it
lies inside the misses, which are CPU-bound.
"""

from __future__ import annotations

import os
import random
import time
from typing import Any, Dict, List, Optional

from repro.core.atoms import Atom
from repro.engine import Session
from repro.rdf.graph import TRIPLE_RELATION
from repro.workloads.datasets import music_catalog

from ..harness import Context, Op, Workload, digest, percentile
from . import common

#: ~4700 ops/s at nominal speed.
RATE = 3600.0
POOL = 8
WRITE_EVERY = 25  # one op in 25 is a write: 4 %


class RwSqlite(Workload):
    name = "rw_sqlite"

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.bands = ctx.scaled(100, 10)
        self.session: Optional[Session] = None
        self.path = os.path.join(ctx.out_dir, "rw_sqlite_%d.sqlite" % os.getpid())
        self.outputs: List[Any] = []
        self.queries: List[str] = []

    def _graph(self, bands: int):
        return music_catalog(bands, 5, seed=self.ctx.seed)

    def _ops(self, rng: random.Random, bands: int, n: int) -> List[Op]:
        """Reads of the pool's queries with every 25th op a write; the
        k-th write adds a rating to a pool band's record, the next one
        removes it again, so the database keeps its size."""
        pool = rng.sample(range(bands), min(POOL, bands))
        self.queries = [common.band_query(b, b) for b in pool]
        ops: List[Op] = []
        pending: Optional[tuple] = None
        for i in range(n):
            if i % WRITE_EVERY == WRITE_EVERY - 1:
                if pending is None:
                    band = rng.choice(pool)
                    pending = ("record_%d_%d" % (band, rng.randrange(5)),
                               "NME_rating", "w%d" % i)
                    ops.append(("write.add", pending))
                else:
                    ops.append(("write.remove", pending))
                    pending = None
            else:
                ops.append(("read", rng.randrange(len(self.queries))))
        return ops

    def prepare(self) -> None:
        rng = random.Random(self.ctx.seed)
        self.op_lists = [self._ops(rng, self.bands, self.ctx.n_ops(RATE, minimum=100))]

    def _remove_files(self) -> None:
        for suffix in ("", "-journal", "-wal", "-shm"):
            try:
                os.remove(self.path + suffix)
            except FileNotFoundError:
                pass

    def setup(self) -> None:
        self._remove_files()
        facts = self._graph(self.bands).to_database().facts()
        start = time.perf_counter()
        self.session = Session(backend="sqlite", path=self.path)
        self.session.database.add_many(facts)
        self.load_s = time.perf_counter() - start
        self.loaded_version = self.session.database.data_version
        for query in self.queries:
            self.session.query(query)
        self.session.reset_stats()
        self.outputs = []

    def teardown(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session.database.close()
            self.session = None
        self._remove_files()

    def _apply(self, session: Session, op: Op) -> Any:
        kind, arg = op
        if kind == "read":
            return session.query(self.queries[arg]).answers
        if kind == "write.add":
            return session.add_triples([arg])
        return session.remove(Atom(TRIPLE_RELATION, arg))

    def run_op(self, op: Op) -> Any:
        return self._apply(self.session, op)

    def check(self, op: Op, output: Any) -> bool:
        self.outputs.append(output)
        if op[0] == "read":
            return True  # judged against the second backend in verify()
        # Read-your-writes, as a point lookup that leaves the cache alone.
        present = Atom(TRIPLE_RELATION, op[1]) in self.session.database
        return present is (op[0] == "write.add")

    def _replay_on_memory(self, bands: int, ops: List[Op]) -> tuple:
        """The op list on a memory-backend session.  The database only
        ever differs from the loaded one by the pending triple, so a read's
        expected answers are memoized per (pending triple, query)."""
        model = Session(self._graph(bands), backend="memory", cache=False)
        memo: Dict[tuple, Any] = {}
        pending = None
        expected = []
        for op in ops:
            if op[0] == "read":
                key = (pending, op[1])
                if key not in memo:
                    memo[key] = self._apply(model, op)
                expected.append(memo[key])
            else:
                expected.append(self._apply(model, op))
                pending = op[1] if op[0] == "write.add" else None
        return model, expected

    def verify(self) -> List[str]:
        problems: List[str] = []
        ops = self.op_lists[0]
        model, expected = self._replay_on_memory(self.bands, ops)
        wrong = sum(
            1 for op, got, want in zip(ops, self.outputs, expected)
            if op[0] == "read" and got != want
        )
        if wrong:
            problems.append("%d reads disagree with the memory backend" % wrong)
        # Durability of every acknowledged write: reopen the file.
        writes = sum(1 for op in ops if op[0] != "read")
        self.session.database.close()
        reopened = Session(backend="sqlite", path=self.path)
        try:
            if set(reopened.database.facts()) != set(model.database.facts()):
                problems.append("reopened file does not hold every acknowledged write")
            if reopened.database.data_version != self.loaded_version + writes:
                problems.append("reopened data_version lost a write")
            self.facts["facts"] = reopened.size
        finally:
            reopened.database.close()
        self.session = None  # closed above; teardown only removes the file
        self.facts["writes"] = writes
        self.facts["reads_digest"] = digest(
            [digest(o) for op, o in zip(ops, self.outputs) if op[0] == "read"]
        )
        # Small scale against Definition 2.
        small = Session(self._graph(4), cache=False)
        problems += common.reference_mismatches(
            self.name, small, [("band", common.band_query(1, 1), False)]
        )
        return problems

    def begin_replay(self) -> None:
        self.outputs = []

    def probes(self, replay: Any) -> Dict[str, float]:
        session = self.session
        cache = session.result_cache.stats()
        writes = sorted(
            latency for op, latency in zip(replay.ops, replay.untraced.raw)
            if op[0] != "read"
        )
        # The SQL kernel runs the whole join tree inside SQLite, so the
        # Python-side phase and kernel spans are truly 0 on this backend.
        out = common.span_probes(replay)
        out.update(common.evaluation_probes(
            [(session, query, 1) for query in self.queries[:3]]
        ))
        out.update(common.planner_probes(session.planner))
        out.update({
            "storage.load_s": self.load_s,
            "storage.write_us_p50": percentile(writes, 0.5) * 1e6,
            "storage.version_bumps":
                float(session.database.data_version - self.loaded_version),
            "storage.cache_hit_rate": float(cache["hit_rate"]),
            "storage.cache_evictions": float(cache["evictions"]),
            "storage.file_bytes_per_fact": os.path.getsize(self.path) / session.size,
        })
        return out
