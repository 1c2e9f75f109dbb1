"""The distributed query executor: Yannakakis as a shard program.

:func:`run_program` compiles a join tree (the same ``atoms``/``links``
pair every other kernel consumes) into rounds of shard RPCs against a
:class:`~repro.dist.backend.ShardedBackend`:

1. **scan** — every shard materialises its fragment of every atom
   (tuples are hash-partitioned by fact, so each fragment is roughly
   ``1/N`` of the relation);
2. **semi-join sweeps** — the bottom-up and top-down passes run
   level-by-level; for each join-tree edge only *key sets* (distinct
   projections onto the edge's shared variables) cross shard
   boundaries, never whole relations.  Per edge the coordinator picks an
   exchange strategy: **broadcast** the global key set when it is small
   (``≤ broadcast_limit``), else a **targeted repartition** — a second
   key round collects the destination side's per-shard keys so each
   shard receives only the intersection it can possibly match;
3. **gather** — surviving fragments, projected down to the variables
   still needed above (free variables plus the interfaces to tree
   neighbours; join-tree connectedness makes this projection lossless),
   are shipped home and unioned, and the coordinator finishes with the
   ordinary columnar join/projection phase
   (:func:`repro.cqalgs.yannakakis.columnar_join_phase`) — so
   :func:`~repro.telemetry.resources.account_rows` budget accounting at
   the final merge sees the *global* row counts.

Emptiness short-circuits: a globally empty relation after the scan, or a
node emptied by the bottom-up sweep, ends the query immediately (for the
Boolean fast path, ``exists_only=True``, the up sweep alone decides).

Every RPC carries the coordinator's ``trace_id``; shard-side spans and
profiler samples come home in the standard process-worker envelope and
are grafted/absorbed here, labeled per shard.  Per-shard round-trip
times feed the ``dist.shard_ms`` histogram and total cross-shard rows
the ``dist.exchange_rows`` counter (both also summarised as obslog
events at query end).

A shard process dying mid-round surfaces as :class:`ShardFailure`
naming the dead shards; the backend owns recovery (rebuild from its
write-ahead relation log, retry once) — see
:meth:`~repro.dist.backend.ShardedBackend.dist_yannakakis`.
"""

from __future__ import annotations

import time
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Sequence, Set, Tuple

from ..cqalgs.yannakakis import columnar_join_phase
from ..hypergraphs.gyo import join_tree_shape
from ..parallel.batch import _graft_spans
from ..relalg.relation import Relation
from ..telemetry.context import current_trace_id
from ..telemetry.profiler import current_profiler
from ..telemetry.resources import account_rows
from ..telemetry.tracer import current_tracer

__all__ = ["BROADCAST_LIMIT", "ShardFailure", "run_program"]

#: Default per-edge key-set size up to which the global key set is
#: broadcast to every shard; larger edges use the targeted two-round
#: exchange.  Override per backend via ``broadcast_limit``.
BROADCAST_LIMIT = 1024


class ShardFailure(Exception):
    """One or more shard processes died mid-query.

    Carries the dead shard ids; the backend rebuilds exactly those
    partitions from its write-ahead log and retries the query once.
    """

    def __init__(self, dead: Set[int]):
        super().__init__("shard process(es) died: %s" % sorted(dead))
        self.dead = set(dead)


class _Exec:
    """Per-query coordinator state: RPC rounds + telemetry accumulation."""

    def __init__(self, backend, qid: int):
        self.backend = backend
        self.qid = qid
        self.shard_ids = list(range(backend.shards))
        self.exchange_rows = 0
        self.shard_ms: Dict[str, float] = {}
        tracer = current_tracer()
        self._tracer = tracer
        self._want_trace = bool(getattr(tracer, "enabled", False))
        profiler = current_profiler()
        if profiler is not None and not profiler.running:
            profiler = None
        self._profiler = profiler
        self._trace_id = current_trace_id()

    def round(self, op: str, payloads) -> Dict[int, Any]:
        """One RPC round: ``op`` on every shard, all in flight at once.

        ``payloads`` is either one payload for all shards or a
        ``{shard_id: payload}`` dict.  Returns ``{shard_id: value}``;
        raises :class:`ShardFailure` with the full set of shards whose
        process died during the round.
        """
        if not isinstance(payloads, dict):
            payloads = {sid: payloads for sid in self.shard_ids}
        hz = self._profiler.hz if self._profiler is not None else None
        futures: Dict[int, Any] = {}
        starts: Dict[int, float] = {}
        dead: Set[int] = set()
        for sid, payload in payloads.items():
            task = (op, payload, self._trace_id, self._want_trace, hz)
            starts[sid] = time.perf_counter()
            try:
                futures[sid] = self.backend.shard_submit(sid, task)
            except BrokenProcessPool:
                dead.add(sid)
        values: Dict[int, Any] = {}
        for sid, future in futures.items():
            try:
                envelope = future.result()
            except BrokenProcessPool:
                dead.add(sid)
                continue
            shard = envelope.shard
            elapsed_ms = (time.perf_counter() - starts[sid]) * 1000.0
            self.shard_ms[shard] = self.shard_ms.get(shard, 0.0) + elapsed_ms
            metrics = self.backend.metrics
            if metrics is not None:
                metrics.histogram(
                    "dist.shard_ms", labels={"shard": shard}
                ).observe(elapsed_ms)
            if envelope.span_dicts and self._want_trace:
                _graft_spans(self._tracer, envelope.span_dicts)
            if envelope.profile_dump and self._profiler is not None:
                self._profiler.absorb_dump(envelope.profile_dump)
            values[sid] = envelope.value
        if dead:
            raise ShardFailure(dead)
        return values

    def sweep(
        self,
        edges: Sequence[Tuple[int, int]],
        shared: Dict[Tuple[int, int], Tuple[Any, ...]],
        limit: int,
    ) -> Dict[int, int]:
        """One level of a semi-join sweep: for every ``(src, dst)`` edge,
        filter ``dst`` fragments by the *global* key set of ``src`` on
        the edge's shared variables.  Returns the new global size per
        destination node."""
        # Round A: collect each shard's distinct source-side keys.
        requests = [
            (tag, src, shared[(src, dst)]) for tag, (src, dst) in enumerate(edges)
        ]
        by_shard = self.round("keys", (self.qid, requests))
        global_keys: List[Set[Tuple[Any, ...]]] = [set() for _ in edges]
        for keys_by_tag in by_shard.values():
            for tag, keys in keys_by_tag.items():
                self.exchange_rows += len(keys)
                global_keys[tag].update(keys)
        # Round B (large edges only): the destination side's per-shard
        # keys, so each shard is sent just the intersection it can match.
        targeted = [
            tag for tag, keys in enumerate(global_keys)
            if len(keys) > limit and shared[edges[tag]]
        ]
        dst_keys: Dict[int, Dict[int, Set[Tuple[Any, ...]]]] = {}
        if targeted:
            requests_b = [
                (tag, edges[tag][1], shared[edges[tag]]) for tag in targeted
            ]
            by_shard_b = self.round("keys", (self.qid, requests_b))
            for sid, keys_by_tag in by_shard_b.items():
                self.exchange_rows += sum(len(k) for k in keys_by_tag.values())
                dst_keys[sid] = {
                    tag: set(keys) for tag, keys in keys_by_tag.items()
                }
        # Round C: ship the filters and apply them shard-side.
        filters_by_shard: Dict[int, Any] = {}
        for sid in self.shard_ids:
            filters = []
            for tag, (src, dst) in enumerate(edges):
                if tag in dst_keys.get(sid, {}):
                    keys = sorted(
                        global_keys[tag] & dst_keys[sid][tag], key=repr
                    )
                else:
                    keys = sorted(global_keys[tag], key=repr)
                self.exchange_rows += len(keys)
                filters.append((dst, shared[(src, dst)], keys))
            filters_by_shard[sid] = (self.qid, filters)
        sizes_by_shard = self.round("semijoin", filters_by_shard)
        new_sizes: Dict[int, int] = {}
        for sizes in sizes_by_shard.values():
            for node, size in sizes.items():
                new_sizes[node] = new_sizes.get(node, 0) + size
        return new_sizes


def _needed_variables(atoms, links, frees) -> List[Tuple[Any, ...]]:
    """Per node, the variables the coordinator still needs after gather:
    free variables plus the interfaces to the node's tree neighbours.
    Join-tree connectedness (a variable's occurrences form a subtree)
    makes projecting everything else away shard-side lossless."""
    free_set = frozenset(frees)
    atom_vars = [a.variables() for a in atoms]
    needed = [set(v & free_set) for v in atom_vars]
    for child, parent in links:
        interface = atom_vars[child] & atom_vars[parent]
        needed[child] |= interface
        needed[parent] |= interface
    return [tuple(sorted(keep, key=repr)) for keep in needed]


def run_program(
    backend,
    atoms: Sequence[Any],
    links: Sequence[Tuple[int, int]],
    frees: Sequence[Any],
    exists_only: bool = False,
):
    """Run Yannakakis over ``backend``'s shards; see the module docstring.

    Returns the answers as a :class:`~repro.relalg.relation.Relation`, or
    a ``bool`` with ``exists_only`` (the Boolean fast path: the up sweep
    alone decides).
    Raises :class:`ShardFailure` when a shard process dies — recovery
    and the single retry live in the backend, not here.
    """
    n = len(atoms)
    tracer = current_tracer()
    ex = _Exec(backend, backend.next_qid())
    limit = int(getattr(backend, "broadcast_limit", BROADCAST_LIMIT))
    tree = join_tree_shape(links, n)
    children, levels = tree.children, tree.levels
    #: Per join-tree edge, both orientations: the variables it joins on.
    shared: Dict[Tuple[int, int], Tuple[Any, ...]] = {}
    for child, parent in links:
        common = tuple(sorted(atoms[child].variables() & atoms[parent].variables()))
        shared[(child, parent)] = shared[(parent, child)] = common

    #: What comes home from the shards is ``Constant`` rows; the gathered
    #: relations are re-encoded in the coordinator's own codec, so the
    #: answers can meet relations scanned from (or packed for) ``backend``.
    codec = backend.codec
    empty: Any = False if exists_only else Relation(sorted(frees, key=repr), [], codec)
    with tracer.span(
        "yannakakis.dist",
        atoms=n, shards=backend.shards, qid=ex.qid, boolean=exists_only,
    ) as y_span:
        # Phase 0: shard-local scans; sizes are per-fragment, summed here.
        with tracer.span("yannakakis.dist.scan") as sp:
            sizes_by_shard = ex.round("scan", (ex.qid, tuple(atoms)))
            global_sizes = [
                sum(sizes[i] for sizes in sizes_by_shard.values())
                for i in range(n)
            ]
            account_rows(max(global_sizes))
            if tracer.enabled:
                sp.set(relation_sizes=global_sizes)
        if not all(global_sizes):
            _finish(ex, answers=0, short_circuit="empty_scan")
            return empty
        # Phase 1: bottom-up semi-joins, deepest level first.  A node
        # emptied globally empties the root along the sweep — exit now.
        emptied = False
        with tracer.span("yannakakis.dist.semijoin_up") as sp:
            for level in reversed(levels):
                edges = [
                    (child, parent)
                    for parent in level
                    for child in children[parent]
                ]
                if not edges:
                    continue
                new_sizes = ex.sweep(edges, shared, limit)
                if not all(new_sizes.values()):
                    emptied = True
                    break
            if tracer.enabled:
                sp.set(exchange_rows=ex.exchange_rows)
        if emptied:
            _finish(ex, answers=0, short_circuit="semijoin_up")
            return empty
        if exists_only:
            _finish(ex, answers=1, short_circuit="exists")
            if tracer.enabled:
                y_span.set(satisfiable=True)
            return True
        # Phase 2: top-down semi-joins, root level first.
        with tracer.span("yannakakis.dist.semijoin_down") as sp:
            for level in levels:
                edges = [
                    (parent, child)
                    for parent in level
                    for child in children[parent]
                ]
                if edges:
                    ex.sweep(edges, shared, limit)
            if tracer.enabled:
                sp.set(exchange_rows=ex.exchange_rows)
        # Phase 3: gather the surviving fragments (projected down to the
        # still-needed variables) and merge on the coordinator.
        needed = _needed_variables(atoms, links, frees)
        with tracer.span("yannakakis.dist.gather") as sp:
            wanted = [(node, needed[node]) for node in range(n)]
            rows_by_shard = ex.round("gather", (ex.qid, wanted))
            relations: List[Relation] = []
            gathered = 0
            for node in range(n):
                rows: Set[Tuple[Any, ...]] = set()
                for shard_rows in rows_by_shard.values():
                    rows.update(shard_rows[node])
                gathered += len(rows)
                relations.append(Relation(
                    needed[node], [tuple(map(codec.encode, row)) for row in rows], codec
                ))
            ex.exchange_rows += gathered
            account_rows(gathered)
            if tracer.enabled:
                sp.set(relation_sizes=[len(r) for r in relations])
        result: Relation = columnar_join_phase(frozenset(frees), relations, tree)
        _finish(ex, answers=len(result))
        if tracer.enabled:
            y_span.set(answers=len(result), exchange_rows=ex.exchange_rows)
    return result


def _finish(ex: _Exec, answers: int, short_circuit: str = "") -> None:
    """Book the query's exchange totals into metrics and the obslog."""
    backend = ex.backend
    if backend.metrics is not None:
        backend.metrics.counter("dist.exchange_rows").inc(ex.exchange_rows)
    log = backend.obslog
    if log is not None:
        log.emit(
            "dist.exchange_rows",
            qid=ex.qid,
            shards=backend.shards,
            rows=ex.exchange_rows,
            answers=answers,
            **({"short_circuit": short_circuit} if short_circuit else {}),
        )
        log.emit(
            "dist.shard_ms",
            qid=ex.qid,
            per_shard={k: round(v, 3) for k, v in sorted(ex.shard_ms.items())},
        )
