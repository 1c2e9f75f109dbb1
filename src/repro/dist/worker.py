"""Shard-process side of :mod:`repro.dist`.

Each shard is one long-lived worker process (a single-worker
:class:`~repro.parallel.pool.WorkerPool`) holding its partition of the
database as a worker-local :class:`~repro.storage.memory.MemoryBackend`
— the same module-global-state idiom as the batch layer's per-worker
sessions (:mod:`repro.parallel.batch`).  The coordinator drives it with
small **RPC tasks** shipped through :meth:`WorkerPool.submit`:

``("<op>", payload, trace_id, want_trace, profile_hz)``

and every reply is the library's standard process-worker envelope
(:class:`repro.parallel.batch.Envelope`) stamped with this shard's
label, so spans and profiler samples recorded here are attributed per
shard when the coordinator absorbs them.

The query ops operate on the shard's **fragments** — its local columnar
relations, one per join-tree atom, kept in module state between RPCs so
the semi-join sweeps never re-ship relations.  A fragment's cells are
codes of this shard's own term dictionary and mean nothing elsewhere:
every row that leaves the process is decoded to ``Constant``s first, and
every key set that arrives is ``Constant``s, encoded on arrival:

* ``scan``      — materialise the fragments of a query's atoms;
* ``keys``      — distinct projections of fragments onto shared
  variables (the *exchange* payload: what crosses shard boundaries is
  key sets, never whole relations);
* ``semijoin``  — filter fragments by coordinator-supplied key sets;
* ``gather``    — project fragments onto their still-needed variables
  and ship the (deduplicated) rows home for the final merge.

Maintenance ops: ``ping`` (liveness + pid), ``apply`` (replay pending
write-ahead-log entries), ``load`` (replace the whole partition), and
``fail_next`` (a test hook: the next RPC kills the process abruptly,
simulating a shard crash mid-query).
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Tuple

from ..exceptions import ReproError
from ..parallel.batch import Envelope
from ..parallel.pool import mark_process_worker, process_worker_id
from ..telemetry.context import trace_context
from ..telemetry.tracer import Tracer, current_tracer, tracing

__all__ = ["init_shard", "shard_call", "shard_label"]

# ---------------------------------------------------------------------------
# Worker-local shard state (module-level: one shard per process)
# ---------------------------------------------------------------------------
_shard_id: Optional[int] = None
_shard_db = None
#: The current query's per-atom fragments (columnar Relations), plus the
#: query id they belong to.  One slot: the coordinator serialises
#: distributed queries, so at most one query's state is live per shard.
_fragments: Optional[List[Any]] = None
_fragment_qid: Optional[int] = None
_die_next = False


def init_shard(shard_id: int, facts: Tuple[Any, ...]) -> None:
    """Process-pool initializer: build this shard's partition store."""
    global _shard_id, _shard_db
    from ..storage.memory import MemoryBackend

    mark_process_worker()
    _shard_id = shard_id
    _shard_db = MemoryBackend()
    _shard_db.add_many(facts)


def shard_label() -> str:
    return "s%d" % (_shard_id if _shard_id is not None else -1)


def shard_call(task: Tuple[str, Any, Optional[str], bool, Optional[int]]):
    """Run one coordinator RPC and return the standard envelope.

    The coordinator's ``trace_id`` is installed for the duration of the
    call; with ``want_trace`` a worker-local tracer records a
    ``dist.shard`` span (shipped home in the envelope and grafted into
    the coordinator's trace), and with ``profile_hz`` a worker-local
    sampling profiler runs at that rate so the samples collected during
    the call come home for per-shard attribution.
    """
    global _die_next
    if _die_next:
        os._exit(17)  # simulate a crashed shard: no cleanup, no reply
    op, payload, trace_id, want_trace, profile_hz = task
    profiler = None
    if profile_hz:
        from ..telemetry.profiler import ensure_profiler

        profiler = ensure_profiler(profile_hz)
        profiler.drain()  # keep only this call's samples for the envelope
    tracer = Tracer() if want_trace else None
    with trace_context(trace_id):
        with tracing(tracer) if tracer is not None else nullcontext():
            with current_tracer().span(
                "dist.shard", shard=shard_label(), op=op, trace_id=trace_id
            ):
                value = _dispatch(op, payload)
    span_dicts = (
        [root.to_dict() for root in tracer.roots] if tracer is not None else []
    )
    profile_dump = profiler.dump(drain=True) if profiler is not None else None
    return Envelope(
        value,
        process_worker_id(),
        span_dicts=span_dicts,
        profile_dump=profile_dump,
        shard=shard_label(),
    )


def _dispatch(op: str, payload: Any) -> Any:
    try:
        handler = _OPS[op]
    except KeyError:
        raise ReproError("unknown shard op %r" % (op,)) from None
    return handler(payload)


# ---------------------------------------------------------------------------
# Maintenance ops
# ---------------------------------------------------------------------------
def _op_ping(_payload: Any) -> Dict[str, Any]:
    return {"shard": _shard_id, "pid": os.getpid(), "facts": len(_shard_db)}


def _op_apply(payload) -> int:
    """Replay pending WAL entries ``[("add"|"discard", fact), ...]`` in
    order; returns the partition size afterwards."""
    for action, fact in payload:
        if action == "add":
            _shard_db.add(fact)
        else:
            _shard_db.discard(fact)
    return len(_shard_db)


def _op_load(payload) -> int:
    """Replace the whole partition (coordinator-side rebuild path)."""
    global _shard_db
    from ..storage.memory import MemoryBackend

    _shard_db = MemoryBackend()
    return _shard_db.add_many(payload)


def _op_fail_next(_payload: Any) -> bool:
    """Arm the crash hook: the *next* RPC exits the process abruptly."""
    global _die_next
    _die_next = True
    return True


# ---------------------------------------------------------------------------
# Query ops (fragments of the in-flight distributed query)
# ---------------------------------------------------------------------------
def _check_qid(qid: int) -> None:
    if _fragment_qid != qid:
        raise ReproError(
            "stale shard state: expected query %r, have %r"
            % (qid, _fragment_qid)
        )


def _op_scan(payload) -> List[int]:
    """Materialise this shard's fragment of every atom; return sizes."""
    global _fragments, _fragment_qid
    qid, atoms = payload
    from ..relalg.relation import scan

    _fragments = [scan(a, _shard_db) for a in atoms]
    _fragment_qid = qid
    return [len(rel) for rel in _fragments]


def _op_keys(payload) -> Dict[Any, List[Tuple[Any, ...]]]:
    """Distinct projections of fragments onto shared variables:
    ``[(tag, node, shared_vars), ...]`` → ``{tag: [key, ...]}``."""
    qid, requests = payload
    _check_qid(qid)
    return {tag: _decoded(_fragments[node], shared) for tag, node, shared in requests}


def _decoded(rel, variables) -> List[Tuple[Any, ...]]:
    """The distinct bindings of ``variables`` in ``rel``, as ``Constant``
    tuples in that order — the form in which rows leave the shard."""
    from ..relalg.relation import tuples_at

    decode = _shard_db.codec.decode
    keys = set(tuples_at(rel.rows, [rel.index[v] for v in variables]))
    return [tuple(map(decode, key)) for key in keys]


def _op_semijoin(payload) -> Dict[int, int]:
    """Filter fragments by coordinator-supplied key relations:
    ``[(node, shared_vars, keys), ...]`` → ``{node: new_size}``."""
    qid, filters = payload
    _check_qid(qid)
    from ..relalg.relation import Relation, semijoin

    codec = _shard_db.codec
    out: Dict[int, int] = {}
    for node, shared, keys in filters:
        arrived = Relation(shared, [tuple(map(codec.encode, key)) for key in keys], codec)
        _fragments[node] = semijoin(_fragments[node], arrived)
        out[node] = len(_fragments[node])
    return out


def _op_gather(payload) -> Dict[int, List[Tuple[Any, ...]]]:
    """Project fragments onto their still-needed variables and ship the
    deduplicated rows home: ``[(node, keep_vars), ...]`` → ``{node:
    rows}``.  Rows are aligned with the coordinator-supplied ``keep``
    order, so the union across shards needs no re-alignment.  Clears the
    query's fragment state."""
    global _fragments, _fragment_qid
    qid, wanted = payload
    _check_qid(qid)
    out = {node: _decoded(_fragments[node], keep) for node, keep in wanted}
    _fragments = None
    _fragment_qid = None
    return out


_OPS = {
    "ping": _op_ping,
    "apply": _op_apply,
    "load": _op_load,
    "fail_next": _op_fail_next,
    "scan": _op_scan,
    "keys": _op_keys,
    "semijoin": _op_semijoin,
    "gather": _op_gather,
}
