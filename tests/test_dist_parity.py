"""Property-based parity: the sharded backend is observationally
identical to memory and SQLite.

Random workloads run against :class:`repro.dist.backend.ShardedBackend`
at 1/2/4 shards and must return exactly the single-process answers —
through the Session evaluators (``query``/``query_maximal``, with and
without the result cache and resource budgets) and through the planner's
router on acyclic CQs, where a sharded database takes the distributed
Yannakakis shard program.  The recovery tests crash shard processes
(both via the in-worker crash hook and an external ``SIGKILL``) and
assert the query still answers correctly after the automatic
WAL-rebuild-and-retry; a permanently failing fleet must surface a clean
:class:`~repro.exceptions.ReproError`, never a raw
``BrokenProcessPool``.
"""

import os
import pickle
import signal

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.atoms import atom  # noqa: E402
from repro.dist.backend import ShardedBackend  # noqa: E402
from repro.dist.exec import ShardFailure  # noqa: E402
from repro.engine import Session  # noqa: E402
from repro.exceptions import ReproError, ResourceBudgetExceeded  # noqa: E402
from repro.planner.planner import Planner  # noqa: E402
from repro.relalg.config import MODE_AUTO, force_kernels  # noqa: E402
from repro.storage import MemoryBackend, SQLiteBackend  # noqa: E402
from repro.telemetry.obslog import QueryLog  # noqa: E402
from repro.telemetry.resources import ResourceBudget  # noqa: E402
from repro.telemetry.tracer import Tracer, tracing  # noqa: E402
from repro.workloads.generators import (  # noqa: E402
    path_cq,
    random_database,
    random_wdpt,
    star_cq,
)

RELATIONS = ("E", "F")
SHARD_COUNTS = (1, 2, 4)


@pytest.fixture(autouse=True)
def _auto_kernels():
    """Only ``auto`` mode selects the dist kernel this module is about:
    pin it, so the suite also passes under ``REPRO_KERNELS=columnar``."""
    with force_kernels(MODE_AUTO):
        yield


def _facts(seed, n_facts=15, domain_size=3):
    return random_database(
        n_facts, relations=RELATIONS, domain_size=domain_size, seed=seed
    ).facts()


def _query(seed):
    # Kept small (one atom and one fresh variable per node): free-variable
    # counts beyond a handful make the answer space explode combinatorially,
    # and the property needs many examples, not big ones.
    return random_wdpt(
        depth=2,
        fanout=2,
        atoms_per_node=1,
        fresh_vars_per_node=1,
        relations=RELATIONS,
        seed=seed,
    )


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_wdpt_parity_across_shard_counts(seed):
    facts = _facts(seed)
    query = _query(seed)
    with Session(MemoryBackend(facts), cache=False) as s_mem:
        expected = s_mem.query(query).answers
        expected_max = s_mem.query_maximal(query).answers
    with Session(SQLiteBackend(facts), cache=False) as s_sql:
        assert s_sql.query(query).answers == expected
    for shards in SHARD_COUNTS:
        with Session(
            list(facts), backend="sharded", shards=shards, cache=False
        ) as session:
            assert session.query(query).answers == expected, shards
            assert session.query_maximal(query).answers == expected_max, shards


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10 ** 6),
    length=st.integers(min_value=1, max_value=4),
    rays=st.integers(min_value=1, max_value=3),
)
def test_acyclic_cq_parity(seed, length, rays):
    # The planner's router resolves the ``dist`` kernel for a sharded
    # database: the whole Yannakakis run fans out as a shard program.
    facts = _facts(seed, n_facts=30, domain_size=5)
    mem = MemoryBackend(facts)
    sharded = ShardedBackend(facts, shards=2)
    try:
        for q in (path_cq(length), star_cq(rays)):
            assert Planner().evaluate_cq(q, mem) == Planner().evaluate_cq(
                q, sharded
            )
    finally:
        sharded.shutdown()


def test_sharded_backend_selects_dist_kernel():
    from repro.relalg.config import KERNEL_DIST, choose_kernel

    backend = ShardedBackend([atom("E", 1, 2)], shards=2)
    try:
        assert choose_kernel(backend) == KERNEL_DIST
    finally:
        backend.shutdown()


def test_budget_parity_and_enforcement():
    facts = _facts(3, n_facts=30, domain_size=4)
    query = _query(3)
    generous = ResourceBudget(hard_intermediate_rows=10 ** 6)
    with Session(MemoryBackend(facts), cache=False, budgets=generous) as s_mem:
        expected = s_mem.query(query).answers
    with Session(
        list(facts), backend="sharded", shards=2, cache=False, budgets=generous
    ) as session:
        result = session.query(query)
        assert result.answers == expected
        # The shard program reports its global row cardinalities to the
        # coordinator's resource monitor.
        assert result.resources.peak_intermediate_rows > 0

    tiny = ResourceBudget(hard_intermediate_rows=1)
    with Session(
        list(facts), backend="sharded", shards=2, cache=False, budgets=tiny
    ) as session:
        with pytest.raises(ResourceBudgetExceeded):
            session.query(query)


def test_cache_and_mutation_parity():
    facts = _facts(7)
    query = _query(7)
    with Session(MemoryBackend(facts), cache=True) as s_mem, Session(
        list(facts), backend="sharded", shards=2, cache=True
    ) as s_dist:
        assert s_dist.query(query).answers == s_mem.query(query).answers
        # Second run is a version-stamped cache hit on both sessions.
        assert s_dist.query(query).answers == s_mem.query(query).answers
        extra = [atom("E", 0, 1), atom("F", 1, 2), atom("E", 2, 0)]
        assert s_mem.database.add_many(extra) == s_dist.database.add_many(extra)
        victim = sorted(s_mem.database.facts(), key=repr)[0]
        s_mem.database.remove(victim)
        s_dist.database.remove(victim)
        assert s_mem.database == s_dist.database
        # The caches are version-stamped: both sessions re-evaluate against
        # the mutated database (the shards replay their WAL suffix).
        assert s_dist.query(query).answers == s_mem.query(query).answers


@pytest.mark.parametrize("kind", ["memory", "sqlite", "sharded"])
def test_add_many_bumps_version_once(kind):
    db = {
        "memory": MemoryBackend,
        "sqlite": SQLiteBackend,
        "sharded": lambda: ShardedBackend(shards=2),
    }[kind]()
    try:
        before = db.data_version
        batch = [atom("E", 1, 2), atom("E", 2, 3), atom("F", 1, 1)]
        assert db.add_many(batch) == 3
        assert db.data_version == before + 1
        # A batch of pure duplicates is a no-op: no new version, so
        # version-stamped caches stay valid.
        assert db.add_many(batch) == 0
        assert db.data_version == before + 1
    finally:
        shutdown = getattr(db, "shutdown", None)
        if shutdown is not None:
            shutdown()


def test_session_env_and_kwarg_wiring(monkeypatch):
    facts = _facts(9)
    query = _query(9)
    with Session(MemoryBackend(facts), cache=False) as s_mem:
        expected = s_mem.query(query).answers
    monkeypatch.setenv("REPRO_BACKEND", "sharded")
    monkeypatch.setenv("REPRO_SHARDS", "3")
    with Session(list(facts), cache=False) as session:
        assert isinstance(session.database, ShardedBackend)
        assert session.database.shards == 3
        assert session.query(query).answers == expected
    monkeypatch.delenv("REPRO_BACKEND")
    monkeypatch.delenv("REPRO_SHARDS")
    # ``shards=`` alone implies the sharded backend.
    with Session(list(facts), shards=2, cache=False) as session:
        assert isinstance(session.database, ShardedBackend)
        assert session.database.shards == 2
        assert session.query(query).answers == expected


def test_sharded_backend_pickles_to_memory():
    # Crossing a process boundary (e.g. into a run_batch worker) must not
    # spawn nested shard fleets: the pickle round-trip demotes to a plain
    # in-memory backend with the same facts and version.
    backend = ShardedBackend(_facts(1), shards=2)
    try:
        clone = pickle.loads(pickle.dumps(backend))
        assert isinstance(clone, MemoryBackend)
        assert clone == backend
        assert clone.data_version == backend.data_version
    finally:
        backend.shutdown()


# ---------------------------------------------------------------------------
# Robustness: shard death, WAL rebuild, retry
# ---------------------------------------------------------------------------
def test_crashed_shard_rebuilds_and_query_retries():
    facts = _facts(11, n_facts=25, domain_size=4)
    q = path_cq(2)
    expected = Planner().evaluate_cq(q, MemoryBackend(facts))
    log = QueryLog()
    backend = ShardedBackend(facts, shards=2)
    backend.attach_telemetry(obslog=log)
    try:
        planner = Planner()
        assert planner.evaluate_cq(q, backend) == expected
        pids = backend.shard_pids()
        backend.fail_shard_next(0)  # the shard's next RPC dies abruptly
        assert planner.evaluate_cq(q, backend) == expected
        assert backend.shard_pids()[0] != pids[0], "shard 0 was not respawned"
        assert log.events("dist.retry")
        assert log.events("dist.shard_rebuilt")
    finally:
        backend.shutdown()


def test_sigkilled_shard_recovers():
    facts = _facts(13, n_facts=25, domain_size=4)
    q = star_cq(2)
    expected = Planner().evaluate_cq(q, MemoryBackend(facts))
    backend = ShardedBackend(facts, shards=2)
    try:
        pids = backend.shard_pids()
        os.kill(pids[1], signal.SIGKILL)
        assert Planner().evaluate_cq(q, backend) == expected
    finally:
        backend.shutdown()


def test_double_failure_is_a_clean_error(monkeypatch):
    import repro.dist.backend as dist_backend

    backend = ShardedBackend(_facts(2), shards=2)
    try:

        def always_dead(*args, **kwargs):
            raise ShardFailure({0})

        monkeypatch.setattr(dist_backend, "run_program", always_dead)
        with pytest.raises(ReproError, match="retry after rebuilding"):
            backend.dist_yannakakis([atom("E", "?x", "?y")], {}, ())
    finally:
        backend.shutdown()


# ---------------------------------------------------------------------------
# Telemetry through the shard envelopes
# ---------------------------------------------------------------------------
def test_dist_obslog_events_and_shard_metrics():
    log = QueryLog()
    facts = _facts(5, n_facts=20, domain_size=3)
    query = _query(5)
    with Session(
        list(facts), backend="sharded", shards=2, cache=False, obslog=log
    ) as session:
        session.query(query)
        exchanges = log.events("dist.exchange_rows")
        assert exchanges and all(ev["shards"] == 2 for ev in exchanges)
        assert log.events("dist.shard_ms")
        timings = session.planner.metrics.labeled_histograms(
            "dist.shard_ms", "shard"
        )
        assert set(timings) == {"s0", "s1"}


def _span_names(span):
    yield span["name"]
    for child in span.get("children", ()):
        for name in _span_names(child):
            yield name


def test_dist_spans_grafted_from_shard_workers():
    facts = _facts(6, n_facts=20, domain_size=3)
    q = path_cq(2)
    backend = ShardedBackend(facts, shards=2)
    try:
        tracer = Tracer()
        with tracing(tracer):
            Planner().evaluate_cq(q, backend)
        names = [
            name
            for root in tracer.roots
            for name in _span_names(root.to_dict())
        ]
        assert "yannakakis.dist" in names
        # Worker-side spans ride home in the reply envelopes and are
        # grafted under the coordinator's tree.
        assert "dist.shard" in names
    finally:
        backend.shutdown()
