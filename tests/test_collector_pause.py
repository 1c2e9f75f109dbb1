"""The cyclic collector is paused around answer builds, and only there.

Building an answer set allocates one tracked object per answer, so with
the collector on a ``path_cq(5)`` build runs dozens of generation-0
passes that find nothing.  ``repro.collector.collector_paused``
switches it off for the build: these tests pin where the pause holds,
that it is shared by nested and concurrent entries (answer builds on
several threads, the profiler's frame walk), that every way out of a
build — a budget kill included — puts the collector back as it was, and
the licence for the whole idea: the builds make no reference cycles.

Threads are gated with ``threading.Barrier``/``Event``, never by sleeping.
"""

from __future__ import annotations

import contextlib
import gc
import sys
import threading

import pytest

from bench.workloads.eval_join import _queries, join_facts
from repro.core.atoms import atom
from repro.core.cq import cq
from repro.core.database import Database
from repro.cqalgs import structured, yannakakis
from repro.cqalgs.structured import evaluate_bounded_treewidth
from repro.cqalgs.yannakakis import evaluate_acyclic
from repro.engine import Session
from repro.exceptions import ResourceBudgetExceeded
from repro.collector import collector_paused
from repro.storage.sqlite import SQLiteBackend
from repro.telemetry.profiler import SamplingProfiler
from repro.telemetry.resources import ResourceBudget, ResourceMonitor
from repro.wdpt import evaluation
from repro.wdpt.evaluation import maximal_homomorphisms
from repro.wdpt.wdpt import WDPT, wdpt_from_nested
from repro.workloads.datasets import music_catalog
from repro.workloads.families import figure1_wdpt
from repro.workloads.generators import path_cq

#: How long a gated thread waits before the test gives up (a hang guard,
#: not a timing assumption: every wait is released by an event).
PATIENCE = 30.0

#: The ``eval_join`` database at the workload's full scale:
#: ``path_cq(5)`` has 5 552 answers on it.
FULL = dict(seed=1, vertices=1500, chain=2500)


@pytest.fixture(autouse=True)
def collector_left_on():
    assert gc.isenabled()
    yield
    leaked = not gc.isenabled()
    gc.enable()
    assert not leaked, "the collector was left paused"


@pytest.fixture(scope="module")
def join_db():
    return Database(join_facts(FULL["seed"], FULL["vertices"], FULL["chain"]))


#: A small ``eval_join`` database, plus ten triangles for the cyclic CQs.
SMALL = join_facts(2, 120, 200) + [
    atom("E", 1000 + 3 * t + i, 1000 + 3 * t + (i + 1) % 3)
    for t in range(10)
    for i in range(3)
]


@pytest.fixture(scope="module")
def small_db():
    return Database(SMALL)


def _spy(monkeypatch, module, name, seen):
    """Replace ``module.name`` by a wrapper that records ``gc.isenabled()``
    under ``name`` in ``seen`` on every call."""
    real = getattr(module, name)

    def spy(*args, **kwargs):
        seen.append((name, gc.isenabled()))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


def _join(threads) -> None:
    for thread in threads:
        thread.join(PATIENCE)
        assert not thread.is_alive()


def _collections_during(build) -> int:
    """How many collections start while ``build()`` runs."""
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(hook)
    try:
        build()
    finally:
        gc.callbacks.remove(hook)
    return len(starts)


TRIANGLE = [atom("E", "?x", "?y"), atom("E", "?y", "?z"), atom("E", "?z", "?x")]


# ---------------------------------------------------------------------------
# The guard itself
# ---------------------------------------------------------------------------
def test_the_pause_restores_the_collector_on_every_way_out():
    with collector_paused:
        assert not gc.isenabled()
        with collector_paused:
            assert not gc.isenabled()
        assert not gc.isenabled()  # the outer entry still holds it
    assert gc.isenabled()
    with pytest.raises(KeyError):
        with collector_paused:
            raise KeyError("boom")
    assert gc.isenabled()


def test_overlapping_pauses_on_two_threads_are_one_pause():
    # A enters, B enters, A leaves, B leaves: only B's exit re-enables.
    a_in, b_in, a_out, b_go = (threading.Event() for _ in range(4))
    states = {}

    def first():
        with collector_paused:
            a_in.set()
            assert b_in.wait(PATIENCE)
        a_out.set()

    def second():
        assert a_in.wait(PATIENCE)
        with collector_paused:
            b_in.set()
            assert b_go.wait(PATIENCE)
        states["after B"] = gc.isenabled()

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    assert a_out.wait(PATIENCE)
    states["after A"] = gc.isenabled()
    b_go.set()
    _join(threads)
    assert states == {"after A": False, "after B": True}


def test_a_host_that_disabled_the_collector_finds_it_disabled(small_db):
    gc.disable()
    try:
        assert evaluate_acyclic(path_cq(3), small_db)
        with collector_paused:
            pass
        assert not gc.isenabled()
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Where it holds
# ---------------------------------------------------------------------------
def test_an_acyclic_answer_build_runs_with_the_collector_off(monkeypatch, small_db):
    seen = []
    _spy(monkeypatch, yannakakis, "columnar_join_phase", seen)
    _spy(monkeypatch, yannakakis, "to_mappings", seen)
    assert evaluate_acyclic(path_cq(3), small_db)
    assert seen == [("columnar_join_phase", False), ("to_mappings", False)]
    assert gc.isenabled()


def test_a_decomposition_build_runs_with_the_collector_off(monkeypatch, small_db):
    seen = []
    _spy(monkeypatch, structured, "columnar_join_phase", seen)
    _spy(monkeypatch, structured, "to_mappings", seen)
    assert evaluate_bounded_treewidth(cq(["?x", "?y", "?z"], TRIANGLE), small_db)
    assert seen == [("columnar_join_phase", False), ("to_mappings", False)]
    assert gc.isenabled()


def test_a_wdpt_evaluation_runs_with_the_collector_off(monkeypatch):
    seen = []
    _spy(monkeypatch, yannakakis, "columnar_join_phase", seen)
    _spy(monkeypatch, evaluation, "to_mappings", seen)
    with Session(music_catalog(n_bands=10), cache=False) as session:
        assert session.query(figure1_wdpt()).answers
    # One node relation per evaluated node, then the answers.
    assert seen and all(enabled is False for _, enabled in seen)
    assert seen[-1][0] == "to_mappings"
    assert gc.isenabled()


def test_boolean_runs_keep_the_collector_on(monkeypatch, small_db):
    seen = []
    _spy(monkeypatch, yannakakis, "semijoin_reduce", seen)
    query = path_cq(3)
    atoms = sorted(query.atoms)
    links = yannakakis.join_tree_of_atoms(atoms)
    assert yannakakis.satisfiable_with_join_tree(
        atoms, yannakakis.join_tree_shape(links, len(atoms)), small_db
    )
    assert seen == [("semijoin_reduce", True)]


def test_no_collection_starts_inside_a_path5_build(monkeypatch, join_db):
    def build():
        assert len(evaluate_acyclic(path_cq(5), join_db)) == 5552

    assert _collections_during(build) == 0
    # The same build without the pause: the collector runs dozens of
    # passes over the answers built so far.
    monkeypatch.setattr(yannakakis, "collector_paused", contextlib.nullcontext())
    assert _collections_during(build) > 10


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_a_budget_kill_in_the_join_phase_leaves_the_collector_on(
    monkeypatch, join_db, backend
):
    db = join_db if backend == "memory" else SQLiteBackend(join_db.facts())
    seen = []
    _spy(monkeypatch, yannakakis, "columnar_join_phase", seen)
    # Every scan fits (at most one row per E fact); the join phase, which
    # builds 5 552 answers, does not.
    rows = sum(1 for fact in join_db.facts() if fact.relation == "E")
    with pytest.raises(ResourceBudgetExceeded):
        with ResourceMonitor(ResourceBudget(hard_intermediate_rows=rows)):
            evaluate_acyclic(path_cq(5), db)
    assert seen == [("columnar_join_phase", False)]
    assert gc.isenabled()


# ---------------------------------------------------------------------------
# Concurrent builds and the profiler
# ---------------------------------------------------------------------------
def _gate_frame_walk(monkeypatch):
    """Hold the profiler's first ``sys._current_frames()`` call until the
    returned ``release`` is set; ``inside`` is set once it is held."""
    inside, release = threading.Event(), threading.Event()
    real = sys._current_frames

    def gated():
        if not inside.is_set():
            inside.set()
            assert release.wait(PATIENCE)
        return real()

    monkeypatch.setattr(sys, "_current_frames", gated)
    return inside, release


def test_the_frame_walk_shares_the_pause_of_the_build_it_starts_in(
    monkeypatch, small_db
):
    # The sampler starts its walk while a build holds the pause, and the
    # build ends first.  Two private pauses would let the build's exit turn
    # the collector on under the walk — or, with the exit landing between
    # the walk's isenabled() and disable(), leave it off for good.
    inside, release = _gate_frame_walk(monkeypatch)
    profiler = SamplingProfiler(hz=1000, gc_stats=False)
    real_join = yannakakis.columnar_join_phase

    def join_under_a_walk(*args):
        profiler.start()
        assert inside.wait(PATIENCE)
        return real_join(*args)

    monkeypatch.setattr(yannakakis, "columnar_join_phase", join_under_a_walk)
    try:
        assert evaluate_acyclic(path_cq(3), small_db)
        assert not gc.isenabled()  # the walk still holds the one pause
    finally:
        release.set()
        profiler.stop()
    assert gc.isenabled()


def test_eight_threads_of_builds_under_a_1000_hz_profiler(monkeypatch, small_db):
    query = path_cq(3)
    expected = evaluate_acyclic(query, small_db)
    inside, release = _gate_frame_walk(monkeypatch)
    correct = []

    def round_of_builds():
        barrier = threading.Barrier(8)

        def build():
            barrier.wait(PATIENCE)
            correct.append(evaluate_acyclic(query, small_db) == expected)

        threads = [threading.Thread(target=build) for _ in range(8)]
        for thread in threads:
            thread.start()
        _join(threads)

    profiler = SamplingProfiler(hz=1000, gc_stats=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the guard's steps
    try:
        with profiler:
            try:
                assert inside.wait(PATIENCE)
                # Every build enters and leaves while the walk holds the pause.
                round_of_builds()
                assert not gc.isenabled()
            finally:
                release.set()
            # Then the builds race the sampler's walks freely.
            round_of_builds()
    finally:
        sys.setswitchinterval(interval)
    assert correct == [True] * 16
    assert profiler.ticks > 1
    assert gc.isenabled()


# ---------------------------------------------------------------------------
# The licence for the pause: answer builds make no reference cycles
# ---------------------------------------------------------------------------
def _builds():
    """(name, facts, run) per answer build of the ``eval_join``
    workload, plus Figure 1 under ``query_maximal``, the top-down
    evaluator's maximal homomorphisms, a cyclic OPT label and the
    Theorem 2 engine."""
    join = join_facts(FULL["seed"], FULL["vertices"], FULL["chain"])
    for kind, query in sorted(_queries().items()):
        if isinstance(query, WDPT):
            yield kind, join, lambda s, q=query: s.query(q).answers
        else:
            yield kind, join, lambda s, q=query: s.planner.evaluate_cq(q, s.database)
    # Queries are built once, outside the runs: parsing is not a build.
    music, figure1 = music_catalog(n_bands=40), figure1_wdpt()
    yield "figure1.query_maximal", music, lambda s: s.query_maximal(figure1).answers
    yield "figure1.maximal_homomorphisms", music, (
        lambda s: maximal_homomorphisms(figure1, s.database)
    )
    cyclic_opt = wdpt_from_nested(
        ([atom("E", "?x", "?y")], [(TRIANGLE, [])]), free_variables=["?x", "?z"]
    )
    yield "wdpt.cyclic_opt", SMALL, lambda s: s.query(cyclic_opt).answers
    triangle = cq(["?x", "?y", "?z"], TRIANGLE)
    yield "cq.triangle_tw", SMALL, (
        lambda s: evaluate_bounded_treewidth(triangle, s.database)
    )


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_answer_builds_make_no_reference_cycles(backend):
    sessions = {}
    found = {}
    for name, facts, run in _builds():
        session = sessions.get(id(facts))
        if session is None:
            session = sessions[id(facts)] = Session(facts, backend=backend, cache=False)
        assert run(session)  # warm: plans, join trees, codecs
        gc.collect()
        gc.disable()
        try:
            answers = run(session)
            assert answers
            del answers
            found[name] = gc.collect()
        finally:
            gc.enable()
    for session in sessions.values():
        session.close()
    assert found == dict.fromkeys(found, 0)
    assert len(found) == 9
