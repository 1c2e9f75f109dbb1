"""Tests for the span-aware sampling profiler: sampling mechanics, phase
attribution, flamegraph exports, GC/pool health gauges, the
/debug/profile route, and the disabled-path overhead gate."""

import gc
import json
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.engine import Session
from repro.telemetry import profiler as profiler_mod
from repro.telemetry import tracer as tracer_mod
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.obslog import QueryLog, validate_obslog
from repro.telemetry.profiler import (
    GCMonitor,
    SamplingProfiler,
    current_profiler,
    ensure_profiler,
    folded_stacks,
    folded_text,
    gc_summary,
    profiling,
    span_phase,
    summarize_samples,
    to_speedscope,
    validate_folded,
    validate_speedscope,
)
from repro.telemetry.promhttp import MetricsServer
from repro.telemetry.tracer import tracing
from repro.workloads.families import FIGURE1_QUERY_TEXT, example2_graph

EXAMPLE2_QUERY = "SELECT ?x ?y ?z ?z2 WHERE " + FIGURE1_QUERY_TEXT


def _busy(seconds):
    """Burn CPU in a recognizably-named frame until ``seconds`` elapse."""
    deadline = time.monotonic() + seconds
    n = 0
    while time.monotonic() < deadline:
        n += sum(i * i for i in range(200))
    return n


@pytest.fixture(autouse=True)
def _no_leftover_hooks():
    """Every test must leave the module-level hooks clean."""
    yield
    leftover = current_profiler()
    if leftover is not None:
        leftover.stop()
    assert current_profiler() is None
    assert tracer_mod._span_registry is None


# ---------------------------------------------------------------------------
# Sampling mechanics
# ---------------------------------------------------------------------------
def test_sampler_collects_root_first_stacks():
    profiler = SamplingProfiler(hz=400)
    profiler.start()
    try:
        _busy(0.15)
    finally:
        profiler.stop()
    samples = profiler.samples
    assert len(samples) >= 5
    ts, ident, frames, trace_id, span, phase = samples[0]
    assert isinstance(ts, float) and isinstance(ident, int)
    assert trace_id is None and span is None and phase is None
    # Root-first: the leaf (deepest frame) is last; our busy loop should
    # dominate some sample's leaf end.
    assert any("_busy" in f for s in samples for f in s[2])
    leaves = [s[2][-1] for s in samples]
    assert any("_busy" in leaf or "genexpr" in leaf for leaf in leaves)


def test_start_stop_are_idempotent_and_restore_hooks():
    profiler = SamplingProfiler(hz=200)
    assert not profiler.running
    profiler.start()
    profiler.start()  # no-op, no second thread
    assert profiler.running
    assert current_profiler() is profiler
    assert tracer_mod._span_registry is not None
    profiler.stop()
    profiler.stop()  # no-op
    assert not profiler.running
    assert current_profiler() is None
    assert tracer_mod._span_registry is None


def test_max_samples_bounds_memory_and_counts_drops():
    profiler = SamplingProfiler(hz=500, max_samples=10)
    profiler.start()
    try:
        _busy(0.2)
    finally:
        profiler.stop()
    assert profiler.sample_count <= 10
    assert profiler.dropped + profiler.sample_count >= 10


def test_profiling_contextmanager_and_ensure_profiler():
    with profiling(hz=300) as profiler:
        assert current_profiler() is profiler
        assert profiler.running
        # ensure_profiler reuses the running one.
        assert ensure_profiler(300) is profiler
    assert current_profiler() is None
    # ensure_profiler creates + starts one when none is running.
    profiler = ensure_profiler(250)
    try:
        assert profiler.running and profiler.hz == 250
    finally:
        profiler.stop()


# ---------------------------------------------------------------------------
# Phase classification and span attribution
# ---------------------------------------------------------------------------
def test_span_phase_table():
    assert span_phase("session.parse") == "plan"
    assert span_phase("planner.estimate") == "plan"
    assert span_phase("yannakakis.semijoin_up") == "semijoin"
    assert span_phase("yannakakis.scan") == "semijoin"
    assert span_phase("yannakakis.join") == "join"
    assert span_phase("cq.containment") == "join"
    assert span_phase("wdpt.extend") == "enumerate"
    assert span_phase("session.query") == "enumerate"
    assert span_phase("something.else") == "other"
    assert span_phase(None) is None


def test_samples_are_tagged_with_trace_span_and_phase():
    from repro.telemetry.context import set_trace_context

    profiler = SamplingProfiler(hz=500)
    profiler.start()
    try:
        previous = set_trace_context("trace-abc", None)
        try:
            with tracing() as tracer:
                with tracer.span("yannakakis.semijoin_up"):
                    _busy(0.1)
        finally:
            set_trace_context(*previous)
    finally:
        profiler.stop()
    tagged = [s for s in profiler.samples if s[3] == "trace-abc"]
    assert tagged
    assert {s[4] for s in tagged} == {"yannakakis.semijoin_up"}
    assert {s[5] for s in tagged} == {"semijoin"}
    assert profiler.samples_for_trace("trace-abc") == tagged
    assert profiler.samples_for_trace("other-trace") == []


def test_span_attribution_tracks_nesting():
    profiler = SamplingProfiler(hz=500)
    profiler.start()
    try:
        with tracing() as tracer:
            with tracer.span("planner.estimate"):
                _busy(0.06)
                with tracer.span("yannakakis.join"):
                    _busy(0.06)
                # Back in the outer span after the inner exits.
                _busy(0.06)
    finally:
        profiler.stop()
    phases = {s[5] for s in profiler.samples}
    assert "plan" in phases and "join" in phases


# ---------------------------------------------------------------------------
# Folded stacks and speedscope export
# ---------------------------------------------------------------------------
def _tagged_samples():
    return [
        (1.0, 1, ("a.py:f", "b.py:g"), "t1", "yannakakis.join", "join"),
        (1.1, 1, ("a.py:f", "b.py:g"), "t1", "yannakakis.join", "join"),
        (1.2, 1, ("a.py:f", "c.py:h"), "t2", None, None),
    ]


def test_folded_stacks_by_frames_phase_and_trace():
    samples = _tagged_samples()
    by_frames = folded_stacks(samples, by="frames")
    assert by_frames["a.py:f;b.py:g"] == 2
    assert by_frames["a.py:f;c.py:h"] == 1
    by_phase = folded_stacks(samples, by="phase")
    assert by_phase["phase:join;a.py:f;b.py:g"] == 2
    assert by_phase["phase:(no span);a.py:f;c.py:h"] == 1
    only_t1 = folded_stacks(samples, by="frames", trace_id="t1")
    assert sum(only_t1.values()) == 2
    text = folded_text(samples, by="frames")
    lines = text.strip().splitlines()
    # Hottest first, "stack count" format.
    assert lines[0] == "a.py:f;b.py:g 2"
    assert validate_folded(text) == []


def test_speedscope_payload_validates_and_carries_trace_id():
    samples = [s for s in _tagged_samples() if s[3] == "t1"]
    payload = to_speedscope(samples, hz=100, name="unit")
    assert validate_speedscope(payload) == []
    assert payload["$schema"] == profiler_mod.SPEEDSCOPE_SCHEMA
    assert payload["trace_id"] == "t1"  # all samples share one trace
    profile = payload["profiles"][0]
    assert profile["type"] == "sampled"
    assert len(profile["samples"]) == len(profile["weights"]) == 2
    assert profile["weights"][0] == pytest.approx(1 / 100)
    # Mixed traces → no top-level trace_id.
    mixed = to_speedscope(_tagged_samples(), hz=100)
    assert "trace_id" not in mixed or mixed["trace_id"] is None


def test_write_speedscope_roundtrip(tmp_path):
    path = tmp_path / "out.speedscope.json"
    profiler_mod.write_speedscope(_tagged_samples(), 100, str(path))
    payload = json.loads(path.read_text())
    assert validate_speedscope(payload) == []


def test_validators_reject_garbage():
    assert validate_speedscope(None)
    assert validate_speedscope({})
    assert validate_speedscope({"$schema": "x", "shared": {}, "profiles": []})
    # Empty profile is an error (CI must fail on an empty flamegraph).
    empty = to_speedscope([], hz=100)
    assert any("no samples" in e or "empty" in e
               for e in validate_speedscope(empty))
    assert validate_folded("")
    assert validate_folded("no-count-here\n")
    assert validate_folded("a;b notanumber\n")
    assert validate_folded("a;b 3\n") == []


def test_summarize_samples_reports_phases_and_top():
    summary = summarize_samples(_tagged_samples(), hz=100, top=5)
    assert summary["samples"] == 3
    assert summary["seconds"] == pytest.approx(3 / 100)
    assert summary["phases"] == {"join": 2, "(no span)": 1}
    assert summary["trace_ids"] == 2
    assert summary["top"][0][1] == 2


# ---------------------------------------------------------------------------
# Dump / absorb (the process-pool envelope path)
# ---------------------------------------------------------------------------
def test_dump_absorb_roundtrip():
    import pickle

    source = SamplingProfiler(hz=100)
    source.absorb(_tagged_samples())
    dump = source.dump(drain=True)
    assert source.sample_count == 0
    # The envelope must survive pickling (process pool transport).
    dump = pickle.loads(pickle.dumps(dump))
    target = SamplingProfiler(hz=100)
    assert target.absorb_dump(dump) == 3
    assert target.sample_count == 3
    assert target.absorb_dump(None) == 0


# ---------------------------------------------------------------------------
# Session integration: Result.profile_samples + obslog slow records
# ---------------------------------------------------------------------------
def test_result_profile_samples_attached_under_running_profiler():
    session = Session(example2_graph(), cache=False)
    result = session.query(EXAMPLE2_QUERY)
    assert result.profile_samples is None  # no profiler → untouched
    with profiling(hz=800):
        result = session.query(EXAMPLE2_QUERY)
    assert result.profile_samples is not None  # [] when too fast to sample
    for sample in result.profile_samples:
        assert sample[3] is not None


def test_slow_record_embeds_profile_digest_and_shares_trace_id(tmp_path):
    path = tmp_path / "log.jsonl"
    log = QueryLog(sink=str(path), slow_threshold=0.0)
    session = Session(example2_graph(), obslog=log, cache=False)
    with profiling(hz=800) as profiler:
        result = session.query(EXAMPLE2_QUERY)
    log.close()
    slow = [r for r in log.events("query.slow")]
    assert slow, "slow_threshold=0 must capture every query"
    record = slow[-1]
    digest = record.get("profile_samples")
    assert isinstance(digest, dict)
    assert digest["trace_id"] == record["trace_id"]
    assert validate_obslog(path.read_text().splitlines()) == []
    # Acceptance: the speedscope export filtered to this trace carries
    # the same trace_id as the obslog record and the result's samples.
    trace_id = record["trace_id"]
    payload = to_speedscope(
        profiler.samples_for_trace(trace_id), hz=profiler.hz,
        trace_id=trace_id,
    )
    if payload["profiles"][0]["samples"]:
        assert payload["trace_id"] == trace_id
    for sample in result.profile_samples:
        assert sample[3] == trace_id


def test_process_batch_merges_worker_samples():
    db = example2_graph()
    queries = [EXAMPLE2_QUERY] * 4
    with profiling(hz=500) as profiler:
        with Session(db, cache=False) as session:
            batch = session.run_batch(queries, jobs=2, executor="process")
    assert len(batch.results) == 4
    # Worker samples were absorbed into the parent profiler (the parent
    # also samples itself, so just require absorbed worker frames to be
    # plausible: every sample keeps the 6-tuple shape).
    for sample in profiler.samples:
        assert len(sample) == 6


# ---------------------------------------------------------------------------
# GC gauges
# ---------------------------------------------------------------------------
def test_gc_monitor_records_pauses_and_generations():
    registry = MetricsRegistry()
    monitor = GCMonitor(registry).install()
    try:
        for _ in range(3):
            gc.collect()
    finally:
        monitor.uninstall()
    assert monitor._callback not in gc.callbacks
    summary = gc_summary(registry)
    assert summary["enabled"] is True
    assert sum(summary["collections"].values()) >= 3
    assert summary["pause_ms"]["count"] >= 3
    assert gc_summary(MetricsRegistry()) == {"enabled": False}
    assert gc_summary(None) == {"enabled": False}


def test_session_stats_surface_gc_summary():
    session = Session(example2_graph())
    assert session.stats()["gc"] == {"enabled": False}
    with profiling(hz=100, registry=session.planner.metrics):
        gc.collect()
        session.query(EXAMPLE2_QUERY)
    stats = session.stats()
    assert stats["gc"]["enabled"] is True
    assert sum(stats["gc"]["collections"].values()) >= 1


# ---------------------------------------------------------------------------
# Pool saturation gauges
# ---------------------------------------------------------------------------
def test_thread_pool_exports_saturation_gauges():
    from repro.parallel.pool import WorkerPool

    registry = MetricsRegistry()
    with WorkerPool(jobs=2, metrics=registry) as pool:
        assert pool.map_tasks(lambda x: x * x, list(range(8))) == [
            x * x for x in range(8)
        ]
    labels = {"executor": "thread"}
    assert registry.counter("pool.tasks_total", labels).value == 8
    # Settled after the map: nothing queued, nothing active.
    assert registry.gauge("pool.queue_depth", labels).value == 0
    assert registry.gauge("pool.active_workers", labels).value == 0


def test_inline_pool_counts_tasks_without_gauges():
    from repro.parallel.pool import WorkerPool

    registry = MetricsRegistry()
    with WorkerPool(jobs=1, metrics=registry) as pool:
        pool.map_tasks(lambda x: x, [1, 2, 3])
    assert registry.counter(
        "pool.tasks_total", {"executor": "thread"}).value == 3


def test_session_pools_feed_the_planner_registry():
    session = Session(example2_graph())
    session.run_batch([EXAMPLE2_QUERY] * 4, jobs=2)
    exposition = session.planner.metrics.to_prometheus()
    assert "repro_pool_tasks_total" in exposition


# ---------------------------------------------------------------------------
# /debug/profile over HTTP
# ---------------------------------------------------------------------------
def _get(url):
    with urllib.request.urlopen(url) as response:
        return response.status, json.loads(response.read().decode())


def test_debug_profile_lifecycle_over_http():
    registry = MetricsRegistry()
    with MetricsServer(registry, port=0) as server:
        status, payload = _get(server.url + "/debug/profile")
        assert status == 200 and payload["running"] is False
        assert "hint" in payload
        status, payload = _get(
            server.url + "/debug/profile?action=start&hz=300")
        assert status == 200
        assert payload["running"] is True and payload["hz"] == 300
        _busy(0.05)
        status, snapshot = _get(
            server.url + "/debug/profile?action=snapshot")
        assert status == 200 and "phases" in snapshot
        with urllib.request.urlopen(
            server.url + "/debug/profile?format=speedscope"
        ) as response:
            speedscope = json.loads(response.read().decode())
        # May legitimately be empty if no sample landed yet; only
        # validate the shape keys.
        assert speedscope["$schema"] == profiler_mod.SPEEDSCOPE_SCHEMA
        with urllib.request.urlopen(
            server.url + "/debug/profile?format=folded"
        ) as response:
            assert response.headers["Content-Type"].startswith("text/plain")
        status, payload = _get(server.url + "/debug/profile?action=stop")
        assert status == 200 and payload["running"] is False
    # Server stop also stops the owned profiler and clears the hooks.
    assert current_profiler() is None


def test_debug_profile_error_paths():
    with MetricsServer(MetricsRegistry(), port=0) as server:
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.url + "/debug/profile?action=flood")
        assert err.value.code == 400
        assert "unknown profile action" in json.loads(
            err.value.read().decode())["error"]
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                server.url + "/debug/profile?action=start&hz=abc")
        assert err.value.code == 400
        # Export before any profiler exists → 404.
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                server.url + "/debug/profile?format=speedscope")
        assert err.value.code == 404


def test_debug_profile_survives_concurrent_start_stop_races():
    with MetricsServer(MetricsRegistry(), port=0) as server:
        errors = []

        def hammer(action):
            for _ in range(10):
                try:
                    _get(server.url + "/debug/profile?action=" + action)
                except Exception as exc:  # noqa: BLE001 - collect all
                    errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(action,))
            for action in ("start", "stop", "snapshot", "start", "stop")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # Whatever the interleaving, stop leaves exactly zero samplers.
        _get(server.url + "/debug/profile?action=stop")
    assert current_profiler() is None
    assert not any(
        thread.name.startswith("repro-profiler")
        for thread in threading.enumerate()
    )


def test_debug_unknown_route_and_broken_provider_still_honored():
    """The pre-existing error contracts hold with the profile route added:
    unknown /debug names 404 with the route list (now including
    /debug/profile), and a raising provider is a 500 JSON."""
    with MetricsServer(
        MetricsRegistry(),
        port=0,
        debug={"boom": lambda: 1 / 0},
    ) as server:
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.url + "/debug/nope")
        assert err.value.code == 404
        body = json.loads(err.value.read().decode())
        assert "/debug/profile" in body["routes"]
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.url + "/debug/boom")
        assert err.value.code == 500
        assert "ZeroDivisionError" in json.loads(
            err.value.read().decode())["error"]


# ---------------------------------------------------------------------------
# Overhead gate
# ---------------------------------------------------------------------------
def _kernel_workload():
    from repro.planner.planner import Planner
    from repro.workloads.generators import path_cq, random_graph_database

    planner = Planner()
    q = path_cq(5)
    db = random_graph_database(50, 320, seed=7)
    return lambda: planner.evaluate_cq(q, db)


def test_disabled_path_is_structurally_zero_cost():
    # No profiler → the per-span hook is a single module-global read
    # that is None, and the trace-map is the only context write.
    assert tracer_mod._span_registry is None
    assert current_profiler() is None
    # NullTracer span path untouched: entering spans with tracing
    # disabled must not populate any registry even while one exists.
    registry = {}
    previous = tracer_mod.set_span_registry(registry)
    try:
        from repro.telemetry.tracer import trace_span

        with trace_span("yannakakis.join"):
            pass
        assert registry == {}  # NullSpan never touches the registry
    finally:
        tracer_mod.set_span_registry(previous)


def test_no_collection_while_reading_other_threads_frames(monkeypatch):
    # gh-106883 (CPython < 3.11.8 / 3.12.2): a GC run that starts inside
    # sys._current_frames() can deadlock the process, so the sampler reads
    # the frames with the collector off and puts it back as it found it.
    seen = []
    real = sys._current_frames

    def spy():
        seen.append(gc.isenabled())
        return real()

    monkeypatch.setattr(sys, "_current_frames", spy)
    profiler = SamplingProfiler(hz=100, gc_stats=False)
    assert gc.isenabled()
    profiler._sample_once(time.perf_counter(), own_ident=-1)
    assert seen == [False] and gc.isenabled()
    gc.disable()
    try:
        profiler._sample_once(time.perf_counter(), own_ident=-1)
        assert seen == [False, False] and not gc.isenabled()
    finally:
        gc.enable()
    assert profiler.sample_count >= 2


def test_profiled_overhead_within_five_percent():
    # What profiling takes from the process is (samples taken) x (CPU one
    # sample costs): count the ticks of a live run, price one sample in
    # bulk on this thread, and hold the product to 5 % of the process CPU
    # of the same interval.  The sampling thread's own CPU clock gets a
    # looser bound, 30 % of that process CPU: the thread sleeps between
    # ticks, and on a shared box a run now and then charges it 20x the
    # usual time per wake-up for the same ticks over the same single stack
    # (no other thread alive, no collection on the sampler) - 20 % where
    # 2 % is usual - while a loop that spins instead of waiting reads 43 %.
    workload = _kernel_workload()
    workload()  # warm caches
    profiler = SamplingProfiler(hz=100, gc_stats=False)
    process_cpu = time.process_time()
    profiler.start()
    start = time.perf_counter()
    try:
        while time.perf_counter() - start < 0.5:
            workload()
    finally:
        profiler.stop()
    elapsed = time.perf_counter() - start
    process_cpu = time.process_time() - process_cpu
    summary = profiler.summary()
    ticks = profiler.ticks
    rounds = 500
    cpu = time.thread_time()
    for _ in range(rounds):
        profiler._sample_once(time.perf_counter(), own_ident=-1)
    per_sample = (time.thread_time() - cpu) / rounds
    message = (
        "samples=%d ticks=%d cpu_per_sample=%.0fus (bulk, this thread) "
        "sampler_thread_cpu=%.4fs (%.0fus a tick) process_cpu=%.3fs "
        "wall=%.3fs threads=%d"
        % (summary["samples"], ticks, per_sample * 1e6,
           summary["sampler_cpu_seconds"],
           summary["sampler_cpu_seconds"] * 1e6 / max(ticks, 1),
           process_cpu, elapsed, threading.active_count())
    )
    assert summary["samples"] >= 1, message
    assert 0 < summary["sampler_cpu_seconds"] <= 0.3 * process_cpu, message  # no spin
    assert ticks <= profiler.hz * elapsed + 1, message  # never more often than asked
    assert per_sample <= 0.05 / profiler.hz, message  # 5 % of one period
    assert ticks * per_sample <= 0.05 * process_cpu, message
