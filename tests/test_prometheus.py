"""Tests for the Prometheus text exposition, the /metrics endpoint, and
the /debug/* routes."""

import json
import re
import threading
import urllib.error
import urllib.request

from repro.engine import Session
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.promhttp import PROMETHEUS_CONTENT_TYPE, MetricsServer
from repro.workloads.families import FIGURE1_QUERY_TEXT, example2_graph

EXAMPLE2_QUERY = "SELECT ?x ?y ?z ?z2 WHERE " + FIGURE1_QUERY_TEXT

#: One exposition line: name{labels} value — or a # TYPE/HELP comment.
_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9eE+.naif-]+$"
)


def _assert_valid_exposition(text):
    """Structural checks over the text format 0.0.4: every line is a
    comment or a sample, every sample's family has a preceding # TYPE,
    and each family's samples are contiguous."""
    current_types = {}
    families_seen = []
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            assert kind in ("counter", "gauge", "summary", "histogram")
            assert name not in current_types, "duplicate TYPE for %s" % name
            current_types[name] = kind
            families_seen.append(name)
            continue
        if line.startswith("#"):
            continue
        assert _SAMPLE.match(line), "malformed sample line: %r" % line
        sample_name = line.split("{")[0].split(" ")[0]
        base = re.sub(r"_(sum|count|bucket)$", "", sample_name)
        # A _max suffix is its own gauge family; _sum/_count belong to the
        # summary family they extend.
        owner = sample_name if sample_name in current_types else base
        assert owner in current_types, (
            "sample %s has no preceding # TYPE" % sample_name
        )
        # Contiguity: the sample must belong to the most recent family.
        assert families_seen and owner == families_seen[-1], (
            "sample %s interleaved after family %s"
            % (sample_name, families_seen[-1])
        )


# ---------------------------------------------------------------------------
# to_prometheus
# ---------------------------------------------------------------------------
def test_counter_gauge_and_summary_families():
    registry = MetricsRegistry()
    registry.counter("requests.total").inc(3)
    registry.gauge("pool.size").set(7)
    hist = registry.histogram("latency")
    for v in (0.1, 0.2, 0.3):
        hist.observe(v)
    text = registry.to_prometheus(namespace="repro")
    _assert_valid_exposition(text)
    assert "# TYPE repro_requests_total counter" in text
    assert "repro_requests_total 3.0" in text
    assert "# TYPE repro_pool_size gauge" in text
    assert "repro_pool_size 7.0" in text
    assert "# TYPE repro_latency summary" in text
    assert 'repro_latency{quantile="0.5"} 0.2' in text
    assert "repro_latency_sum" in text and "repro_latency_count 3" in text
    assert "# TYPE repro_latency_max gauge" in text


def test_labeled_families_are_grouped_contiguously():
    registry = MetricsRegistry()
    registry.counter("engine.selected", {"engine": "yannakakis"}).inc(2)
    registry.counter("other.counter").inc()
    registry.counter("engine.selected", {"engine": "naive"}).inc(1)
    text = registry.to_prometheus()
    _assert_valid_exposition(text)
    assert 'repro_engine_selected{engine="yannakakis"} 2.0' in text
    assert 'repro_engine_selected{engine="naive"} 1.0' in text
    assert text.count("# TYPE repro_engine_selected counter") == 1


def test_label_values_are_escaped():
    registry = MetricsRegistry()
    registry.counter("weird", {"path": 'a\\b"c\nd'}).inc()
    text = registry.to_prometheus()
    assert 'path="a\\\\b\\"c\\nd"' in text


def test_metric_names_are_sanitized():
    registry = MetricsRegistry()
    registry.counter("planner.engine-time@total").inc()
    text = registry.to_prometheus()
    _assert_valid_exposition(text)
    assert "repro_planner_engine_time_total" in text


def test_planner_registry_exposition_is_valid():
    session = Session(example2_graph())
    session.query(EXAMPLE2_QUERY)
    answer = max(session.query(EXAMPLE2_QUERY).answers, key=len)
    session.ask(EXAMPLE2_QUERY, answer)
    text = session.planner.metrics.to_prometheus()
    _assert_valid_exposition(text)
    assert 'repro_planner_engine_selected{engine="wdpt-topdown"}' in text
    assert "repro_planner_engine_latency" in text
    assert 'quantile="0.99"' in text  # configurable quantiles incl. p99


# ---------------------------------------------------------------------------
# MetricsServer
# ---------------------------------------------------------------------------
def test_metrics_endpoint_serves_valid_text():
    registry = MetricsRegistry()
    registry.counter("hits").inc(5)
    with MetricsServer(registry) as server:
        with urllib.request.urlopen(server.url + "/metrics") as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
            body = response.read().decode("utf-8")
    _assert_valid_exposition(body)
    assert "repro_hits 5.0" in body


def test_healthz_and_404():
    with MetricsServer(MetricsRegistry()) as server:
        with urllib.request.urlopen(server.url + "/healthz") as response:
            health = json.loads(response.read().decode("utf-8"))
        assert health["status"] == "ok"
        assert health["sources"] == 1
        try:
            urllib.request.urlopen(server.url + "/nope")
        except urllib.error.HTTPError as exc:
            assert exc.code == 404
        else:  # pragma: no cover
            raise AssertionError("expected a 404")


def test_server_accepts_callable_sources_and_live_updates():
    registry = MetricsRegistry()
    counter = registry.counter("live")
    extra = lambda: "# TYPE extra_gauge gauge\nextra_gauge 1.0\n"  # noqa: E731
    with MetricsServer([registry, extra]) as server:
        counter.inc()
        with urllib.request.urlopen(server.url + "/metrics") as response:
            body = response.read().decode("utf-8")
        assert "repro_live 1.0" in body
        assert "extra_gauge 1.0" in body
        counter.inc()
        with urllib.request.urlopen(server.url + "/metrics") as response:
            assert "repro_live 2.0" in response.read().decode("utf-8")


def test_server_stop_frees_the_port():
    server = MetricsServer(MetricsRegistry()).start()
    port = server.port
    assert port > 0
    server.stop()
    # A second server can bind the same port immediately.
    rebound = MetricsServer(MetricsRegistry(), port=port).start()
    assert rebound.port == port
    rebound.stop()


# ---------------------------------------------------------------------------
# /debug routes
# ---------------------------------------------------------------------------
def _get_json(url):
    with urllib.request.urlopen(url) as response:
        assert response.headers["Content-Type"].startswith("application/json")
        return response.status, json.loads(response.read().decode("utf-8"))


def test_debug_index_and_named_routes():
    providers = {"queries": lambda: {"in_flight": []}, "answer": lambda: 42}
    with MetricsServer(MetricsRegistry(), debug=providers) as server:
        status, index = _get_json(server.url + "/debug")
        assert status == 200
        # /debug/profile (the sampling profiler) is always routable.
        assert sorted(index["routes"]) == [
            "/debug/answer", "/debug/profile", "/debug/queries",
        ]
        status, payload = _get_json(server.url + "/debug/queries")
        assert status == 200 and payload == {"in_flight": []}
        status, payload = _get_json(server.url + "/debug/answer")
        assert payload == 42
        status, health = _get_json(server.url + "/healthz")
        assert health["debug_routes"] == ["answer", "queries"]


def test_debug_unknown_route_is_a_404_listing_valid_ones():
    with MetricsServer(MetricsRegistry(), debug={"stats": dict}) as server:
        try:
            urllib.request.urlopen(server.url + "/debug/nope")
        except urllib.error.HTTPError as exc:
            assert exc.code == 404
            body = json.loads(exc.read().decode("utf-8"))
            assert "/debug/stats" in body["routes"]
        else:  # pragma: no cover
            raise AssertionError("expected a 404")


def test_debug_provider_exception_is_a_500_json():
    def broken():
        raise RuntimeError("boom")

    with MetricsServer(MetricsRegistry(), debug={"broken": broken}) as server:
        try:
            urllib.request.urlopen(server.url + "/debug/broken")
        except urllib.error.HTTPError as exc:
            assert exc.code == 500
            body = json.loads(exc.read().decode("utf-8"))
            assert "RuntimeError" in body["error"] and "boom" in body["error"]
        else:  # pragma: no cover
            raise AssertionError("expected a 500")


def test_debug_html_format_renders_a_page():
    with MetricsServer(MetricsRegistry(), debug={"stats": lambda: {"k": 1}}) as server:
        with urllib.request.urlopen(server.url + "/debug/stats?format=html") as r:
            assert r.headers["Content-Type"].startswith("text/html")
            body = r.read().decode("utf-8")
    assert "<html" in body and "&quot;k&quot;" in body


def test_add_debug_registers_routes_after_start():
    with MetricsServer(MetricsRegistry()) as server:
        status, index = _get_json(server.url + "/debug")
        assert index["routes"] == ["/debug/profile"]
        server.add_debug("late", lambda: {"ok": True})
        status, payload = _get_json(server.url + "/debug/late")
        assert payload == {"ok": True}


def test_session_debug_providers_serve_live_json():
    # The query registry rides on the observation path, so the session
    # needs *some* observability turned on (obslog, resources, or stats).
    with Session(example2_graph(), track_resources=True) as session:
        session.query(EXAMPLE2_QUERY)
        session.explain(EXAMPLE2_QUERY)   # /debug/plans shows the EXPLAIN cache
        with MetricsServer(
            session.planner.metrics, debug=session.debug_providers()
        ) as server:
            _, queries = _get_json(server.url + "/debug/queries")
            assert queries["in_flight"] == []
            assert len(queries["recent"]) == 1
            recent = queries["recent"][0]
            assert recent["op"] == "query" and recent["trace_id"]
            _, plans = _get_json(server.url + "/debug/plans")
            assert len(plans["plans"]) == 1
            assert plans["plans"][0]["fingerprint"] == recent["query_id"]
            _, stats = _get_json(server.url + "/debug/stats")
            assert "queries" in stats  # empty store shape without a store


def test_debug_queries_shows_in_flight_work():
    barrier = threading.Barrier(2, timeout=10)
    parked = []

    from repro.core.atoms import atom
    from repro.core.database import Database

    class ParkingDB(Database):
        """Parks the first data access, so the query is deterministically
        in flight while the main thread hits /debug/queries."""

        __slots__ = ()

        def _park_once(self):
            if not parked:
                parked.append(True)
                barrier.wait()       # query is now in flight
                barrier.wait()       # released after the scrape

        def rows(self, pattern):  # every read, ``match`` included
            self._park_once()
            return super().rows(pattern)

        def match_count(self, pattern):
            self._park_once()
            return super().match_count(pattern)

    db = ParkingDB([atom("E", 1, 2), atom("E", 2, 3)])
    with Session(db, track_resources=True, cache=False) as session:
        with MetricsServer(
            session.planner.metrics, debug=session.debug_providers()
        ) as server:
            worker = threading.Thread(
                target=session.query, args=("(?x, E, ?y)",)
            )
            worker.start()
            try:
                barrier.wait()
                _, payload = _get_json(server.url + "/debug/queries")
            finally:
                barrier.wait()
                worker.join()
            assert len(payload["in_flight"]) == 1
            flight = payload["in_flight"][0]
            assert flight["op"] == "query" and flight["trace_id"]
            assert flight["elapsed_seconds"] >= 0
    payload = session.debug_queries()
    assert payload["in_flight"] == []
    assert len(payload["recent"]) == 1


def test_debug_endpoints_survive_concurrent_hammering():
    with Session(example2_graph(), track_resources=True) as session:
        session.query(EXAMPLE2_QUERY)
        with MetricsServer(
            session.planner.metrics, debug=session.debug_providers()
        ) as server:
            errors = []

            def hammer(route):
                try:
                    for _ in range(20):
                        if route.startswith("/debug"):
                            status, _ = _get_json(server.url + route)
                        else:  # /metrics and /healthz are not all JSON
                            with urllib.request.urlopen(server.url + route) as r:
                                status = r.status
                        assert status == 200
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            def query_loop():
                try:
                    for _ in range(10):
                        session.query(EXAMPLE2_QUERY)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(route,))
                for route in ("/debug/queries", "/debug/plans", "/debug/stats",
                              "/metrics", "/healthz")
            ] + [threading.Thread(target=query_loop)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
