"""Tests for the multi-tenant async query service (repro.service):
protocol validation, the tenant registry, admission control, and live
concurrent HTTP traffic against an embedded server."""

import asyncio
import gc
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mappings import Mapping
from repro.engine import Session
from repro.exceptions import ReproError
from repro.service import (
    AdmissionController,
    LoadShedError,
    ProtocolError,
    QueryRequest,
    ServiceServer,
    TenantRegistry,
    TenantsFileError,
    default_registry,
    load_tenants,
)
from repro.service import server as server_module
from repro.service.protocol import (
    AnswerEncoder,
    encode_answers,
    encode_result,
    result_body,
)
from repro.telemetry.routes import encode_json
from repro.telemetry.obslog import QueryLog
from repro.telemetry.resources import ResourceBudget
from repro.workloads.families import example2_graph

QUERY = (
    "SELECT ?x ?y ?z WHERE { "
    '?x recorded_by ?y . ?x published "after_2010" '
    "OPTIONAL { ?x NME_rating ?z } }"
)
SMALL_QUERY = "SELECT ?x ?y WHERE { ?x recorded_by ?y }"

TENANTS = {
    "tiers": {
        "slowlane": {
            "max_concurrency": 1,
            "queue_timeout_ms": 50,
            "retry_after_seconds": 2.5,
        },
        "tiny": {"budget": {"hard_intermediate_rows": 1}},
    },
    "tenants": [
        {"name": "acme", "api_key": "acme-key", "tier": "gold"},
        {"name": "slow", "api_key": "slow-key", "tier": "slowlane"},
        {"name": "tiny", "api_key": "tiny-key", "tier": "tiny"},
        {"name": "public", "tier": "silver"},
    ],
}


def _request(base, path, payload=None, key=None, method=None, raw=None):
    """One HTTP exchange; returns (status, decoded JSON body, headers)."""
    headers = {}
    data = None
    if payload is not None or raw is not None:
        data = raw if raw is not None else json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    if key is not None:
        headers["X-Api-Key"] = key
    req = urllib.request.Request(
        base + path, data=data, headers=headers,
        method=method or ("POST" if data is not None else "GET"),
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def _raw_exchange(srv, data, half_close=False):
    """Send raw bytes, read to EOF; returns (status, decoded JSON body)."""
    with socket.create_connection((srv.host, srv.port), timeout=30) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def _wait_until(condition, timeout=30.0):
    """Poll ``condition`` (a deadline, not a measurement)."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


@pytest.fixture(scope="module")
def server():
    with ServiceServer(
        example2_graph(), tenants=TenantRegistry.from_dict(TENANTS)
    ) as srv:
        yield srv


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_minimal_query(self):
        parsed = QueryRequest.from_body("query", b'{"query": "Q"}')
        assert parsed.op == "query" and parsed.query == "Q"

    def test_maximal_flag(self):
        parsed = QueryRequest.from_body(
            "query", b'{"query": "Q", "maximal": true}'
        )
        assert parsed.op == "query_maximal"

    def test_maximal_must_be_boolean(self):
        with pytest.raises(ProtocolError, match="boolean"):
            QueryRequest.from_body("query", b'{"query": "Q", "maximal": 1}')

    def test_ask_candidate(self):
        parsed = QueryRequest.from_body(
            "ask", b'{"query": "Q", "candidate": {"?x": "a"}}'
        )
        assert parsed.op == "ask" and parsed.candidate is not None

    def test_ask_requires_candidate(self):
        with pytest.raises(ProtocolError, match="candidate"):
            QueryRequest.from_body("ask", b'{"query": "Q"}')

    @pytest.mark.parametrize(
        "body",
        [b"", b"not json", b"[1]", b'{"query": ""}', b'{"query": 3}',
         b'{"querry": "Q"}', b'{"query": "Q", "extra": 1}'],
    )
    def test_malformed_bodies(self, body):
        with pytest.raises(ProtocolError):
            QueryRequest.from_body("query", body)

    def test_protocol_error_is_repro_error(self):
        with pytest.raises(ReproError):
            QueryRequest.from_body("query", b"")


# ---------------------------------------------------------------------------
# Protocol: the spliced body is encode_result, byte for byte
# ---------------------------------------------------------------------------
_values = st.one_of(
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6).filter(lambda text: not text.startswith("?")),
    # Not JSON-native: the whole mapping takes the repr fallback.
    st.tuples(st.integers(), st.text(max_size=3)),
    st.binary(max_size=4),
)
# Any subset of the variables: partial mappings, as failed OPT branches
# leave them; the empty set included.
_answer_sets = st.frozensets(
    st.dictionaries(st.sampled_from(["?x", "?y", "?z"]), _values).map(Mapping),
    max_size=6,
)
_resources = st.one_of(
    st.none(),
    st.builds(
        SimpleNamespace,
        trace_id=st.text(max_size=8),
        wall_seconds=st.floats(0, 10),
        peak_intermediate_rows=st.integers(0, 10**6),
        subqueries=st.integers(0, 100),
    ),
)


class TestEncodedBody:
    @settings(max_examples=60, deadline=None)
    @given(
        answers=_answer_sets, resources=_resources,
        op=st.sampled_from(["query", "query_maximal"]),
        wall=st.floats(0, 100), coalesced=st.booleans(),
    )
    def test_spliced_body_is_encode_result(
        self, answers, resources, op, wall, coalesced
    ):
        result = SimpleNamespace(answers=answers, resources=resources)
        body = result_body(
            op, "acme", result, wall, coalesced,
            AnswerEncoder().fragment(answers),
        )
        expected = encode_result(op, "acme", result, wall, coalesced)
        assert expected["answers"] == encode_answers(answers)
        assert body == encode_json(expected)
        assert json.loads(body) == expected

    def test_fragments_follow_object_identity_and_lifetime(self):
        encoder = AnswerEncoder()
        first = frozenset({Mapping({"?x": 1}), Mapping({"?x": 2, "?y": "a"})})
        twin = frozenset(list(first))
        assert first == twin and first is not twin
        fragment = encoder.fragment(first)
        assert encoder.fragment(first) is fragment  # encoded once
        assert encoder.fragment(twin) == fragment
        assert encoder.fragment(twin) is not fragment  # never shared by value
        assert len(encoder) == 2
        assert encoder.fragment(frozenset()) == b"[]"
        assert len(encoder) == 2  # the immortal empty set is not tracked
        del first
        gc.collect()
        assert len(encoder) == 1
        del twin
        gc.collect()
        assert len(encoder) == 0


# ---------------------------------------------------------------------------
# Tenancy
# ---------------------------------------------------------------------------
class TestTenancy:
    def test_registry_from_dict(self):
        registry = TenantRegistry.from_dict(TENANTS)
        assert registry.names() == ["acme", "public", "slow", "tiny"]
        assert registry.authenticate("acme-key").name == "acme"
        assert registry.authenticate(None).name == "public"
        assert registry.authenticate("wrong") is None
        tiny = registry.get("tiny")
        assert tiny.tier.budget.hard_intermediate_rows == 1

    def test_partial_tier_inherits_defaults(self):
        registry = TenantRegistry.from_dict(TENANTS)
        lane = registry.get("slow").tier
        assert lane.max_concurrency == 1
        assert lane.queue_timeout == pytest.approx(0.05)
        assert lane.cache_size == 128  # untouched default

    def test_load_tenants_file(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps(TENANTS))
        assert load_tenants(str(path)).names() == [
            "acme", "public", "slow", "tiny",
        ]

    def test_load_tenants_bad_file(self, tmp_path):
        with pytest.raises(TenantsFileError, match="cannot read"):
            load_tenants(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        with pytest.raises(TenantsFileError, match="not valid JSON"):
            load_tenants(str(bad))

    @pytest.mark.parametrize(
        "data,match",
        [
            ({"tenants": []}, "non-empty"),
            ({"tenants": [{"name": "a"}, {"name": "a"}]}, "duplicate tenant"),
            ({"tenants": [{"name": "a", "api_key": "k"},
                          {"name": "b", "api_key": "k"}]}, "duplicate api_key"),
            ({"tenants": [{"name": "a"}, {"name": "b"}]}, "anonymous"),
            ({"tenants": [{"name": "a", "tier": "platinum"}]}, "unknown tier"),
            ({"tenants": [{"name": "a", "color": "red"}]}, "unknown field"),
            ({"tiers": {"t": {"budget": {"warp": 1}}},
              "tenants": [{"name": "a", "tier": "t"}]}, "unknown budget"),
            ({"tenants": [{"name": "a"}], "extra": 1}, "unknown top-level"),
        ],
    )
    def test_validation_errors(self, data, match):
        with pytest.raises(TenantsFileError, match=match):
            TenantRegistry.from_dict(data)

    def test_default_registry(self):
        registry = default_registry()
        assert registry.names() == ["public"]
        assert registry.authenticate(None).tier.name == "gold"

    def test_snapshot_hides_keys(self):
        text = json.dumps(TenantRegistry.from_dict(TENANTS).snapshot())
        assert "acme-key" not in text
        assert "api_key_sha256_12" in text


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------
class TestAdmission:
    def _tenant(self, registry_name="acme"):
        return TenantRegistry.from_dict(TENANTS).get(registry_name)

    def test_grant_and_release(self):
        async def scenario():
            controller = AdmissionController(global_limit=4)
            tenant = self._tenant()
            async with await controller.admit(tenant):
                assert controller.in_flight_global == 1
            assert controller.in_flight_global == 0
            assert controller.admitted_total == 1

        asyncio.run(scenario())

    def test_tenant_cap_sheds(self):
        async def scenario():
            controller = AdmissionController(global_limit=4)
            tenant = self._tenant("slow")  # max_concurrency 1, 50 ms patience
            slot = await controller.admit(tenant)
            with pytest.raises(LoadShedError) as info:
                await controller.admit(tenant)
            slot.release()
            assert info.value.scope == "tenant"
            assert info.value.retry_after == pytest.approx(2.5)
            assert controller.shed_total == 1

        asyncio.run(scenario())

    def test_global_ceiling_sheds(self):
        async def scenario():
            controller = AdmissionController(global_limit=1)
            slot = await controller.admit(self._tenant("acme"))
            with pytest.raises(LoadShedError) as info:
                await controller.admit(self._tenant("public"))
            slot.release()
            assert info.value.scope == "global"

        asyncio.run(scenario())

    def test_queued_request_is_granted_on_release(self):
        async def scenario():
            controller = AdmissionController(global_limit=4)
            tenant = self._tenant("slow")
            slot = await controller.admit(tenant)
            loop = asyncio.get_running_loop()
            loop.call_later(0.01, slot.release)
            # The waiter should get the freed slot well inside its 50 ms.
            second = await controller.admit(tenant)
            second.release()
            assert controller.admitted_total == 2
            assert controller.shed_total == 0

        asyncio.run(scenario())

    def test_release_is_idempotent(self):
        async def scenario():
            controller = AdmissionController(global_limit=4)
            slot = await controller.admit(self._tenant())
            slot.release()
            slot.release()
            assert controller.in_flight_global == 0

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Live server: request round-trips
# ---------------------------------------------------------------------------
class TestLiveRequests:
    def test_query_roundtrip_matches_direct_session(self, server):
        status, body, _ = _request(
            server.url, "/query", {"query": QUERY}, key="acme-key"
        )
        assert status == 200
        direct = Session(example2_graph()).query(QUERY)
        assert body["rows"] == len(direct.answers)
        assert body["tenant"] == "acme"
        assert body["op"] == "query"
        assert body["trace_id"]
        assert body["resources"]["peak_intermediate_rows"] >= body["rows"]

    def test_maximal_semantics(self, server):
        status, body, _ = _request(
            server.url, "/query", {"query": QUERY, "maximal": True},
            key="acme-key",
        )
        assert status == 200
        assert body["op"] == "query_maximal"

    def test_ask(self, server):
        status, body, _ = _request(
            server.url, "/ask",
            {"query": SMALL_QUERY,
             "candidate": {"?x": "Swim", "?y": "Caribou"}},
            key="acme-key",
        )
        assert status == 200
        assert body["answer"] is True

    def test_explain(self, server):
        status, body, _ = _request(
            server.url, "/explain", {"query": QUERY}, key="acme-key"
        )
        assert status == 200
        assert body["fingerprint"]
        assert "Theorem" in body["eval_route"]

    def test_anonymous_tenant(self, server):
        status, body, _ = _request(server.url, "/query", {"query": QUERY})
        assert status == 200
        assert body["tenant"] == "public"

    def test_unknown_key_is_401(self, server):
        status, body, _ = _request(
            server.url, "/query", {"query": QUERY}, key="wrong"
        )
        assert status == 401
        assert "error" in body

    def test_parse_error_is_400(self, server):
        status, body, _ = _request(
            server.url, "/query", {"query": "SELECT garbage {{{{"},
            key="acme-key",
        )
        assert status == 400
        assert "parse error" in body["error"]

    def test_unknown_field_is_400(self, server):
        status, body, _ = _request(
            server.url, "/query", {"querry": QUERY}, key="acme-key"
        )
        assert status == 400
        assert "querry" in body["error"]

    def test_bad_json_is_400(self, server):
        status, body, _ = _request(
            server.url, "/query", raw=b"not json", key="acme-key"
        )
        assert status == 400
        assert "error" in body

    def test_oversized_body_is_413(self, server):
        status, body, _ = _request(
            server.url, "/query", raw=b"x" * ((1 << 20) + 1), key="acme-key"
        )
        assert status == 413
        assert "error" in body

    @pytest.mark.parametrize("pad", [70_000, 300_000])
    def test_oversized_head_is_431(self, server, pad):
        status, body = _raw_exchange(
            server,
            b"POST /query HTTP/1.1\r\nX-Pad: " + b"a" * pad + b"\r\n\r\n",
        )
        assert status == 431
        assert "head" in body["error"]

    def test_truncated_head_is_400(self, server):
        status, body = _raw_exchange(
            server, b"GET /healthz HTTP/1.1\r\nHost: x\r\n", half_close=True
        )
        assert status == 400
        assert "request head" in body["error"]

    def test_stalled_head_is_400(self, server, monkeypatch):
        monkeypatch.setattr(server_module, "READ_TIMEOUT", 0.2)
        status, body = _raw_exchange(
            server, b"GET /healthz HTTP/1.1\r\nX-Slow: "
        )
        assert status == 400
        assert "timed out" in body["error"]

    def test_negative_content_length_is_400(self, server):
        status, body = _raw_exchange(
            server, b"POST /query HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
        )
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_404_shape_matches_metrics_server(self, server):
        status, body, _ = _request(server.url, "/nope")
        assert status == 404
        assert "error" in body and "routes" in body
        assert "POST /query" in body["routes"]

    def test_budget_exceeded_is_429(self, server):
        status, body, headers = _request(
            server.url, "/query", {"query": SMALL_QUERY}, key="tiny-key"
        )
        assert status == 429
        assert "budget" in body["error"]
        assert "Retry-After" in headers


# ---------------------------------------------------------------------------
# Live server: observability surfaces
# ---------------------------------------------------------------------------
class TestLiveObservability:
    def test_healthz_is_a_metrics_server_superset(self, server):
        status, body, _ = _request(server.url, "/healthz")
        assert status == 200
        # The MetricsServer /healthz fields, identical semantics...
        for field in ("status", "uptime_seconds", "requests_served",
                      "sources", "debug_routes"):
            assert field in body
        assert body["status"] == "ok"
        # ...plus the service block.
        assert body["service"]["tenants"] == ["acme", "public", "slow", "tiny"]
        assert body["service"]["draining"] is False
        assert body["service"]["admission"]["global_limit"] == 64

    def test_tenants_endpoint_is_key_free(self, server):
        status, body, _ = _request(server.url, "/tenants")
        assert status == 200
        names = [entry["name"] for entry in body["tenants"]]
        assert names == ["acme", "public", "slow", "tiny"]
        assert "acme-key" not in json.dumps(body)

    def test_metrics_exposition(self, server):
        _request(server.url, "/query", {"query": QUERY}, key="acme-key")
        req = urllib.request.Request(server.url + "/metrics")
        with urllib.request.urlopen(req, timeout=30) as resp:
            text = resp.read().decode()
            assert "text/plain" in resp.headers["Content-Type"]
        assert 'repro_service_admitted{tenant="acme"}' in text
        assert 'repro_service_cache_hits{tenant="acme"}' in text
        assert "repro_service_in_flight_global" in text

    def test_debug_queries_grouped_by_tenant(self, server):
        _request(server.url, "/query", {"query": QUERY}, key="acme-key")
        status, body, _ = _request(server.url, "/debug/queries")
        assert status == 200
        assert set(body) == {"acme", "public", "slow", "tiny"}
        assert any(
            rec["op"] == "query" for rec in body["acme"]["recent"]
        )


# ---------------------------------------------------------------------------
# Concurrency: many clients, coalescing, shedding, isolation, drain
# ---------------------------------------------------------------------------
def _fire(base, path, payload, key, results, index):
    results[index] = _request(base, path, payload, key=key)


def _fan_out(base, requests_spec):
    """Issue the given (path, payload, key) triples concurrently."""
    results = [None] * len(requests_spec)
    threads = [
        threading.Thread(
            target=_fire, args=(base, path, payload, key, results, i)
        )
        for i, (path, payload, key) in enumerate(requests_spec)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


class TestConcurrency:
    def test_eight_concurrent_clients_two_tenants(self, server):
        spec = []
        for i in range(4):
            spec.append(("/query", {"query": QUERY}, "acme-key"))
            spec.append(("/query", {"query": SMALL_QUERY}, None))
        results = _fan_out(server.url, spec)
        assert [status for status, _, _ in results] == [200] * 8
        tenants = {body["tenant"] for _, body, _ in results}
        assert tenants == {"acme", "public"}
        # Every response names the rows of its own tenant's evaluation.
        for _, body, _ in results:
            assert body["rows"] >= 2

    @staticmethod
    def _gate(session):
        """Hold every ``session.query`` until released; returns the
        release event, the list of texts that reached evaluation, and an
        event set once the first of them has."""
        release, evaluated, entered = threading.Event(), [], threading.Event()
        original = session.query

        def gated(text):
            evaluated.append(text)
            entered.set()
            assert release.wait(30)
            return original(text)

        session.query = gated
        return release, evaluated, entered

    @staticmethod
    def _coalesced(srv, tenant):
        return srv.metrics.counter(
            "service.coalesced", labels={"tenant": tenant}
        ).value

    def test_identical_queries_coalesce(self):
        registry = TenantRegistry.from_dict(TENANTS)
        with ServiceServer(example2_graph(), tenants=registry) as srv:
            release, evaluated, _ = self._gate(srv.sessions["acme"])
            before = srv.sessions["acme"].result_cache.stats()
            spec = [("/query", {"query": QUERY}, "acme-key")] * 4
            spec.append(("/query", {"query": SMALL_QUERY}, "acme-key"))
            results = [None] * len(spec)
            threads = [
                threading.Thread(
                    target=_fire, args=(srv.url, *entry, results, i)
                )
                for i, entry in enumerate(spec)
            ]
            for thread in threads:
                thread.start()
            # Both flights are up and the three riders have joined theirs.
            # (The executor thread can run ``gated`` before the loop
            # thread has registered the flight, so that is polled too.)
            _wait_until(
                lambda: len(evaluated) == 2
                and self._coalesced(srv, "acme") == 3
                and len(srv._flights) == 2
            )
            release.set()
            for thread in threads:
                thread.join(30)
            assert [status for status, _, _ in results] == [200] * 5
            assert sorted(evaluated) == sorted([QUERY, SMALL_QUERY])
            after = srv.sessions["acme"].result_cache.stats()
            assert after["misses"] - before["misses"] == 2
            assert after["puts"] - before["puts"] == 2
            shared = [body for _, body, _ in results[:4]]
            assert len({json.dumps(b["answers"]) for b in shared}) == 1
            assert len({b["trace_id"] for b in shared}) == 1
            assert sum(1 for b in shared if b.get("coalesced")) == 3
            assert "coalesced" not in results[4][1]
            assert self._coalesced(srv, "acme") == 3
            assert srv._flights == {}

    @pytest.mark.parametrize(
        "tenant,key,query,status,needle",
        [
            ("acme", "acme-key", "SELECT garbage {{{{", 400, "parse error"),
            ("tiny", "tiny-key", SMALL_QUERY, 429, "budget"),
        ],
    )
    def test_failing_flight_fails_every_rider(
        self, tenant, key, query, status, needle
    ):
        registry = TenantRegistry.from_dict(TENANTS)
        with ServiceServer(example2_graph(), tenants=registry) as srv:
            release, evaluated, _ = self._gate(srv.sessions[tenant])
            results = [None] * 3
            threads = [
                threading.Thread(
                    target=_fire,
                    args=(srv.url, "/query", {"query": query}, key, results, i),
                )
                for i in range(3)
            ]
            for thread in threads:
                thread.start()
            _wait_until(lambda: self._coalesced(srv, tenant) == 2)
            release.set()
            for thread in threads:
                thread.join(30)
            assert [s for s, _, _ in results] == [status] * 3
            assert all(needle in body["error"] for _, body, _ in results)
            assert evaluated == [query]
            assert srv._flights == {}
            # The failure was the flight's, not the key's: the next
            # request starts a fresh one.
            assert _request(
                srv.url, "/query", {"query": query}, key=key
            )[0] == status
            assert len(evaluated) == 2

    def test_answers_follow_writes_for_every_tenant(self):
        registry = TenantRegistry.from_dict(TENANTS)
        query = "SELECT ?a ?b WHERE { ?a NME_rating ?b }"
        triple = ("Our_love", "NME_rating", "11")
        with ServiceServer(example2_graph(), tenants=registry) as srv:
            def rows():
                return [
                    _request(srv.url, "/query", {"query": query}, key=key)[1]
                    for key in ("acme-key", None) for _ in range(2)
                ]

            base = rows()
            assert len({json.dumps(body["answers"]) for body in base}) == 1
            # Equal answers, but each tenant's cache owns its own set
            # object, so each has its own fragment.
            assert len(srv._answers) == 2
            srv.sessions["acme"].add_triples([triple])
            grown = rows()
            row = {"?a": "Our_love", "?b": "11"}
            assert all(row in body["answers"] for body in grown)
            assert all(body["rows"] == base[0]["rows"] + 1 for body in grown)
            from repro.core.atoms import Atom
            from repro.rdf.graph import TRIPLE_RELATION

            srv.sessions["public"].remove(Atom(TRIPLE_RELATION, triple))
            assert [body["answers"] for body in rows()] == [
                body["answers"] for body in base
            ]

    def test_fragments_die_with_their_cache_entries(self):
        registry = TenantRegistry.from_dict({
            "tiers": {"small": {"cache_size": 2}},
            "tenants": [{"name": "public", "tier": "small"}],
        })
        bands = ["Caribou", "Swans", "Liars", "Low", "Wire"]
        with ServiceServer(example2_graph(), tenants=registry) as srv:
            srv.sessions["public"].add_triples(
                ("record_%d" % i, "recorded_by", band)
                for i, band in enumerate(bands)
            )
            for band in bands:
                status, body, _ = _request(
                    srv.url, "/query",
                    {"query": 'SELECT ?x WHERE { ?x recorded_by "%s" }' % band},
                )
                assert status == 200 and body["rows"] >= 1
            gc.collect()
            # Five answer sets were encoded; the two-entry LRU kept two.
            assert len(srv._answers) == 2
            srv.sessions["public"].result_cache.clear()
            gc.collect()
            assert len(srv._answers) == 0

    def test_tenant_result_caches_are_isolated(self, server):
        for key in ("acme-key", None):
            for _ in range(2):
                status, _, _ = _request(
                    server.url, "/query",
                    {"query": "SELECT ?a ?b WHERE { ?a NME_rating ?b }"},
                    key=key,
                )
                assert status == 200
        acme = server.sessions["acme"].result_cache
        public = server.sessions["public"].result_cache
        assert acme is not public
        # Each tenant warmed its own cache: a hit on the repeat, no
        # cross-tenant sharing of entries.
        assert acme.stats()["hits"] >= 1
        assert public.stats()["hits"] >= 1

    def test_saturated_tier_sheds_429(self, tmp_path):
        log_path = tmp_path / "obslog.jsonl"
        obslog = QueryLog(sink=str(log_path))
        registry = TenantRegistry.from_dict(TENANTS)
        with ServiceServer(
            example2_graph(), tenants=registry, obslog=obslog
        ) as srv:
            release, _, entered = self._gate(srv.sessions["slow"])
            first = [None]
            thread = threading.Thread(
                target=_fire,
                args=(srv.url, "/query", {"query": QUERY}, "slow-key",
                      first, 0),
            )
            thread.start()
            assert entered.wait(30)  # the held query occupies the only slot
            status, body, headers = _request(
                srv.url, "/query", {"query": SMALL_QUERY}, key="slow-key"
            )
            release.set()
            thread.join(30)
            assert not thread.is_alive()
            assert status == 429
            assert headers["Retry-After"] == "2.5"
            assert body["scope"] == "tenant"
            assert first[0][0] == 200  # the in-flight request finished fine
            assert srv.admission.shed_total == 1
        obslog.close()
        events = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        shed = [e for e in events if e["event"] == "service.shed"]
        assert shed and shed[0]["tenant"] == "slow"
        assert shed[0]["scope"] == "tenant"

    def test_global_ceiling_sheds_429(self):
        registry = TenantRegistry.from_dict(TENANTS)
        with ServiceServer(
            example2_graph(), tenants=registry, global_limit=1
        ) as srv:
            release, _, entered = self._gate(srv.sessions["acme"])
            first = [None]
            thread = threading.Thread(
                target=_fire,
                args=(srv.url, "/query", {"query": QUERY}, "acme-key",
                      first, 0),
            )
            thread.start()
            assert entered.wait(30)  # the held query is the one global slot
            status, body, _ = _request(
                srv.url, "/query", {"query": SMALL_QUERY}, key=None
            )
            release.set()
            thread.join(30)
            assert not thread.is_alive()
            assert status == 429
            assert body["scope"] == "global"
            assert first[0][0] == 200

    def test_graceful_drain_finishes_in_flight(self, tmp_path):
        log_path = tmp_path / "obslog.jsonl"
        obslog = QueryLog(sink=str(log_path))
        registry = TenantRegistry.from_dict(TENANTS)
        srv = ServiceServer(
            example2_graph(), tenants=registry, obslog=obslog
        ).start()
        release, _, entered = self._gate(srv.sessions["acme"])
        result = [None]
        thread = threading.Thread(
            target=_fire,
            args=(srv.url, "/query", {"query": QUERY}, "acme-key",
                  result, 0),
        )
        thread.start()
        assert entered.wait(30)  # the query is now evaluating
        url = srv.url
        stopper = threading.Thread(target=srv.stop, kwargs={"drain": True})
        stopper.start()
        _wait_until(lambda: srv._draining)
        assert stopper.is_alive()  # stop() waits for the in-flight query
        release.set()
        for waited in (thread, stopper):
            waited.join(30)
            assert not waited.is_alive()
        status, body, _ = result[0]
        assert status == 200  # zero dropped queries
        assert body["rows"] >= 2
        # The listener is gone: new connections are refused.
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(url + "/healthz", timeout=2)
        obslog.close()
        events = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        stopped = [e for e in events if e["event"] == "service.stopped"]
        assert stopped and stopped[0]["dropped_connections"] == 0
        draining = [e for e in events if e["event"] == "service.draining"]
        assert draining


# ---------------------------------------------------------------------------
# Obslog / trace correlation
# ---------------------------------------------------------------------------
class TestCorrelation:
    def test_trace_id_links_response_to_obslog(self, tmp_path):
        log_path = tmp_path / "obslog.jsonl"
        obslog = QueryLog(sink=str(log_path))
        registry = TenantRegistry.from_dict(TENANTS)
        with ServiceServer(
            example2_graph(), tenants=registry, obslog=obslog
        ) as srv:
            status, body, _ = _request(
                srv.url, "/query", {"query": QUERY}, key="acme-key"
            )
            assert status == 200
        obslog.close()
        events = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        # The evaluation's query event carries the response's trace_id
        # and the tenant stamp added by the bound obslog.
        matched = [
            e for e in events
            if e.get("trace_id") == body["trace_id"]
            and e["event"] == "query.complete"
        ]
        assert matched and matched[0]["tenant"] == "acme"
        # The request log line for the same exchange.
        requests = [e for e in events if e["event"] == "service.request"]
        assert any(
            e["tenant"] == "acme" and e["status"] == 200 for e in requests
        )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCLI:
    def test_serve_self_check(self, capsys):
        from repro.__main__ import main

        assert main(["serve", "--self-check"]) == 0
        out = capsys.readouterr().out
        assert "healthz:" in out and "tenants:" in out and "explain:" in out

    def test_serve_self_check_with_tenants_file(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "tenants.json"
        path.write_text(json.dumps(TENANTS))
        assert main(["serve", "--tenants", str(path), "--self-check"]) == 0
        assert '"tenant": "public"' in capsys.readouterr().out

    def test_serve_bad_tenants_file_fails(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "tenants.json"
        path.write_text('{"tenants": []}')
        assert main(["serve", "--tenants", str(path), "--self-check"]) == 1
        assert "error" in capsys.readouterr().err
