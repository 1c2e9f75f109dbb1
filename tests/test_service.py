"""Tests for the multi-tenant async query service (repro.service):
protocol validation, the tenant registry, admission control, and live
concurrent HTTP traffic against an embedded server."""

import asyncio
import errno
import gc
import json
import selectors
import socket
import struct
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.mappings import Mapping
from repro.engine import Session
from repro.exceptions import ReproError
from repro.service import (
    AdmissionController,
    LoadShedError,
    MetricsServer,
    ProtocolError,
    QueryRequest,
    ServiceServer,
    TenantRegistry,
    default_registry,
    load_tenants,
)
from repro.service.tenancy import TenantsFileError
from repro.service import server as server_module
from repro.service.protocol import (
    AnswerEncoder,
    encode_answers,
    encode_result,
    result_body,
)
from repro.telemetry.metrics import MetricsRegistry
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


def _dribble(srv, pieces, half_close=False):
    """Send ``pieces`` as separate sends, each once the server's exchange
    has consumed the one before (so the server reads every split named),
    read to EOF; returns (status, decoded JSON body)."""
    exchange_class = server_module._Exchange
    consume = exchange_class.data_received
    consumed, moved = [0], threading.Condition()
    with socket.create_connection((srv.host, srv.port), timeout=30) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        client = sock.getsockname()

        def counting(exchange, data):
            ours = exchange.sock.getpeername() == client
            consume(exchange, data)
            if ours:
                with moved:
                    consumed[0] += len(data)
                    moved.notify_all()

        exchange_class.data_received = counting
        try:
            sent = 0
            for piece in pieces:
                sock.sendall(piece)
                sent += len(piece)
                with moved:
                    assert moved.wait_for(lambda: consumed[0] >= sent, 30)
        finally:
            exchange_class.data_received = consume
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


def _post(path, payload, key=None):
    """The bytes of one POST request."""
    body = json.dumps(payload).encode()
    head = "POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n" % (
        path, len(body)
    )
    if key is not None:
        head += "X-Api-Key: %s\r\n" % key
    return (head + "\r\n").encode("latin-1"), body


#: Notified each time a server loop is about to wait for I/O, that is
#: after every loop iteration, and by ``TestConcurrency._gate`` when an
#: evaluation reaches it: every change a test waits for.
_progress = threading.Condition()


def _moved():
    with _progress:
        _progress.notify_all()


class _NotifyingSelector(selectors.DefaultSelector):
    """The selector of every server loop this module starts."""

    def select(self, timeout=None):
        _moved()
        return super().select(timeout)


@pytest.fixture(scope="module", autouse=True)
def _notifying_loops():
    """Servers (``MetricsServer.start``) run on loops whose selector
    wakes ``_wait_until``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            asyncio, "new_event_loop",
            lambda: asyncio.SelectorEventLoop(_NotifyingSelector()),
        )
        yield


def _wait_until(condition, timeout=30.0):
    """Wait for ``condition``, checked again after each server loop
    iteration (a deadline, not a measurement)."""
    with _progress:
        assert _progress.wait_for(condition, timeout), "condition never held"


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
# Names and ids that JSON must escape: quotes, backslashes, control
# characters, non-ASCII (astral included).
_escaped_text = st.one_of(
    st.text(max_size=8),
    st.text(alphabet='"\\\x00\x1f\x7f\u00e9\u2028\U0001d11e', max_size=6),
)
# Seconds whose ``round(…, 3)`` or ``repr`` prints in exponent form.
_seconds = st.one_of(
    st.floats(0, 100), st.floats(1e-12, 1e-5), st.floats(1e13, 1e300),
)
_resources = st.one_of(
    st.none(),
    st.builds(
        SimpleNamespace,
        trace_id=st.one_of(st.none(), _escaped_text),
        wall_seconds=_seconds,
        peak_intermediate_rows=st.integers(0, 10**6),
        subqueries=st.integers(0, 100),
    ),
)


class TestEncodedBody:
    @settings(max_examples=100, deadline=None)
    @given(
        answers=_answer_sets, resources=_resources, tenant=_escaped_text,
        op=st.sampled_from(["query", "query_maximal"]),
        wall=_seconds, coalesced=st.booleans(),
    )
    @example(
        answers=frozenset(), tenant='a"\\\x01\u00e9', op="query", wall=2e16,
        coalesced=False, resources=SimpleNamespace(
            trace_id=None, wall_seconds=1e-7, peak_intermediate_rows=0,
            subqueries=0,
        ),
    )
    @example(
        answers=frozenset(), tenant="acme", op="query_maximal", wall=1e-9,
        coalesced=True, resources=None,
    )
    def test_spliced_body_is_encode_result(
        self, answers, resources, tenant, op, wall, coalesced
    ):
        result = SimpleNamespace(answers=answers, resources=resources)
        body = result_body(
            op, tenant, result, wall, coalesced,
            AnswerEncoder().fragment(answers),
        )
        expected = encode_result(op, tenant, result, wall, coalesced)
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

    def test_try_admit_grants_at_once_only_with_no_queue_and_room(self):
        async def scenario():
            controller = AdmissionController(global_limit=4)
            tenant = self._tenant("slow")  # max_concurrency 1
            slot = controller.try_admit(tenant)
            assert slot is not None and controller.in_flight_global == 1
            assert controller.try_admit(tenant) is None  # tenant cap full
            waiter = asyncio.ensure_future(controller.admit(tenant))
            await asyncio.sleep(0)
            slot.release()
            # A waiter is queued: the slot is its, not a newcomer's.
            assert controller.try_admit(tenant) is None
            (await waiter).release()
            await asyncio.sleep(0)
            controller.try_admit(tenant).release()
            assert controller.admitted_total == 3
            waits = controller.metrics.histogram(
                "service.queue_wait_seconds", labels={"tenant": "slow"}
            )
            assert waits.count == 3 and waits.quantile(0.0) == 0.0
            assert controller.metrics.counter(
                "service.admitted", labels={"tenant": "slow"}
            ).value == 3

        asyncio.run(scenario())

    def test_release_is_idempotent(self):
        async def scenario():
            controller = AdmissionController(global_limit=4)
            slot = await controller.admit(self._tenant())
            slot.release()
            slot.release()
            assert controller.in_flight_global == 0

        asyncio.run(scenario())

    def test_only_a_contended_release_spawns_a_notify(self):
        async def scenario():
            controller = AdmissionController(global_limit=4)
            tenant = self._tenant("slow")  # max_concurrency 1
            tasks = asyncio.all_tasks()
            for _ in range(50):
                async with await controller.admit(tenant):
                    pass
            assert asyncio.all_tasks() == tasks
            assert controller.admitted_total == 50
            # With a waiter queued, the release notifies it, and the
            # controller holds the notify until it has run.
            slot = await controller.admit(tenant)
            waiter = asyncio.ensure_future(controller.admit(tenant))
            await asyncio.sleep(0)
            assert controller.snapshot()["queued"] == 1
            slot.release()
            assert len(controller._notifying) == 1
            (await waiter).release()
            await asyncio.sleep(0)
            assert not controller._notifying
            assert asyncio.all_tasks() == tasks

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
        # A path routed under another method is a 405 naming the methods.
        for method, path, allow in [
            ("GET", "/query", "POST"),
            ("POST", "/metrics", "GET"),
            ("POST", "/debug/plans", "GET"),
        ]:
            status, body, headers = _request(
                server.url, path, method=method, raw=b"{}" if method == "POST" else None
            )
            assert status == 405, path
            assert "error" in body and body["allowed"] == [allow]
            assert headers["Allow"] == allow

    def test_budget_exceeded_is_429(self, server):
        status, body, headers = _request(
            server.url, "/query", {"query": SMALL_QUERY}, key="tiny-key"
        )
        assert status == 429
        assert "budget" in body["error"]
        assert "Retry-After" in headers


class TestIncrementalParsing:
    """The request arrives in pieces: every split answers as the whole
    request does, and every early end with the error a whole one gets."""

    @staticmethod
    def _strip(body):
        return {
            k: v for k, v in body.items()
            if k not in ("wall_ms", "trace_id", "resources")
        }

    def test_one_byte_per_send(self, server):
        head, body = _post("/query", {"query": QUERY}, key="acme-key")
        whole = _raw_exchange(server, head + body)
        status, answer = _dribble(
            server, [bytes([b]) for b in head + body]
        )
        assert status == whole[0] == 200
        assert self._strip(answer) == self._strip(whole[1])

    def test_head_split_at_every_offset_of_its_blank_line(self, server):
        head, body = _post("/query", {"query": QUERY}, key="acme-key")
        expected = self._strip(_raw_exchange(server, head + body)[1])
        for cut in range(len(head) - 4, len(head) + 1):
            status, answer = _dribble(server, [head[:cut], head[cut:] + body])
            assert status == 200, cut
            assert self._strip(answer) == expected, cut

    def test_body_split_across_two_sends(self, server):
        head, body = _post("/query", {"query": QUERY}, key="acme-key")
        expected = self._strip(_raw_exchange(server, head + body)[1])
        status, answer = _dribble(server, [head + body[:7], body[7:]])
        assert status == 200 and self._strip(answer) == expected

    def test_oversized_head_in_4k_chunks_is_431(self, server):
        data = b"POST /query HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n"
        whole = _raw_exchange(server, data)
        chunks = [data[i:i + 4096] for i in range(0, len(data), 4096)]
        assert _dribble(server, chunks) == whole
        assert whole[0] == 431

    def test_eof_mid_head_and_mid_body_are_400(self, server):
        head, body = _post("/query", {"query": QUERY}, key="acme-key")
        status, answer = _dribble(server, [head[:20], head[20:-2]], half_close=True)
        assert status == 400
        assert answer["error"] == (
            "connection closed before the end of the request head"
        )
        status, answer = _dribble(server, [head, body[:5]], half_close=True)
        assert status == 400
        assert answer["error"] == "request body shorter than Content-Length"

    def test_stalled_client_times_out_while_others_are_answered(
        self, server, monkeypatch
    ):
        head, body = _post("/query", {"query": QUERY}, key="acme-key")
        assert _raw_exchange(server, head + body)[0] == 200  # now cached
        _wait_until(lambda: not server._connections)
        monkeypatch.setattr(server_module, "READ_TIMEOUT", 1.0)
        with socket.create_connection((server.host, server.port), timeout=30) as sock:
            sock.sendall(head[:10])
            _wait_until(lambda: len(server._connections) == 1)
            # Other clients' requests read with the usual deadline.
            monkeypatch.setattr(server_module, "READ_TIMEOUT", 30.0)
            for _ in range(5):
                assert _raw_exchange(server, head + body)[0] == 200
            reply = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                reply += chunk
        status_line, _, payload = reply.partition(b"\r\n\r\n")
        assert int(status_line.split()[1]) == 400
        assert json.loads(payload)["error"] == "timed out reading the request head"

    def test_bytes_after_the_body_are_ignored(self, server):
        head, body = _post("/query", {"query": QUERY}, key="acme-key")
        expected = self._strip(_raw_exchange(server, head + body)[1])
        status, answer = _raw_exchange(
            server, head + body + b"GET /nope HTTP/1.1\r\n\r\n" + b"x" * 5000
        )
        assert status == 200 and self._strip(answer) == expected


class TestSocketEdge:
    """What the edge does with sockets that are not ready, or go away:
    partial sends, resets, accept failures, rebinding."""

    @staticmethod
    def _metrics_server(**kwargs):
        return MetricsServer(MetricsRegistry(), **kwargs)

    @staticmethod
    def _on_accept(monkeypatch, hook):
        """Call ``hook(sock)`` on every accepted socket."""
        init = server_module._Exchange.__init__

        def hooked(exchange, srv, sock):
            hook(sock)
            init(exchange, srv, sock)

        monkeypatch.setattr(server_module._Exchange, "__init__", hooked)

    @staticmethod
    def _loop_errors(srv):
        """Record every call of the server loop's exception handler."""
        errors, installed = [], threading.Event()

        def install():
            srv._loop.set_exception_handler(lambda loop, context: errors.append(context))
            installed.set()

        srv._loop.call_soon_threadsafe(install)
        assert installed.wait(30)
        return errors

    def test_slow_reader_gets_an_answer_larger_than_the_send_buffer(
        self, monkeypatch
    ):
        flushes = []
        flush = server_module._Exchange._flush

        def counting(exchange):
            flushes.append(len(exchange.unsent))
            flush(exchange)

        monkeypatch.setattr(server_module._Exchange, "_flush", counting)
        self._on_accept(monkeypatch, lambda sock: sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
        ))
        payload = {"rows": ["row-%06d" % i for i in range(20_000)]}
        with self._metrics_server(debug={"wide": lambda: payload}) as srv:
            with socket.socket() as sock:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.settimeout(30)
                sock.connect((srv.host, srv.port))
                sock.sendall(b"GET /debug/wide HTTP/1.1\r\n\r\n")
                # Read only once the server holds what the socket refused.
                _wait_until(lambda: any(
                    exchange.unsent is not None
                    for exchange in list(srv._connections)
                ))
                chunks = []
                while True:
                    chunk = sock.recv(1024)
                    if not chunk:
                        break
                    chunks.append(chunk)
            _wait_until(lambda: not srv._connections)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        assert int(head.split()[1]) == 200
        assert json.loads(body) == payload
        assert len(body) > 8 * 4096 and flushes  # the writer callback ran

    @pytest.mark.parametrize("state", ["head", "body"])
    def test_a_reset_mid_request_is_forgotten(self, state):
        head, body = _post("/debug", {"pad": "x" * 100})
        sent, reading = (head[:15], server_module._HEAD) if state == "head" else (
            head + body[:10], server_module._BODY
        )
        with self._metrics_server() as srv:
            errors = self._loop_errors(srv)
            with socket.create_connection((srv.host, srv.port), timeout=30) as sock:
                sock.sendall(sent)
                _wait_until(
                    lambda: [e.state for e in list(srv._connections)] == [reading]
                )
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
            _wait_until(lambda: not srv._connections)
            assert _request(srv.url, "/healthz")[0] == 200
            assert errors == []

    def test_a_client_gone_before_its_answer_raises_nothing(self):
        registry = TenantRegistry.from_dict(TENANTS)
        with ServiceServer(example2_graph(), tenants=registry) as srv:
            errors = self._loop_errors(srv)
            release, _, entered = TestConcurrency._gate(srv.sessions["acme"])
            for text, linger in [
                (QUERY, None), (SMALL_QUERY, struct.pack("ii", 1, 0)),  # FIN, RST
            ]:
                head, body = _post("/query", {"query": text}, key="acme-key")
                entered.clear()
                sock = socket.create_connection((srv.host, srv.port), timeout=30)
                sock.sendall(head + body)
                assert entered.wait(30)  # its answer is being computed
                if linger is not None:
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, linger)
                sock.close()
                release.set()
                _wait_until(lambda: not srv._connections)
                release.clear()
            assert _request(srv.url, "/healthz")[0] == 200
            assert errors == []

    def test_out_of_descriptors_pauses_accepting(self, monkeypatch):
        monkeypatch.setattr(server_module, "ACCEPT_PAUSE", 0.2)
        with self._metrics_server() as srv:
            listener, calls = srv._listeners[0], []
            accept = socket.socket.accept

            def failing_once(sock):
                if sock is listener:
                    calls.append(time.monotonic())
                    if len(calls) == 1:
                        raise OSError(errno.EMFILE, "Too many open files")
                return accept(sock)

            monkeypatch.setattr(socket.socket, "accept", failing_once)
            assert _request(srv.url, "/healthz")[0] == 200
        # The failure, then nothing until the pause is over.
        assert len(calls) >= 2 and calls[1] - calls[0] >= 0.9 * 0.2

    @pytest.mark.parametrize("host", ["127.0.0.1", "localhost"])  # literal, name
    def test_a_stopped_server_rebinds_its_port(self, host):
        first = self._metrics_server(host=host).start()
        port = first.port
        assert _request(first.url, "/healthz")[0] == 200  # leaves a TIME_WAIT
        first.stop()
        with self._metrics_server(host=host, port=port) as second:
            assert second.port == port
            assert _request(second.url, "/healthz")[0] == 200

    def test_accepted_sockets_have_nodelay(self, server, monkeypatch):
        flags = []
        self._on_accept(monkeypatch, lambda sock: flags.append(
            sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        ))
        assert _request(server.url, "/healthz")[0] == 200
        assert flags and all(flags)


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
            _moved()
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

    def test_tenant_result_caches_are_isolated(self):
        registry = TenantRegistry.from_dict(TENANTS)
        with ServiceServer(example2_graph(), tenants=registry) as srv:
            acme = srv.sessions["acme"].result_cache
            public = srv.sessions["public"].result_cache
            assert acme is not public
            counted = ("hits", "misses", "puts", "size")

            def counts():
                return {
                    name: tuple(cache.stats()[c] for c in counted)
                    for name, cache in (("acme", acme), ("public", public))
                }

            def scraped(tenant):
                text = urllib.request.urlopen(srv.url + "/metrics", timeout=30).read()
                wanted = (
                    'repro_service_cache_hits{tenant="%s"} ' % tenant,
                    'repro_session_result_cache_hits{tenant="%s"} ' % tenant,
                )
                return [
                    float(line.split()[-1])
                    for line in text.decode().splitlines()
                    if line.startswith(wanted)
                ]

            # Each tenant's traffic moves its own cache's counters by
            # exactly its own lookups, and the other's by nothing.
            for tenant, key, repeats in (("acme", "acme-key", 3), ("public", None, 2)):
                before = counts()
                for _ in range(repeats):
                    status, _, _ = _request(
                        srv.url, "/query",
                        {"query": "SELECT ?a ?b WHERE { ?a NME_rating ?b }"},
                        key=key,
                    )
                    assert status == 200
                after = counts()
                for name in after:
                    moved = tuple(a - b for a, b in zip(after[name], before[name]))
                    assert moved == (
                        (repeats - 1, 1, 1, 1) if name == tenant else (0, 0, 0, 0)
                    ), name
            assert scraped("acme") == [2.0, 2.0]
            assert scraped("public") == [1.0, 1.0]

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
# Result-cache hits answered on the event loop (work counted, never timed)
# ---------------------------------------------------------------------------
def _band_query(band):
    return 'SELECT ?x WHERE { ?x recorded_by "%s" }' % band


class TestLoopSideHits:
    @staticmethod
    def _submits(srv):
        """Record every job handed to the server's executor."""
        jobs = []
        submit = srv._executor.submit

        def recording(fn, *args, **kwargs):
            jobs.append(getattr(fn, "__name__", fn))
            return submit(fn, *args, **kwargs)

        srv._executor.submit = recording
        return jobs

    @staticmethod
    def _tasks(srv):
        """Record the coroutine of every Task the server loop creates."""
        names = []

        def counting(loop, coro, **kwargs):
            names.append(coro.__qualname__)
            return asyncio.Task(coro, loop=loop, **kwargs)

        installed = threading.Event()

        def install():
            srv._loop.set_task_factory(counting)
            installed.set()

        srv._loop.call_soon_threadsafe(install)
        assert installed.wait(30)
        return names

    @staticmethod
    def _counts(srv, tenant):
        cache = srv.sessions[tenant].result_cache.stats()
        return {
            "hits": cache["hits"], "misses": cache["misses"],
            "parse_hits": srv.planner.parses.hits,
            "parse_misses": srv.planner.parses.misses,
        }

    @staticmethod
    def _moved(before, after):
        return {name: after[name] - before[name] for name in before}

    @staticmethod
    def _answers(body):
        per_request = ("wall_ms", "trace_id", "resources")
        return {k: v for k, v in body.items() if k not in per_request}

    def test_hits_submit_nothing_to_the_executor(self):
        registry = TenantRegistry.from_dict(TENANTS)
        with ServiceServer(example2_graph(), tenants=registry) as srv:
            payloads = [{"query": QUERY}, {"query": QUERY, "maximal": True}]
            first = []
            for payload in payloads:
                status, body, _ = _request(srv.url, "/query", payload, key="acme-key")
                assert status == 200
                first.append(body)
            jobs = self._submits(srv)
            for payload, expected in zip(payloads, first):
                for _ in range(20):
                    before = self._counts(srv, "acme")
                    status, body, _ = _request(
                        srv.url, "/query", payload, key="acme-key"
                    )
                    assert status == 200
                    assert self._answers(body) == self._answers(expected)
                    assert self._moved(before, self._counts(srv, "acme")) == {
                        "hits": 1, "misses": 0,
                        "parse_hits": 1, "parse_misses": 0,
                    }
            assert jobs == []

    def test_a_hit_creates_no_task_and_a_miss_one(self):
        registry = TenantRegistry.from_dict(TENANTS)
        with ServiceServer(example2_graph(), tenants=registry) as srv:
            assert _request(srv.url, "/query", {"query": QUERY}, key="acme-key")[0] == 200
            srv.sessions["acme"].query(SMALL_QUERY)  # cached, never served
            tasks, jobs = self._tasks(srv), self._submits(srv)

            def exchange(text):
                """(Tasks of any kind, executor jobs, service.cache.hits
                rise); accepting a connection creates no Task."""
                del tasks[:], jobs[:]
                before = self._service_cache_hits(srv, "acme")
                status, _, _ = _request(
                    srv.url, "/query", {"query": text}, key="acme-key"
                )
                assert status == 200
                rose = self._service_cache_hits(srv, "acme") - before
                return list(tasks), list(jobs), rose

            for _ in range(10):
                assert exchange(QUERY) == ([], [], 1)
            # A hit whose serialised answers are gone: one Task carries
            # the hit it read to the executor's encoder, counted once.
            assert exchange(SMALL_QUERY) == (["_Exchange._finish"], ["fragment"], 1)
            assert exchange(SMALL_QUERY) == ([], [], 1)
            # A miss: one Task, one flight.
            assert exchange(_band_query("Swans")) == (
                ["_Exchange._finish"], ["_evaluate"], 0
            )

    @staticmethod
    def _service_cache_hits(srv, tenant):
        """``service.cache.hits{tenant}`` as ``/metrics`` reads it (the
        scrape answers on the loop: it creates no Task of the server's)."""
        text = urllib.request.urlopen(srv.url + "/metrics", timeout=30).read()
        series = 'repro_service_cache_hits{tenant="%s"} ' % tenant
        for line in text.decode().splitlines():
            if line.startswith(series):
                return float(line[len(series):])
        return 0.0

    def test_each_unique_text_misses_each_cache_once(self):
        registry = TenantRegistry.from_dict(TENANTS)
        with ServiceServer(example2_graph(), tenants=registry) as srv:
            jobs = self._submits(srv)
            for i in range(12):
                before = self._counts(srv, "public")
                payload = {"query": _band_query("band-%d" % i)}
                if i % 3 == 2:
                    payload["maximal"] = True
                status, _, _ = _request(srv.url, "/query", payload)
                assert status == 200
                assert self._moved(before, self._counts(srv, "public")) == {
                    "hits": 0, "misses": 1,
                    "parse_hits": 0, "parse_misses": 1,
                }
            assert jobs == ["_evaluate"] * 12

    def test_the_loop_never_evaluates_or_encodes(self, monkeypatch):
        import repro.engine as engine_module
        from repro.core.atoms import Atom
        from repro.rdf.graph import TRIPLE_RELATION
        from repro.service import protocol

        calls = []

        def recorded(name, fn):
            def call(*args, **kwargs):
                calls.append((name, threading.current_thread()))
                return fn(*args, **kwargs)
            return call

        for name in ("evaluate", "evaluate_max"):
            monkeypatch.setattr(
                engine_module, name, recorded(name, getattr(engine_module, name))
            )
        monkeypatch.setattr(
            protocol, "encode_answers",
            recorded("encode_answers", protocol.encode_answers),
        )
        registry = TenantRegistry.from_dict({
            "tiers": {"small": {"cache_size": 2}},
            "tenants": [{"name": "public", "tier": "small"}],
        })
        bands = ["Caribou", "Swans", "Liars"]
        with ServiceServer(example2_graph(), tenants=registry) as srv:
            session = srv.sessions["public"]
            session.add_triples(
                ("record_%d" % i, "recorded_by", band)
                for i, band in enumerate(bands)
            )

            def ask(text, maximal=False):
                payload = {"query": text}
                if maximal:
                    payload["maximal"] = True
                status, body, _ = _request(srv.url, "/query", payload)
                assert status == 200 and body["rows"] >= 1
                return body

            # Hits, misses and LRU evictions: three texts cycle through
            # a two-entry cache, each asked twice in a row.
            for _ in range(2):
                for band in bands:
                    ask(_band_query(band))
                    ask(_band_query(band))
            ask(QUERY, maximal=True)
            ask(QUERY, maximal=True)
            # An entry cleared between the loop's lookup and its serve.
            cache = session.result_cache
            peek = cache.peek

            def clearing(key, version):
                value = peek(key, version)
                cache.clear()
                return value

            cache.peek = clearing
            ask(QUERY, maximal=True)
            del cache.peek
            ask(QUERY, maximal=True)
            # A write between requests: the touched entry is recomputed.
            session.add_triples([("Our_love", "recorded_by", "Liars")])
            grown = ask(_band_query("Liars"))
            assert {"?x": "Our_love"} in grown["answers"]
            ask(_band_query("Liars"))
            session.remove(Atom(TRIPLE_RELATION, ("Our_love", "recorded_by", "Liars")))
            assert {"?x": "Our_love"} not in ask(_band_query("Liars"))["answers"]
            stats = cache.stats()
            assert stats["hits"] >= 6 and stats["evictions"] >= 1
            loop_thread = srv._thread
        assert {name for name, _ in calls} == {
            "evaluate", "evaluate_max", "encode_answers",
        }
        assert all(thread is not loop_thread for _, thread in calls)

    def test_a_hit_without_a_live_fragment_is_encoded_on_the_executor(
        self, monkeypatch
    ):
        from repro.service import protocol

        encoded = []
        encode = protocol.encode_answers

        def recording(answers):
            encoded.append(threading.current_thread())
            return encode(answers)

        monkeypatch.setattr(protocol, "encode_answers", recording)
        registry = TenantRegistry.from_dict(TENANTS)
        with ServiceServer(example2_graph(), tenants=registry) as srv:
            srv.sessions["acme"].query(QUERY)  # cached in process, never served
            jobs = self._submits(srv)
            before = self._counts(srv, "acme")
            for _ in range(3):
                status, body, _ = _request(
                    srv.url, "/query", {"query": QUERY}, key="acme-key"
                )
                assert status == 200 and body["rows"] >= 2
            assert self._moved(before, self._counts(srv, "acme"))["hits"] == 3
            assert jobs == ["fragment"]
            assert len(encoded) == 1 and encoded[0] is not srv._thread

    def test_an_unlogged_loop_hit_is_listed_by_debug_queries(self):
        registry = TenantRegistry.from_dict(TENANTS)
        with ServiceServer(example2_graph(), tenants=registry) as srv:
            assert _request(srv.url, "/query", {"query": QUERY}, key="acme-key")[0] == 200
            bodies = [
                _request(srv.url, "/query", {"query": QUERY}, key="acme-key")[1]
                for _ in range(2)
            ]
            debug = _request(srv.url, "/debug/queries")[1]["acme"]["recent"]
        traces = [body["trace_id"] for body in bodies]
        assert all(traces) and len(set(traces)) == 2
        assert all(
            body["resources"]["wall_seconds"] > 0
            and body["resources"]["peak_intermediate_rows"] == 0
            and body["resources"]["subqueries"] == 0
            for body in bodies
        )
        by_trace = {record["trace_id"]: record for record in debug}
        for body in bodies:
            record = by_trace[body["trace_id"]]
            assert (record["cache"], record["tenant"], record["rows"]) == (
                "hit", "acme", body["rows"],
            )
            assert record["wall_seconds"] == body["resources"]["wall_seconds"]

    def test_a_loop_hit_is_observed_like_an_executor_hit(self, tmp_path):
        log_path = tmp_path / "obslog.jsonl"
        obslog = QueryLog(sink=str(log_path))
        registry = TenantRegistry.from_dict(TENANTS)
        with ServiceServer(
            example2_graph(), tenants=registry, obslog=obslog
        ) as srv:
            assert _request(
                srv.url, "/query", {"query": QUERY}, key="acme-key"
            )[0] == 200
            # The executor's path for a hit: Session.query itself.
            in_process = srv.sessions["acme"].query(QUERY)
            jobs = self._submits(srv)
            bodies = [
                _request(srv.url, "/query", {"query": QUERY}, key="acme-key")[1]
                for _ in range(2)
            ]
            assert jobs == []
            debug = _request(srv.url, "/debug/queries")[1]["acme"]["recent"]
        obslog.close()
        traces = [body["trace_id"] for body in bodies]
        assert all(traces) and len(set(traces)) == 2
        assert all(set(body["resources"]) == {
            "wall_seconds", "peak_intermediate_rows", "subqueries",
        } for body in bodies)
        by_trace = {record["trace_id"]: record for record in debug}
        for trace in traces:
            assert by_trace[trace]["cache"] == "hit"
            assert by_trace[trace]["tenant"] == "acme"
        events = [json.loads(line) for line in log_path.read_text().splitlines()]

        def story(trace):
            return [
                (
                    e["event"], sorted(e),
                    e.get("outcome"), e.get("parse_cache"), e.get("profile_cache"),
                )
                for e in events
                if e.get("trace_id") == trace and e["event"].startswith("query.")
            ]

        expected = story(in_process.resources.trace_id)
        assert [step[0] for step in expected] == [
            "query.start", "query.parse", "query.plan", "query.cache",
            "query.complete",
        ]
        assert expected[3][2] == "hit"
        for trace in traces:
            assert story(trace) == expected
        script = Path(__file__).resolve().parents[1] / "scripts" / "validate_trace.py"
        checked = subprocess.run(
            [sys.executable, str(script), "--format", "obslog", str(log_path)],
            capture_output=True, text=True,
        )
        assert checked.returncode == 0, checked.stdout + checked.stderr


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
