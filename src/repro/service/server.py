"""The multi-tenant async query service: a stdlib-``asyncio`` HTTP daemon.

:class:`ServiceServer` is the long-lived, network-facing front end of the
reproduction — the "millions of users" deployment shape.  One process
owns

* one **storage backend** (memory or SQLite) and one shared
  :class:`~repro.planner.planner.Planner`, so parsed queries, structural
  profiles, and EXPLAINs warm across *all* tenants;
* a pool of **warm per-tenant** :class:`~repro.engine.Session`\\ s, each
  carrying its tenant's private version-stamped
  :class:`~repro.storage.cache.ResultCache`, its tier's
  :class:`~repro.telemetry.resources.ResourceBudget`, and a
  tenant-stamped view of the shared obslog;
* an :class:`~repro.service.admission.AdmissionController` enforcing
  per-tenant concurrency caps and a global in-flight ceiling — requests
  queue briefly, then are shed with ``429`` + ``Retry-After``;
* an **in-flight table** (single-flight coalescing): the first request
  for a ``(tenant, op, query text)`` goes to the executor at once,
  identical requests arriving while it runs await the same future and
  share its answers, distinct texts run side by side.

Evaluation is synchronous Python, so the asyncio loop never runs a
query itself: admitted requests are handed to a bounded thread executor
— which also serialises the answers, once per answer set
(:class:`~repro.service.protocol.AnswerEncoder`) — and the loop keeps
accepting, shedding, and answering health checks while queries grind.
HTTP routes:

====================  =====================================================
``POST /query``       evaluate (``{"maximal": true}`` for ``p_m(D)``)
``POST /ask``         is a candidate mapping an answer?
``POST /explain``     static EXPLAIN profile, no evaluation
``GET /healthz``      liveness + drain state + admission snapshot
``GET /metrics``      Prometheus exposition (shared registry, per-tenant
                      labels, per-tenant cache gauges)
``GET /tenants``      the key-free tenant/QoS registry
``GET /debug/*``      the live debug endpoints (queries/plans/stats/
                      profile), exactly as on ``MetricsServer``
====================  =====================================================

Route matching, ``/healthz`` fields, and all error bodies are shared
with :class:`~repro.telemetry.promhttp.MetricsServer` through one
:class:`~repro.telemetry.routes.Router` built by
``MetricsServer.build_router`` — the service *embeds* an unstarted
metrics server and overlays its own routes, so the two daemons cannot
drift apart.

Shutdown is graceful: ``SIGTERM`` (or :meth:`ServiceServer.stop`) stops
accepting, answers new work ``503 draining``, waits for every in-flight
request to finish writing its response, then exits — zero dropped
queries, visible in the obslog as ``service.draining`` /
``service.stopped`` events.

``repro serve`` is the CLI wrapper; the server can also run embedded
(``start()``/``stop()`` drive a private event-loop thread, which is how
the tests hammer it).
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from ..engine import Result, Session
from ..exceptions import ParseError, ReproError, ResourceBudgetExceeded
from ..storage import StorageBackend
from ..telemetry.obslog import QueryLog
from ..telemetry.promhttp import MetricsServer
from ..telemetry.routes import (
    JSON_CONTENT_TYPE,
    RouteRequest,
    RouteResponse,
    Router,
    error_response,
    json_response,
)
from .admission import DEFAULT_GLOBAL_LIMIT, AdmissionController, LoadShedError
from .protocol import (
    MAX_BODY_BYTES,
    AnswerEncoder,
    ProtocolError,
    QueryRequest,
    encode_ask,
    encode_explain,
    result_body,
)
from .tenancy import API_KEY_HEADER, TenantConfig, TenantRegistry, default_registry

__all__ = ["ServiceServer"]

#: Largest request head (request line + headers) accepted (431 beyond).
MAX_HEAD_BYTES = 1 << 16

#: Timeout of the request-head read, and of each body read.
READ_TIMEOUT = 30.0

_HEAD_END = b"\r\n\r\n"

_HTTP_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 401: "Unauthorized", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


def _evaluate(
    session: Session, op: str, text: str, encoder: AnswerEncoder
) -> Tuple[Result, bytes]:
    """One flight, on an executor thread: the result and its serialised
    ``answers`` array."""
    fn = session.query if op == "query" else session.query_maximal
    result = fn(text)
    return result, encoder.fragment(result.answers)


async def _read_head(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The request head through its blank line — or ``None`` for one over
    :data:`MAX_HEAD_BYTES`, which is read to its end and discarded so the
    client can finish writing and read the 431 instead of a reset."""
    oversized = False
    while True:
        try:
            head = await reader.readuntil(_HEAD_END)
        except asyncio.LimitOverrunError as exc:
            oversized = True
            await reader.read(exc.consumed)
        else:
            return None if oversized else head


class ServiceServer:
    """The multi-tenant asyncio HTTP query daemon (module docstring)."""

    def __init__(
        self,
        data: Any = None,
        tenants: Optional[TenantRegistry] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        backend: Optional[str] = None,
        path: Optional[str] = None,
        global_limit: int = DEFAULT_GLOBAL_LIMIT,
        obslog: Optional[QueryLog] = None,
        drain_timeout: float = 30.0,
    ):
        self.tenants = tenants if tenants is not None else default_registry()
        self.host = host
        self._requested_port = port
        self.drain_timeout = drain_timeout
        self.obslog = obslog
        # One root session owns backend conversion and the shared planner;
        # it never runs queries itself.  Every tenant session shares the
        # root's database.
        self._root = Session(
            data, backend=backend, path=path, cache=False, obslog=obslog
        )
        self.planner = self._root.planner
        self.metrics = self.planner.metrics
        self.database: StorageBackend = self._root.database
        #: The warm per-tenant session pool: every session shares the
        #: planner (one plan cache for the fleet) and the database, and
        #: owns its tenant's cache/budgets/obslog stamp.
        self.sessions: Dict[str, Session] = {
            tenant.name: Session(
                self.database,
                planner=self.planner,
                cache_size=tenant.tier.cache_size,
                budgets=tenant.tier.budget,
                track_resources=True,
                obslog=obslog,
                tenant=tenant.name,
            )
            for tenant in self.tenants
        }
        self.admission = AdmissionController(
            global_limit=global_limit, metrics=self.metrics
        )
        #: Evaluations in progress by ``(tenant, op, query text)``; only
        #: the event-loop thread touches it.
        self._flights: Dict[Tuple[str, str, str], "asyncio.Future"] = {}
        self._answers = AnswerEncoder()
        self._executor = ThreadPoolExecutor(
            max_workers=global_limit, thread_name_prefix="repro-service"
        )
        # The embedded (never started) metrics server supplies the
        # shared observability routes and the /debug/profile plumbing.
        self._obs = MetricsServer(
            [self.metrics, self._service_exposition],
            debug=self._debug_providers(),
        )
        self.router = self._build_router()
        self.requests_served = 0
        self._started_at = 0.0
        self._draining = False
        self._connections: set = set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()

    # ------------------------------------------------------------------
    # Observability surfaces
    # ------------------------------------------------------------------
    def _debug_providers(self) -> Dict[str, Any]:
        """Aggregate every tenant session's debug payloads by tenant."""
        def queries() -> Dict[str, Any]:
            return {
                name: session.debug_queries()
                for name, session in self.sessions.items()
            }

        def plans() -> Dict[str, Any]:
            # The planner (and so the plan caches) is shared: any
            # tenant's session describes the same EXPLAIN cache.
            if not self.sessions:
                return {}
            return next(iter(self.sessions.values())).debug_plans()

        def stats() -> Dict[str, Any]:
            if not self.sessions:
                return {}
            return next(iter(self.sessions.values())).debug_stats()

        return {"queries": queries, "plans": plans, "stats": stats}

    def _service_exposition(self) -> str:
        """Scrape-time Prometheus text for per-tenant cache state and the
        service gauges that live outside the shared registry."""
        from ..telemetry.metrics import MetricsRegistry

        registry = MetricsRegistry()
        for name, session in self.sessions.items():
            cache = session.result_cache
            if cache is None:
                continue
            stats = cache.stats()
            labels = {"tenant": name}
            registry.gauge("service.cache.hits", labels=labels).set(
                stats["hits"]
            )
            registry.gauge("service.cache.misses", labels=labels).set(
                stats["misses"]
            )
            registry.gauge("service.cache.entries", labels=labels).set(
                stats["size"]
            )
        registry.gauge("service.draining").set(1 if self._draining else 0)
        registry.gauge("service.tenants").set(len(self.sessions))
        return registry.to_prometheus()

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` payload — the MetricsServer fields (identical
        semantics) plus the service block."""
        payload = self._obs.health()
        payload["status"] = "draining" if self._draining else "ok"
        payload["uptime_seconds"] = (
            time.time() - self._started_at if self._started_at else 0.0
        )
        payload["requests_served"] = self.requests_served
        payload["service"] = {
            "tenants": self.tenants.names(),
            "admission": self.admission.snapshot(),
            "draining": self._draining,
            "backend": type(self.database).__name__,
            "data_version": self.database.data_version,
            "facts": len(self.database),
        }
        return payload

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _build_router(self) -> Router:
        router = self._obs.build_router()
        router.add("GET", "/healthz", self._route_healthz)
        router.add("GET", "/tenants", self._route_tenants)
        router.add("POST", "/query", self._route_query)
        router.add("POST", "/ask", self._route_ask)
        router.add("POST", "/explain", self._route_explain)
        return router

    def _route_healthz(self, request: RouteRequest) -> RouteResponse:
        return json_response(200, self.health(), request, title="/healthz")

    def _route_tenants(self, request: RouteRequest) -> RouteResponse:
        payload = {
            "tenants": self.tenants.snapshot(),
            "admission": self.admission.snapshot(),
        }
        return json_response(200, payload, request, title="/tenants")

    def _authenticate(
        self, request: RouteRequest
    ) -> Tuple[Optional[TenantConfig], Optional[RouteResponse]]:
        key = request.header(API_KEY_HEADER)
        if key is None:
            auth = request.header("Authorization", "")
            if auth.lower().startswith("bearer "):
                key = auth[7:].strip()
        tenant = self.tenants.authenticate(key)
        if tenant is None:
            message = (
                "unknown API key" if key
                else "missing API key (send %s or Authorization: Bearer)"
                % API_KEY_HEADER
            )
            return None, error_response(401, message)
        return tenant, None

    async def _route_query(self, request: RouteRequest) -> RouteResponse:
        return await self._serve_op("query", request)

    async def _route_ask(self, request: RouteRequest) -> RouteResponse:
        return await self._serve_op("ask", request)

    async def _route_explain(self, request: RouteRequest) -> RouteResponse:
        return await self._serve_op("explain", request)

    async def _serve_op(self, op: str, request: RouteRequest) -> RouteResponse:
        tenant, failure = self._authenticate(request)
        if failure is not None:
            return failure
        start = time.perf_counter()
        if self._draining:
            return self._finish_op(
                tenant, op, start,
                error_response(
                    503, "server is draining",
                    headers={"Retry-After": "1"},
                ),
            )
        try:
            parsed = QueryRequest.from_body(op, request.body)
        except ProtocolError as exc:
            return self._finish_op(
                tenant, op, start, error_response(exc.status, str(exc))
            )
        self.metrics.counter(
            "service.requests", labels={"tenant": tenant.name, "op": parsed.op}
        ).inc()
        try:
            slot = await self.admission.admit(tenant)
        except LoadShedError as exc:
            if self.obslog is not None:
                self.obslog.emit(
                    "service.shed", tenant=tenant.name, op=parsed.op,
                    scope=exc.scope, waited_ms=round(exc.waited * 1000.0, 3),
                )
            return self._finish_op(
                tenant, op, start,
                error_response(
                    429, str(exc),
                    headers={"Retry-After": "%g" % exc.retry_after},
                    scope=exc.scope, retry_after=exc.retry_after,
                ),
            )
        async with slot:
            response = await self._execute(tenant, parsed, start)
        return self._finish_op(tenant, op, start, response)

    async def _fly(
        self, tenant: TenantConfig, op: str, text: str
    ) -> Tuple[Result, bytes, bool]:
        """Single-flight evaluation: ``(result, serialised answers,
        coalesced)``.  The first request for a ``(tenant, op, text)``
        starts the flight; identical ones arriving before it lands ride
        it, failure included."""
        key = (tenant.name, op, text)
        flight = self._flights.get(key)
        coalesced = flight is not None
        if coalesced:
            self.metrics.counter(
                "service.coalesced", labels={"tenant": tenant.name}
            ).inc()
        else:
            flight = asyncio.get_running_loop().run_in_executor(
                self._executor, _evaluate,
                self.sessions[tenant.name], op, text, self._answers,
            )
            self._flights[key] = flight
            flight.add_done_callback(lambda _: self._flights.pop(key, None))
        # Shielded: a cancelled request must not cancel its peers' flight.
        result, answers_json = await asyncio.shield(flight)
        return result, answers_json, coalesced

    async def _execute(
        self, tenant: TenantConfig, parsed: QueryRequest, start: float
    ) -> RouteResponse:
        session = self.sessions[tenant.name]
        loop = asyncio.get_running_loop()
        try:
            if parsed.op in ("query", "query_maximal"):
                result, answers_json, coalesced = await self._fly(
                    tenant, parsed.op, parsed.query
                )
                return RouteResponse(200, JSON_CONTENT_TYPE, result_body(
                    parsed.op, tenant.name, result,
                    time.perf_counter() - start, coalesced, answers_json,
                ))
            if parsed.op == "ask":
                decision = await loop.run_in_executor(
                    self._executor, session.ask, parsed.query, parsed.candidate
                )
                body = encode_ask(
                    tenant.name, decision, time.perf_counter() - start
                )
            else:  # explain
                profile = await loop.run_in_executor(
                    self._executor, session.explain, parsed.query
                )
                body = encode_explain(tenant.name, profile)
        except ResourceBudgetExceeded as exc:
            return error_response(
                429,
                "resource budget exceeded: %s" % exc,
                headers={"Retry-After": "%g" % tenant.tier.retry_after},
                budget="hard", trace_id=getattr(exc, "trace_id", None),
            )
        except ParseError as exc:
            return error_response(400, "parse error: %s" % exc)
        except ReproError as exc:
            return error_response(400, "%s: %s" % (type(exc).__name__, exc))
        return json_response(200, body)

    def _finish_op(
        self, tenant: Optional[TenantConfig], op: str, start: float,
        response: RouteResponse,
    ) -> RouteResponse:
        wall = time.perf_counter() - start
        name = tenant.name if tenant is not None else "?"
        self.metrics.counter(
            "service.responses",
            labels={"tenant": name, "status": str(response.status)},
        ).inc()
        self.metrics.histogram(
            "service.request_seconds", labels={"tenant": name}
        ).observe(wall)
        if self.obslog is not None:
            self.obslog.emit(
                "service.request", tenant=name, op=op,
                status=response.status, wall_ms=round(wall * 1000.0, 3),
            )
        return response

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            request = await self._read_request(reader)
            if isinstance(request, RouteResponse):  # parse-level failure
                response = request
            else:
                self.requests_served += 1
                outcome = self.router.dispatch(request)
                if hasattr(outcome, "__await__"):
                    try:
                        outcome = Router.finish(await outcome, request)
                    except Exception as exc:  # noqa: BLE001
                        outcome = Router.internal_error(exc)
                response = outcome
            await self._write_response(writer, response)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request
        finally:
            self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Any:
        """Parse one HTTP/1.1 request into a
        :class:`~repro.telemetry.routes.RouteRequest` — or return the
        error :class:`RouteResponse` to answer with."""
        try:
            head = await asyncio.wait_for(_read_head(reader), READ_TIMEOUT)
        except asyncio.TimeoutError:
            return error_response(400, "timed out reading the request head")
        except asyncio.IncompleteReadError:
            return error_response(
                400, "connection closed before the end of the request head"
            )
        if head is None:
            return error_response(
                431, "request head exceeds the %d byte limit" % MAX_HEAD_BYTES
            )
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        parts = request_line.split()
        if len(parts) != 3:
            return error_response(400, "malformed HTTP request line")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for line in header_lines:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            return error_response(400, "invalid Content-Length")
        if length > MAX_BODY_BYTES:
            # Drain (bounded) so the client can finish writing and read
            # the error instead of seeing a reset mid-upload.
            remaining = min(length, 4 * MAX_BODY_BYTES)
            while remaining > 0:
                try:
                    chunk = await asyncio.wait_for(
                        reader.read(min(remaining, 65536)), READ_TIMEOUT
                    )
                except asyncio.TimeoutError:
                    break
                if not chunk:
                    break
                remaining -= len(chunk)
            return error_response(
                413,
                "request body of %d bytes exceeds the %d byte limit"
                % (length, MAX_BODY_BYTES),
            )
        body = b""
        if length > 0:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length), READ_TIMEOUT
                )
            except (asyncio.TimeoutError, asyncio.IncompleteReadError):
                return error_response(400, "request body shorter than Content-Length")
        path, _, query = target.partition("?")
        return RouteRequest(method, path, query, headers=headers, body=body)

    async def _write_response(
        self, writer: asyncio.StreamWriter, response: RouteResponse
    ) -> None:
        reason = _HTTP_STATUS_TEXT.get(response.status, "Unknown")
        head = [
            "HTTP/1.1 %d %s" % (response.status, reason),
            "Content-Type: %s" % response.content_type,
            "Content-Length: %d" % len(response.body),
            "Connection: close",
        ]
        for name, value in response.headers.items():
            head.append("%s: %s" % (name, value))
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + response.body
        )
        await writer.drain()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return self._requested_port

    @property
    def url(self) -> str:
        return "http://%s:%d" % (self.host, self.port)

    @property
    def draining(self) -> bool:
        return self._draining

    async def start_async(self) -> "ServiceServer":
        """Bind and start accepting on the current event loop."""
        if self._server is not None:
            return self
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port,
            limit=MAX_HEAD_BYTES,
        )
        self._started_at = time.time()
        self._loop = asyncio.get_running_loop()
        if self.obslog is not None:
            self.obslog.emit(
                "service.started", host=self.host, port=self.port,
                tenants=self.tenants.names(),
            )
        return self

    async def shutdown_async(self, drain: bool = True) -> None:
        """Graceful drain: refuse new work, finish in-flight, release."""
        if self._server is None:
            return
        self._draining = True
        if self.obslog is not None:
            self.obslog.emit(
                "service.draining",
                in_flight=self.admission.in_flight_global,
                connections=len(self._connections),
            )
        server, self._server = self._server, None
        server.close()
        await server.wait_closed()
        if drain and self._connections:
            pending = {
                task for task in self._connections
                if task is not asyncio.current_task()
            }
            if pending:
                await asyncio.wait(pending, timeout=self.drain_timeout)
        dropped = len(self._connections)
        if self.obslog is not None:
            self.obslog.emit("service.stopped", dropped_connections=dropped)
        for session in self.sessions.values():
            session.close()
        self._root.close()
        self._executor.shutdown(wait=False)

    async def serve_forever(self) -> None:
        """Foreground mode (the CLI): serve until SIGTERM/SIGINT, then
        drain gracefully."""
        import signal

        await self.start_async()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await stop.wait()
        await self.shutdown_async(drain=True)

    # -- embedded mode: a private event-loop thread (tests, notebooks) --
    def start(self) -> "ServiceServer":
        """Serve from a daemon thread running a private event loop."""
        if self._thread is not None:
            return self
        ready = threading.Event()
        failure: List[BaseException] = []

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.start_async())
            except BaseException as exc:  # surface bind errors to start()
                failure.append(exc)
                ready.set()
                loop.close()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()
                self._stopped.set()

        self._thread = threading.Thread(
            target=_run, name="repro-service", daemon=True
        )
        self._thread.start()
        ready.wait()
        if failure:
            self._thread = None
            raise failure[0]
        return self

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Drain and stop the embedded server thread (idempotent)."""
        thread, loop = self._thread, self._loop
        if thread is None or loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.shutdown_async(drain=drain), loop
        )
        try:
            future.result(timeout)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout)
            self._thread = None

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    def __repr__(self) -> str:
        state = "serving on %s" % self.url if self._started_at else "stopped"
        return "ServiceServer(%s, %d tenants)" % (state, len(self.sessions))
