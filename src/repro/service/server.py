"""The one HTTP front: an ``asyncio`` transport, the observability server
on it, and the multi-tenant query daemon built on that.

Each connection is one :class:`asyncio.Protocol` (``_Exchange``): the
request is parsed as its bytes arrive, under one read deadline,
dispatched through the server's :class:`~repro.telemetry.routes.Router`
and answered once (``Connection: close``).  A route that is not there
is a ``404`` listing the routes that are; a path routed under another
method is a ``405`` with an ``Allow`` header.

:class:`MetricsServer` owns the transport, its lifecycle — foreground
(:meth:`~MetricsServer.serve_forever`, drained by SIGTERM/SIGINT) or
embedded (:meth:`~MetricsServer.start`/:meth:`~MetricsServer.stop` on a
private event-loop thread; also a context manager) — and the
observability routes: ``GET /metrics`` (the Prometheus exposition of
every source), ``/healthz``, ``/debug`` (the index), ``/debug/<name>``
(a registered provider's live snapshot; ``?format=html`` renders any
JSON route as a page) and ``/debug/profile`` (the sampling profiler,
which stopping the server stops).  ``repro run --serve-debug`` runs
it.

:class:`ServiceServer` is a :class:`MetricsServer` — the long-lived,
network-facing "millions of users" deployment shape (``repro serve``).
It adds

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
  for a ``(tenant, op, query text)`` that misses the result cache goes
  to the executor at once, identical requests arriving while it runs
  await the same future and share its answers, distinct texts run side
  by side.

Evaluation is synchronous Python, so the loop never parses, plans or
evaluates a query, and never serialises answers.  It answers one kind of
request itself, inside ``data_received`` and without creating a Task: a
``query``/``query_maximal`` admitted at once whose parse and answers its
tenant's caches hold at the current data version
(:meth:`~repro.engine.Session.cached` — two dictionary reads, one
counted hit, the query's usual observation) and whose answers are
already serialised (:meth:`~repro.service.protocol.AnswerEncoder.peek`).
Everything else — a miss, a hit whose serialised answers are gone,
``ask``, ``explain``, a request that queues for admission — is one Task
that hands its work to a bounded thread executor, which also serialises
the answers, once per answer set
(:class:`~repro.service.protocol.AnswerEncoder`); the loop keeps
accepting, shedding, and answering health checks while queries grind.
Its routes, beside the observability ones it inherits:

====================  =====================================================
``POST /query``       evaluate (``{"maximal": true}`` for ``p_m(D)``)
``POST /ask``         is a candidate mapping an answer?
``POST /explain``     static EXPLAIN profile, no evaluation
``GET /tenants``      the key-free tenant/QoS registry
====================  =====================================================

Its ``/healthz`` adds the service and runtime blocks, ``/metrics`` the
per-tenant cache gauges, and ``/debug/queries`` groups by tenant.

Shutdown is graceful: ``SIGTERM`` (or :meth:`MetricsServer.stop`) stops
accepting, answers new work ``503 draining``, waits for every in-flight
request to finish writing its response, then exits — zero dropped
queries, visible in the obslog as ``service.draining`` /
``service.stopped`` events.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..engine import Result, Session
from ..exceptions import ParseError, ReproError, ResourceBudgetExceeded
from ..storage import StorageBackend
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.obslog import QueryLog
from ..telemetry.routes import (
    JSON_CONTENT_TYPE,
    PROMETHEUS_CONTENT_TYPE,
    RouteRequest,
    RouteResponse,
    Router,
    error_response,
    json_response,
)
from .admission import (
    DEFAULT_GLOBAL_LIMIT,
    AdmissionController,
    AdmissionSlot,
    LoadShedError,
)
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

__all__ = ["MetricsServer", "ServiceServer"]

#: Largest request head (request line + headers) accepted (431 beyond).
MAX_HEAD_BYTES = 1 << 16

#: Seconds a connection may take to send its whole request.
READ_TIMEOUT = 30.0

_HEAD_END = b"\r\n\r\n"

_ANSWER_OPS = ("query", "query_maximal")

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


def _failure(tenant: TenantConfig, exc: ReproError) -> RouteResponse:
    """The error response of a query that raised ``exc``."""
    if isinstance(exc, ResourceBudgetExceeded):
        return error_response(
            429,
            "resource budget exceeded: %s" % exc,
            headers={"Retry-After": "%g" % tenant.tier.retry_after},
            budget="hard", trace_id=getattr(exc, "trace_id", None),
        )
    if isinstance(exc, ParseError):
        return error_response(400, "parse error: %s" % exc)
    return error_response(400, "%s: %s" % (type(exc).__name__, exc))


# Where an exchange stands: reading the head, skipping an over-long head
# to its end, reading the body, discarding an over-long body, answering.
_HEAD, _SKIP_HEAD, _BODY, _SKIP_BODY, _ANSWERING = range(5)


def _response_bytes(response: RouteResponse) -> bytes:
    head = "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n" \
        "Connection: close\r\n" % (
            response.status, _HTTP_STATUS_TEXT.get(response.status, "Unknown"),
            response.content_type, len(response.body),
        )
    for name, value in response.headers.items():
        head += "%s: %s\r\n" % (name, value)
    return (head + "\r\n").encode("latin-1") + response.body


class _Exchange(asyncio.Protocol):
    """One connection: its request parsed as the bytes arrive, one
    response, then close.  ``done`` resolves once the connection is gone
    and nothing is left computing its answer."""

    def __init__(self, server: "MetricsServer", loop: asyncio.AbstractEventLoop):
        self.server = server
        self.loop = loop
        self.transport: Optional[asyncio.Transport] = None
        self.state = _HEAD
        self.buffer = bytearray()
        self.request: Optional[RouteRequest] = None
        self.wanted = 0  # body bytes to read (_BODY) or to discard
        self.refusal: Optional[RouteResponse] = None  # the 413 (_SKIP_BODY)
        self.task: Optional["asyncio.Task"] = None
        self.lost = False
        self.done = loop.create_future()
        self.deadline = loop.call_later(READ_TIMEOUT, self._cut_short, True)

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server._connections.add(self.done)
        self.done.add_done_callback(self.server._connections.discard)

    def data_received(self, data: bytes) -> None:
        state = self.state
        if state == _HEAD or state == _SKIP_HEAD:
            buffer = self.buffer
            seen = len(buffer)
            buffer += data
            end = buffer.find(_HEAD_END, max(0, seen - 3))
            if end < 0:
                if len(buffer) > MAX_HEAD_BYTES:
                    # Read an over-long head to its end, keeping only what
                    # could begin its blank line, so the client can finish
                    # writing and read the 431 instead of a reset.
                    self.state = _SKIP_HEAD
                    del buffer[:-3]
                return
            if state == _SKIP_HEAD or end > MAX_HEAD_BYTES:
                self._answer(error_response(
                    431, "request head exceeds the %d byte limit" % MAX_HEAD_BYTES
                ))
                return
            self._read_head(bytes(buffer[:end]), buffer[end + 4:])
        elif state == _BODY:
            self.buffer += data
            self._read_body()
        elif state == _SKIP_BODY:
            self.wanted -= len(data)
            if self.wanted <= 0:
                self._answer(self.refusal)
        # Bytes after the request are ignored.

    def _read_head(self, head: bytes, rest: bytearray) -> None:
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        parts = request_line.split()
        if len(parts) != 3:
            return self._answer(error_response(400, "malformed HTTP request line"))
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
            return self._answer(error_response(400, "invalid Content-Length"))
        path, _, query = target.partition("?")
        self.request = RouteRequest(method, path, query, headers=headers)
        self.buffer = rest
        if length > MAX_BODY_BYTES:
            # Discard (bounded) so the client can finish writing and read
            # the error instead of seeing a reset mid-upload.
            self.state = _SKIP_BODY
            self.wanted = min(length, 4 * MAX_BODY_BYTES) - len(rest)
            self.refusal = error_response(
                413, "request body of %d bytes exceeds the %d byte limit"
                % (length, MAX_BODY_BYTES),
            )
            if self.wanted <= 0:
                self._answer(self.refusal)
            return
        self.state = _BODY
        self.wanted = length
        self._read_body()

    def _read_body(self) -> None:
        if len(self.buffer) < self.wanted:
            return
        request = self.request
        request.body = bytes(self.buffer[:self.wanted])
        self.state = _ANSWERING
        self.deadline.cancel()
        server = self.server
        server.requests_served += 1
        outcome = server.router.dispatch(request)
        if isinstance(outcome, RouteResponse):
            self._answer(outcome)
        else:
            self.task = self.loop.create_task(self._finish(outcome, request))

    async def _finish(self, outcome: Any, request: RouteRequest) -> None:
        try:
            response = Router.finish(await outcome, request)
        except Exception as exc:  # noqa: BLE001
            response = Router.internal_error(exc)
        self.task = None
        self._answer(response)

    def _cut_short(self, timed_out: bool) -> None:
        """The request ended (EOF or the deadline) before it was whole."""
        if self.state == _SKIP_BODY:
            self._answer(self.refusal)
        elif self.state == _BODY:
            self._answer(error_response(
                400, "request body shorter than Content-Length"
            ))
        elif self.state != _ANSWERING:
            self._answer(error_response(400, (
                "timed out reading the request head" if timed_out
                else "connection closed before the end of the request head"
            )))

    def _answer(self, response: RouteResponse) -> None:
        self.state = _ANSWERING
        self.deadline.cancel()
        if self.lost:  # the client left while its answer was computed
            self.done.set_result(None)
        else:
            self.transport.write(_response_bytes(response))
            self.transport.close()

    def eof_received(self) -> bool:
        self._cut_short(False)
        return True  # half-closed: the answer is still written

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.lost = True
        self.deadline.cancel()
        if self.task is None:
            self.done.set_result(None)


Source = Union[MetricsRegistry, Callable[[], str]]

DebugProvider = Callable[[], Any]


class MetricsServer:
    """``/metrics``, ``/healthz`` and ``/debug/*`` over the one transport
    (module docstring).

    ::

        with MetricsServer(session.planner.metrics,
                           debug=session.debug_providers()) as server:
            ... curl http://127.0.0.1:<server.port>/metrics ...
    """

    #: Seconds a shutdown waits for open connections to be answered.
    drain_timeout = 30.0

    def __init__(
        self,
        sources: Union[Source, Sequence[Source]],
        host: str = "127.0.0.1",
        port: int = 0,
        namespace: str = "repro",
        debug: Optional[Dict[str, DebugProvider]] = None,
        profiler=None,
    ):
        if isinstance(sources, MetricsRegistry) or callable(sources):
            sources = [sources]
        self.sources: List[Source] = list(sources)
        self.namespace = namespace
        self.host = host
        #: ``name → zero-arg callable`` behind ``/debug/<name>``.
        self.debug: Dict[str, DebugProvider] = dict(debug) if debug else {}
        #: The :class:`~repro.telemetry.profiler.SamplingProfiler` behind
        #: ``/debug/profile`` — injectable; created lazily on the first
        #: ``?action=start`` otherwise.
        self.profiler = profiler
        self._profile_lock = threading.Lock()
        self._owns_profiler = False
        self._requested_port = port
        self.router = self.build_router()
        self.requests_served = 0
        self._started_at = 0.0
        self._draining = False
        #: The ``done`` future of every open connection (``_Exchange``).
        self._connections: set = set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    def add_debug(self, name: str, provider: DebugProvider) -> "MetricsServer":
        """Register (or replace) the ``/debug/<name>`` provider."""
        self.debug[name] = provider
        return self

    # ------------------------------------------------------------------
    # Observability surfaces
    # ------------------------------------------------------------------
    def exposition(self) -> str:
        """The concatenated Prometheus text for every source."""
        chunks = []
        for source in self.sources:
            if isinstance(source, MetricsRegistry):
                chunks.append(source.to_prometheus(namespace=self.namespace))
            else:
                chunks.append(source())
        return "".join(chunk for chunk in chunks if chunk)

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` payload."""
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": (
                time.time() - self._started_at if self._started_at else 0.0
            ),
            "requests_served": self.requests_served,
            "sources": len(self.sources),
            "debug_routes": sorted(self.debug),
        }

    def debug_index(self) -> dict:
        """The ``/debug`` payload: the routes this server exposes."""
        routes = sorted(
            {"/debug/%s" % name for name in self.debug} | {"/debug/profile"}
        )
        return {
            "routes": routes,
            "hint": "append ?format=html for a browser view",
        }

    def profile_action(self, action: str, hz: Optional[int] = None) -> dict:
        """Drive the live profiler: ``start`` / ``stop`` / ``snapshot``.

        Thread-safe and idempotent — concurrent start/stop requests race
        only for the lock, never double-start a sampler thread or leave
        hooks behind.  ``start`` lazily creates a profiler (sampling the
        first registry source for GC gauges) and registers it as the
        module-level current one, so sessions in this process attach
        per-query samples and obslog slow records pick the digest up.
        """
        from ..telemetry.profiler import DEFAULT_HZ, SamplingProfiler

        with self._profile_lock:
            profiler = self.profiler
            if action == "start":
                started = False
                if profiler is None:
                    registry = next(
                        (s for s in self.sources
                         if isinstance(s, MetricsRegistry)), None,
                    )
                    profiler = SamplingProfiler(
                        hz=hz or DEFAULT_HZ, registry=registry,
                    )
                    self.profiler = profiler
                    self._owns_profiler = True
                if not profiler.running:
                    if hz:
                        profiler.hz = max(1, min(int(hz), 1000))
                    profiler.start()
                    started = True
                return {
                    "running": True,
                    "started": started,
                    "hz": profiler.hz,
                    "samples": profiler.sample_count,
                }
            if action == "stop":
                stopped = False
                if profiler is not None and profiler.running:
                    profiler.stop()
                    stopped = True
                return {
                    "running": False,
                    "stopped": stopped,
                    "samples": (
                        profiler.sample_count if profiler is not None else 0
                    ),
                }
            if action == "snapshot":
                if profiler is None:
                    return {"running": False, "samples": 0,
                            "hint": "?action=start to begin sampling"}
                return profiler.summary()
            raise ValueError(
                "unknown profile action %r "
                "(expected start, stop or snapshot)" % (action,)
            )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def build_router(self) -> Router:
        """The route table :attr:`router` is built from, once, at
        construction; a subclass extends it through ``super()``."""
        router = Router()
        router.add("GET", "/metrics", self._route_metrics)
        router.add("GET", "/healthz", self._route_healthz)
        router.add("GET", "/debug", self._route_debug_index)
        router.add("GET", "/debug/", self._route_debug_index)
        router.add("GET", "/debug/profile", self._route_profile)
        router.add_prefix("GET", "/debug/", self._route_debug)
        return router

    def _route_metrics(self, request: RouteRequest) -> RouteResponse:
        return RouteResponse(
            200, PROMETHEUS_CONTENT_TYPE, self.exposition().encode("utf-8")
        )

    def _route_healthz(self, request: RouteRequest) -> RouteResponse:
        return json_response(200, self.health(), request, title="/healthz")

    def _route_debug_index(self, request: RouteRequest) -> RouteResponse:
        return json_response(200, self.debug_index(), request, title="/debug")

    def _route_profile(self, request: RouteRequest) -> RouteResponse:
        hz_value = request.param("hz")
        try:
            hz = int(hz_value) if hz_value else None
        except ValueError:
            return error_response(400, "hz must be an integer")
        action = request.param("action", "snapshot")
        fmt = request.param("format", "")
        if action == "snapshot" and fmt in ("speedscope", "folded"):
            profiler = self.profiler
            if profiler is None:
                return error_response(404, "no profiler: ?action=start first")
            if fmt == "speedscope":
                body = json.dumps(
                    profiler.speedscope(), default=repr
                ).encode("utf-8")
                return RouteResponse(200, JSON_CONTENT_TYPE, body)
            body = (profiler.folded_text(by="phase") + "\n").encode("utf-8")
            return RouteResponse(200, "text/plain; charset=utf-8", body)
        try:
            payload = self.profile_action(action, hz=hz)
        except ValueError as exc:
            return error_response(400, str(exc))
        return json_response(200, payload, request, title="/debug/profile")

    def _route_debug(self, request: RouteRequest) -> RouteResponse:
        name = request.rest
        provider = self.debug.get(name)
        if provider is None:
            return error_response(
                404,
                "unknown debug route %r" % name,
                routes=self.debug_index()["routes"],
            )
        payload = provider()  # Router.dispatch maps exceptions to the 500 shape
        return json_response(200, payload, request, title="/debug/%s" % name)

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

    async def start_async(self) -> "MetricsServer":
        """Bind and start accepting on the current event loop."""
        if self._server is None:
            loop = self._loop = asyncio.get_running_loop()
            self._server = await loop.create_server(
                lambda: _Exchange(self, loop), self.host, self._requested_port
            )
            self._started_at = time.time()
            self._draining = False
        return self

    async def shutdown_async(self, drain: bool = True) -> None:
        """Stop accepting, wait up to :attr:`drain_timeout` for the open
        connections to be answered, stop the profiler this server
        started."""
        if self._server is None:
            return
        self._draining = True
        server, self._server = self._server, None
        server.close()
        if drain and self._connections:
            await asyncio.wait(set(self._connections), timeout=self.drain_timeout)
        with self._profile_lock:
            if self._owns_profiler and self.profiler is not None:
                self.profiler.stop()

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
    def start(self) -> "MetricsServer":
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

        self._thread = threading.Thread(target=_run, name="repro-http", daemon=True)
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

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    def __repr__(self) -> str:
        state = "serving on %s" % self.url if self._server else "stopped"
        return "%s(%s, %d sources)" % (type(self).__name__, state, len(self.sources))


class ServiceServer(MetricsServer):
    """The multi-tenant query daemon (module docstring)."""

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
        # Last: the base builds the route table, which needs the above.
        super().__init__(
            [self.metrics, self._service_exposition], host=host, port=port,
            debug=self._debug_providers(),
        )

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

        return {"queries": queries, "plans": plans}

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
        """The ``/healthz`` payload: the base fields plus the service and
        runtime blocks."""
        payload = super().health()
        payload["service"] = {
            "tenants": self.tenants.names(),
            "admission": self.admission.snapshot(),
            "draining": self._draining,
            "backend": type(self.database).__name__,
            "data_version": self.database.data_version,
            "facts": len(self.database),
        }
        # Answer builds pause the cyclic collector: off while no query
        # runs means a pause leaked.
        payload["runtime"] = {"gc_enabled": gc.isenabled()}
        return payload

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def build_router(self) -> Router:
        router = super().build_router()
        router.add("GET", "/tenants", self._route_tenants)
        for op in ("query", "ask", "explain"):
            router.add("POST", "/" + op, functools.partial(self._serve_op, op))
        return router

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

    def _serve_op(self, op: str, request: RouteRequest) -> Any:
        """The response, when the loop can give it at once (an error, or
        a hit admitted at once whose serialised answers are live), else
        the one coroutine that carries on from where this stopped."""
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
        slot = self.admission.try_admit(tenant)
        if slot is None:
            return self._admit(tenant, op, parsed, start)
        return self._serve_admitted(tenant, op, parsed, start, slot)

    async def _admit(
        self, tenant: TenantConfig, op: str, parsed: QueryRequest, start: float
    ) -> RouteResponse:
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
        outcome = self._serve_admitted(tenant, op, parsed, start, slot)
        return outcome if isinstance(outcome, RouteResponse) else await outcome

    def _serve_admitted(
        self, tenant: TenantConfig, op: str, parsed: QueryRequest,
        start: float, slot: AdmissionSlot,
    ) -> Any:
        """A ``query``/``query_maximal`` whose answers the tenant's caches
        hold, already serialised, is answered here, on the loop; anything
        else returns the coroutine that runs it on the executor, carrying
        the hit read here so that it is counted once."""
        result = None
        if parsed.op in _ANSWER_OPS:
            try:
                result = self.sessions[tenant.name].cached(parsed.op, parsed.query)
                answers_json = (
                    None if result is None else self._answers.peek(result.answers)
                )
            except ReproError as exc:
                slot.release()
                return self._finish_op(tenant, op, start, _failure(tenant, exc))
            if answers_json is not None:
                slot.release()
                return self._finish_op(tenant, op, start, RouteResponse(
                    200, JSON_CONTENT_TYPE, result_body(
                        parsed.op, tenant.name, result,
                        time.perf_counter() - start, False, answers_json,
                    ),
                ))
        return self._execute(tenant, op, parsed, start, slot, result)

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
        self, tenant: TenantConfig, op: str, parsed: QueryRequest,
        start: float, slot: AdmissionSlot, hit: Optional[Result],
    ) -> RouteResponse:
        """The rest of an admitted request, on the executor; releases
        ``slot`` once answered."""
        session = self.sessions[tenant.name]
        loop = asyncio.get_running_loop()
        try:
            if parsed.op in _ANSWER_OPS:
                if hit is None:
                    result, answers_json, coalesced = await self._fly(
                        tenant, parsed.op, parsed.query
                    )
                else:
                    # Cached by an in-process query, never served:
                    # encoding is the executor's job.
                    result, coalesced = hit, False
                    answers_json = await loop.run_in_executor(
                        self._executor, self._answers.fragment, hit.answers
                    )
                response = RouteResponse(200, JSON_CONTENT_TYPE, result_body(
                    parsed.op, tenant.name, result,
                    time.perf_counter() - start, coalesced, answers_json,
                ))
            elif parsed.op == "ask":
                decision = await loop.run_in_executor(
                    self._executor, session.ask, parsed.query, parsed.candidate
                )
                response = json_response(200, encode_ask(
                    tenant.name, decision, time.perf_counter() - start
                ))
            else:  # explain
                profile = await loop.run_in_executor(
                    self._executor, session.explain, parsed.query
                )
                response = json_response(200, encode_explain(tenant.name, profile))
        except ReproError as exc:
            response = _failure(tenant, exc)
        finally:
            slot.release()
        return self._finish_op(tenant, op, start, response)

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
    # Lifecycle: the base's, plus the obslog events and the release of
    # the sessions and the executor
    # ------------------------------------------------------------------
    async def start_async(self) -> "ServiceServer":
        if self._server is None:
            await super().start_async()
            if self.obslog is not None:
                self.obslog.emit(
                    "service.started", host=self.host, port=self.port,
                    tenants=self.tenants.names(),
                )
        return self

    async def shutdown_async(self, drain: bool = True) -> None:
        if self._server is None:
            return
        if self.obslog is not None:
            self.obslog.emit(
                "service.draining",
                in_flight=self.admission.in_flight_global,
                connections=len(self._connections),
            )
        await super().shutdown_async(drain)
        if self.obslog is not None:
            self.obslog.emit(
                "service.stopped", dropped_connections=len(self._connections)
            )
        for session in self.sessions.values():
            session.close()
        self._root.close()
        self._executor.shutdown(wait=False)
