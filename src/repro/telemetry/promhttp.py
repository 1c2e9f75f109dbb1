"""A stdlib-only ``/metrics`` + ``/healthz`` + ``/debug/*`` HTTP endpoint.

:class:`MetricsServer` wraps :class:`http.server.ThreadingHTTPServer` and
serves the Prometheus text exposition of one or more
:class:`~repro.telemetry.metrics.MetricsRegistry` objects (or arbitrary
callables returning exposition text) —

* ``GET /metrics`` — concatenated ``MetricsRegistry.to_prometheus()``
  output, ``Content-Type: text/plain; version=0.0.4``;
* ``GET /healthz`` — a JSON liveness document (status, uptime, request
  count);
* ``GET /debug`` and ``GET /debug/<name>`` — live JSON snapshots from
  the registered debug providers (``debug=`` / :meth:`~MetricsServer.add_debug`);
  :meth:`repro.engine.Session.debug_providers` wires ``queries`` (in
  flight + recent, with trace ids) and ``plans`` (the EXPLAIN cache with
  each shape's routes).
  Append ``?format=html`` for a self-contained HTML view;
* ``GET /debug/profile`` — the live sampling profiler
  (:mod:`repro.telemetry.profiler`): ``?action=start[&hz=N]`` /
  ``?action=stop`` control it (idempotent, safe under concurrent
  requests), the default snapshot reports sample counts and per-phase
  breakdown, and ``?format=speedscope`` / ``?format=folded`` download
  the flamegraph exports;
* anything else — 404.

Providers are invoked per request under the threading server, so the
payloads are point-in-time snapshots that stay live while queries are in
flight.  The server binds on construction-time host/port (port ``0``
picks a free one, exposed via :attr:`MetricsServer.port` /
:attr:`MetricsServer.url`) and serves from a daemon thread, so it can
sit next to a long-lived :class:`~repro.engine.Session` without blocking
it.  ``repro serve-metrics`` is the CLI wrapper.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from .metrics import MetricsRegistry
from .routes import (
    PROMETHEUS_CONTENT_TYPE,
    RouteRequest,
    RouteResponse,
    Router,
    error_response,
    json_response,
)

Source = Union[MetricsRegistry, Callable[[], str]]

DebugProvider = Callable[[], Any]


class MetricsServer:
    """Serve Prometheus metrics and a health check from a daemon thread.

    ::

        server = MetricsServer([session.planner.metrics])
        server.start()
        ... curl http://127.0.0.1:<server.port>/metrics ...
        server.stop()

    Also usable as a context manager (starts on enter, stops on exit).
    """

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
        self._httpd: ThreadingHTTPServer = None  # type: ignore[assignment]
        self._thread: threading.Thread = None  # type: ignore[assignment]
        self._started_at = 0.0
        self.requests_served = 0

    def add_debug(self, name: str, provider: DebugProvider) -> "MetricsServer":
        """Register (or replace) the ``/debug/<name>`` provider."""
        self.debug[name] = provider
        return self

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

    def health(self) -> dict:
        return {
            "status": "ok",
            "uptime_seconds": time.time() - self._started_at,
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

    # ------------------------------------------------------------------
    # /debug/profile (repro.telemetry.profiler)
    # ------------------------------------------------------------------
    def profile_action(self, action: str, hz: Optional[int] = None) -> dict:
        """Drive the live profiler: ``start`` / ``stop`` / ``snapshot``.

        Thread-safe and idempotent — concurrent start/stop requests race
        only for the lock, never double-start a sampler thread or leave
        hooks behind.  ``start`` lazily creates a profiler (sampling the
        first registry source for GC gauges) and registers it as the
        module-level current one, so sessions in this process attach
        per-query samples and obslog slow records pick the digest up.
        """
        from .profiler import DEFAULT_HZ, SamplingProfiler

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
    # Route table (shared with the asyncio query service)
    # ------------------------------------------------------------------
    def build_router(self) -> Router:
        """The observability route table this server dispatches through.

        One :class:`~repro.telemetry.routes.Router` carrying ``/metrics``,
        ``/healthz``, ``/debug`` and ``/debug/*`` — the asyncio query
        service (:mod:`repro.service`) builds on the *same* table, so
        route matching, ``/healthz`` semantics, and error bodies are
        identical across both servers by construction.
        """
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
                return RouteResponse(200, "application/json", body)
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
    @property
    def port(self) -> int:
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        return "http://%s:%d" % (self.host, self.port)

    def start(self) -> "MetricsServer":
        if self._httpd is not None:
            return self
        server = self
        router = self.build_router()

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler API
                server.requests_served += 1
                path, _, query = self.path.partition("?")
                request = RouteRequest("GET", path, query)
                response = router.dispatch(request)
                self.send_response(response.status)
                self.send_header("Content-Type", response.content_type)
                self.send_header("Content-Length", str(len(response.body)))
                for name, value in response.headers.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(response.body)

            def log_message(self, fmt, *args):  # silence per-request stderr
                pass

        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), Handler
        )
        self._started_at = time.time()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-metrics", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)
        self._httpd = None  # type: ignore[assignment]
        self._thread = None  # type: ignore[assignment]
        with self._profile_lock:
            if self._owns_profiler and self.profiler is not None:
                self.profiler.stop()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    def __repr__(self) -> str:
        state = "serving on %s" % self.url if self._httpd else "stopped"
        return "MetricsServer(%s, %d sources)" % (state, len(self.sources))
