"""Transport-agnostic HTTP route table of the one repro HTTP front.

:class:`~repro.service.MetricsServer` (``repro run --serve-debug``)
and its subclass, the query service
:class:`~repro.service.ServiceServer` (``repro serve``), dispatch every
request through one :class:`Router` built by
``MetricsServer.build_router``, on one socket edge:

* every error is ``{"error": "<message>", ...}`` JSON with the matching
  status code — a 404 additionally lists the routes the server *does*
  serve, a 405 (a path routed under another method) names the methods
  it takes, also in an ``Allow`` header;
* any JSON payload can be rendered as a self-contained auto-refreshing
  HTML page with ``?format=html``;
* handlers never kill the server: an exception inside one becomes a 500
  with ``{"error": "TypeName: message"}``.

A handler takes a :class:`RouteRequest` and returns a
:class:`RouteResponse` (or any JSON-serialisable object, which is wrapped
into a 200).  A handler may also return an awaitable (the query
service's routes do when they must wait), which the edge awaits on its
event loop.
"""

from __future__ import annotations

import html as _html
import json
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs

__all__ = [
    "RouteRequest",
    "RouteResponse",
    "Router",
    "encode_json",
    "error_response",
    "json_response",
    "render_html",
]

#: The Prometheus text exposition content type.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

JSON_CONTENT_TYPE = "application/json"
TEXT_CONTENT_TYPE = "text/plain; charset=utf-8"
HTML_CONTENT_TYPE = "text/html; charset=utf-8"


class RouteRequest:
    """One parsed HTTP request, transport details stripped away."""

    __slots__ = ("method", "path", "params", "headers", "body", "rest")

    def __init__(
        self,
        method: str,
        path: str,
        query: str = "",
        headers: Optional[Dict[str, str]] = None,
        body: bytes = b"",
    ):
        self.method = method.upper()
        self.path = path
        #: First value of each query-string parameter.
        self.params: Dict[str, str] = {
            key: values[0] for key, values in parse_qs(query).items()
        } if query else {}
        #: Header names lower-cased.
        self.headers: Dict[str, str] = {
            key.lower(): value for key, value in (headers or {}).items()
        }
        self.body = body
        #: For prefix routes: the path suffix after the matched prefix.
        self.rest = ""

    def param(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self.params.get(name, default)

    def header(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self.headers.get(name.lower(), default)

    def wants_html(self) -> bool:
        return self.params.get("format") == "html"

    def __repr__(self) -> str:
        return "RouteRequest(%s %s)" % (self.method, self.path)


class RouteResponse:
    """Status, content type, body bytes, and any extra headers."""

    __slots__ = ("status", "content_type", "body", "headers")

    def __init__(
        self,
        status: int,
        content_type: str,
        body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ):
        self.status = status
        self.content_type = content_type
        self.body = body
        self.headers: Dict[str, str] = dict(headers) if headers else {}

    def __repr__(self) -> str:
        return "RouteResponse(%d, %r, %d bytes)" % (
            self.status, self.content_type, len(self.body),
        )


def encode_json(payload: Any) -> bytes:
    """The bytes of a JSON body as every repro server writes it (values
    that are not JSON-native fall back to their ``repr``)."""
    return json.dumps(payload, default=repr).encode("utf-8")


def json_response(
    status: int,
    payload: Any,
    request: Optional[RouteRequest] = None,
    title: str = "debug",
    headers: Optional[Dict[str, str]] = None,
) -> RouteResponse:
    """A JSON (or, with ``?format=html``, HTML-rendered) response."""
    if request is not None and request.wants_html():
        body = render_html(title, payload).encode("utf-8")
        return RouteResponse(status, HTML_CONTENT_TYPE, body, headers)
    return RouteResponse(status, JSON_CONTENT_TYPE, encode_json(payload), headers)


def error_response(
    status: int,
    message: str,
    headers: Optional[Dict[str, str]] = None,
    **extra: Any,
) -> RouteResponse:
    """The shared error shape: ``{"error": message, **extra}`` JSON.

    Every 400/404/429/500 body served by any repro HTTP endpoint goes
    through here, so clients can always read ``body["error"]``.
    """
    payload = {"error": message}
    payload.update(extra)
    return RouteResponse(status, JSON_CONTENT_TYPE, encode_json(payload), headers)


Handler = Callable[[RouteRequest], Any]


class Router:
    """Exact- and prefix-matched routes with shared error semantics.

    ::

        router = Router()
        router.add("GET", "/healthz", lambda req: {"status": "ok"})
        router.add_prefix("GET", "/debug/", debug_handler)  # req.rest = name
        response = router.dispatch(RouteRequest("GET", "/healthz"))

    ``dispatch`` returns a :class:`RouteResponse` — or, when the matched
    handler returned an awaitable, that awaitable (the edge awaits
    it; if the awaited value is not already a ``RouteResponse`` it is
    wrapped via :meth:`finish`).  Unknown paths get the shared 404
    listing every registered route, a known path under another method
    the 405; handler exceptions become the shared 500 shape.
    """

    def __init__(self) -> None:
        self._exact: Dict[Tuple[str, str], Handler] = {}
        self._prefixes: List[Tuple[str, str, Handler]] = []

    def add(self, method: str, path: str, handler: Handler) -> "Router":
        """Register (or replace) the handler of ``method path``."""
        self._exact[(method.upper(), path)] = handler
        return self

    def add_prefix(self, method: str, prefix: str, handler: Handler) -> "Router":
        """Register a prefix route; the handler sees the suffix as
        ``request.rest``.  Longest prefix wins."""
        self._prefixes.append((method.upper(), prefix, handler))
        self._prefixes.sort(key=lambda entry: -len(entry[1]))
        return self

    def routes(self) -> List[str]:
        """Every registered route, for the 404 listing (prefix routes
        shown with a trailing ``*``)."""
        exact = {"%s %s" % (method, path) for method, path in self._exact}
        prefixes = {
            "%s %s*" % (method, prefix) for method, prefix, _ in self._prefixes
        }
        return sorted(exact | prefixes)

    def resolve(self, request: RouteRequest) -> Optional[Handler]:
        """The handler for ``request`` (setting ``request.rest`` for
        prefix matches), or ``None``."""
        handler = self._exact.get((request.method, request.path))
        if handler is not None:
            request.rest = ""
            return handler
        for method, prefix, handler in self._prefixes:
            if request.method == method and request.path.startswith(prefix):
                request.rest = request.path[len(prefix):]
                return handler
        return None

    def dispatch(self, request: RouteRequest) -> Any:
        """Resolve and invoke; shared 404/405/500 semantics.

        A handler's value comes back as a finished :class:`RouteResponse`
        — unless it is awaitable, which is returned as-is: the caller must
        await it and pass the value through :meth:`finish` (mapping an
        exception raised during the await through
        :meth:`internal_error`).
        """
        handler = self.resolve(request)
        if handler is None:
            path = request.path
            allowed = sorted(
                {method for method, routed in self._exact if routed == path}
                | {method for method, prefix, _ in self._prefixes
                   if path.startswith(prefix)}
            )
            if allowed:
                return error_response(
                    405,
                    "%s %s is not allowed" % (request.method, request.path),
                    headers={"Allow": ", ".join(allowed)},
                    allowed=allowed,
                )
            return error_response(
                404,
                "no route for %s %s" % (request.method, request.path),
                routes=self.routes(),
            )
        try:
            result = handler(request)
        except Exception as exc:  # surface, never kill the server
            return self.internal_error(exc)
        if hasattr(result, "__await__"):
            return result
        return self.finish(result, request)

    @staticmethod
    def finish(result: Any, request: RouteRequest) -> RouteResponse:
        """Wrap a handler's return value: ``RouteResponse`` passes
        through, anything else becomes a 200 JSON payload."""
        if isinstance(result, RouteResponse):
            return result
        return json_response(200, result, request, title=request.path)

    @staticmethod
    def internal_error(exc: BaseException) -> RouteResponse:
        """The shared 500 shape for a handler exception."""
        return error_response(500, "%s: %s" % (type(exc).__name__, exc))


def render_html(title: str, payload: Any) -> str:
    """A self-contained HTML view of a debug payload: the pretty-printed
    JSON in a ``<pre>``, no external assets, auto-refresh every 5 s."""
    pretty = json.dumps(payload, indent=2, sort_keys=True, default=repr)
    return (
        "<!doctype html><html><head><meta charset='utf-8'>"
        "<meta http-equiv='refresh' content='5'>"
        "<title>%(title)s</title>"
        "<style>body{font-family:monospace;margin:1.5em;background:#fafafa}"
        "pre{background:#fff;border:1px solid #ddd;padding:1em;"
        "overflow-x:auto}</style></head>"
        "<body><h1>%(title)s</h1><pre>%(body)s</pre></body></html>"
        % {
            "title": _html.escape(title),
            "body": _html.escape(pretty),
        }
    )
