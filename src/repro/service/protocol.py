"""Wire protocol of the query service: request parsing, response shapes.

Requests are JSON over POST (``Content-Type: application/json``); every
response — success or error — is a JSON object.  Error bodies share the
:func:`repro.telemetry.routes.error_response` shape (``{"error": ...}``),
so a service client and a metrics-server client read failures the same
way.

Request bodies:

* ``POST /query`` — ``{"query": "<SPARQL or algebraic text>"}``; optional
  ``"maximal": true`` evaluates under the maximal-mapping semantics
  ``p_m(D)``;
* ``POST /ask`` — ``{"query": ..., "candidate": {"?x": "value", ...}}`` —
  is the candidate mapping an answer?
* ``POST /explain`` — ``{"query": ...}`` — the static EXPLAIN profile,
  no evaluation.

Success bodies (see :func:`encode_result` / :func:`encode_ask` /
:func:`encode_explain`) always carry ``tenant`` and ``op``; evaluation
responses add ``rows``, the sorted ``answers`` (each a
``{"?var": value}`` object, missing optionals absent), wall time, and
the ``trace_id`` that correlates the response with the obslog lines,
spans, and profiler samples of its execution.

:func:`encode_result` is the *definition* of an evaluation body.  The
server sends the same bytes without building that dict per request:
:class:`AnswerEncoder` serialises the ``answers`` array once per answer
set and :func:`result_body` splices it between the small per-request
fields.
"""

from __future__ import annotations

import json
import weakref
from typing import Any, Dict, List, Optional, Tuple

from ..core.mappings import Mapping
from ..exceptions import ReproError
from ..serialize import SerializationError, mapping_to_json
from ..telemetry.routes import encode_json

__all__ = [
    "MAX_BODY_BYTES",
    "PROTOCOL_VERSION",
    "AnswerEncoder",
    "ProtocolError",
    "QueryRequest",
    "encode_answers",
    "encode_ask",
    "encode_explain",
    "encode_result",
    "result_body",
]

#: Stamped on every success response.
PROTOCOL_VERSION = 1

#: Largest request body the service accepts (413 beyond this).
MAX_BODY_BYTES = 1 << 20

#: Operations a request can name.
OPS = ("query", "query_maximal", "ask", "explain")


class ProtocolError(ReproError):
    """A malformed request; carries the HTTP status to answer with."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


class QueryRequest:
    """One validated service request: operation, query text, candidate."""

    __slots__ = ("op", "query", "candidate")

    def __init__(self, op: str, query: str, candidate: Optional[Mapping] = None):
        self.op = op
        self.query = query
        self.candidate = candidate

    @classmethod
    def from_body(cls, op: str, body: bytes) -> "QueryRequest":
        """Parse and validate a request body for the ``op`` route.

        Raises :class:`ProtocolError` (mapped to a 400 response) on
        anything malformed: non-JSON bodies, non-object payloads, a
        missing/empty ``query``, a missing ``ask`` candidate, or unknown
        payload keys (catching client typos like ``"querry"``).
        """
        if op not in OPS:
            raise ProtocolError("unknown operation %r" % (op,))
        if not body:
            raise ProtocolError("empty request body: expected a JSON object")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ProtocolError("request body is not valid JSON: %s" % exc)
        if not isinstance(payload, dict):
            raise ProtocolError("request body must be a JSON object")
        allowed = {"query"}
        if op == "query":
            allowed.add("maximal")
        if op == "ask":
            allowed.add("candidate")
        unknown = sorted(set(payload) - allowed)
        if unknown:
            raise ProtocolError(
                "unknown request field(s) %s (allowed: %s)"
                % (", ".join(map(repr, unknown)), ", ".join(sorted(allowed)))
            )
        query = payload.get("query")
        if not isinstance(query, str) or not query.strip():
            raise ProtocolError("'query' must be a non-empty string")
        if op == "query" and payload.get("maximal"):
            if payload["maximal"] is not True:
                raise ProtocolError("'maximal' must be a boolean")
            op = "query_maximal"
        candidate: Optional[Mapping] = None
        if op == "ask":
            raw = payload.get("candidate")
            if not isinstance(raw, dict):
                raise ProtocolError(
                    "'candidate' must be a JSON object of "
                    '{"?var": value} bindings'
                )
            try:
                candidate = Mapping(raw)
            except (TypeError, ValueError) as exc:
                raise ProtocolError("invalid candidate mapping: %s" % exc)
        return cls(op, query, candidate)

    def __repr__(self) -> str:
        return "QueryRequest(%s, %r)" % (self.op, self.query[:40])


def encode_answers(answers) -> List[Dict[str, Any]]:
    """Answer mappings as sorted ``{"?var": value}`` objects.

    Values that are not JSON-native (arbitrary constants are allowed in
    the algebra) fall back to their ``repr`` so a response is always
    serialisable.
    """
    encoded = []
    for mapping in sorted(answers, key=repr):
        try:
            encoded.append(mapping_to_json(mapping))
        except SerializationError:
            encoded.append(
                {
                    "?%s" % var.name: repr(val.value)
                    for var, val in sorted(
                        mapping.items(), key=lambda kv: kv[0].name
                    )
                }
            )
    return encoded


def _base(op: str, tenant: str) -> Dict[str, Any]:
    return {"protocol": PROTOCOL_VERSION, "op": op, "tenant": tenant}


def _result_fields(
    op: str, tenant: str, result, wall_seconds: float, coalesced: bool
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """An evaluation body's fields before and after ``answers``."""
    head = _base(op, tenant)
    head["rows"] = len(result.answers)
    tail: Dict[str, Any] = {"wall_ms": round(wall_seconds * 1000.0, 3)}
    resources = getattr(result, "resources", None)
    tail["trace_id"] = getattr(resources, "trace_id", None)
    if resources is not None:
        tail["resources"] = {
            "wall_seconds": resources.wall_seconds,
            "peak_intermediate_rows": resources.peak_intermediate_rows,
            "subqueries": resources.subqueries,
        }
    if coalesced:
        tail["coalesced"] = True
    return head, tail


def encode_result(
    op: str,
    tenant: str,
    result,
    wall_seconds: float,
    coalesced: bool = False,
) -> Dict[str, Any]:
    """The success body of a ``query`` / ``query_maximal`` evaluation."""
    body, tail = _result_fields(op, tenant, result, wall_seconds, coalesced)
    body["answers"] = encode_answers(result.answers)
    body.update(tail)
    return body


def result_body(
    op: str,
    tenant: str,
    result,
    wall_seconds: float,
    coalesced: bool,
    answers_json: bytes,
) -> bytes:
    """The bytes ``encode_json(encode_result(...))`` would produce, given
    ``answers_json`` — the already serialised ``answers`` array
    (:meth:`AnswerEncoder.fragment`) — so a response costs its few
    per-request fields however many rows it carries."""
    head, tail = _result_fields(op, tenant, result, wall_seconds, coalesced)
    return b"".join((
        encode_json(head)[:-1], b', "answers": ', answers_json, b", ",
        encode_json(tail)[1:],
    ))


class AnswerEncoder:
    """The serialised ``answers`` array of each live answer set, encoded
    once.

    Fragments are keyed by the *identity* of the answer ``frozenset`` and
    held through a weak reference to it: a
    :class:`~repro.storage.cache.ResultCache` entry and its encoding are
    dropped together — when the entry is evicted, replaced by a
    recomputed answer, or dropped by a write that can touch its query —
    and kept together: a write that carries an entry re-stamps it around
    the same ``frozenset``.  No bound or invalidation of its own
    — a set that nothing caches is encoded for its one response and
    forgotten with it.  Safe to call from any thread.
    """

    def __init__(self) -> None:
        self._fragments: Dict[int, Tuple[weakref.ref, bytes]] = {}

    def fragment(self, answers) -> bytes:
        """``encode_json(encode_answers(answers))``."""
        if not answers:
            return b"[]"  # frozenset() is one immortal object: nothing to tie to
        key = id(answers)
        entry = self._fragments.get(key)
        if entry is not None and entry[0]() is answers:
            return entry[1]
        data = encode_json(encode_answers(answers))
        # The callback runs while the set is being freed, so before its
        # id can name another object.
        forget = weakref.ref(answers, lambda _: self._fragments.pop(key, None))
        self._fragments[key] = (forget, data)
        return data

    def __len__(self) -> int:
        return len(self._fragments)


def encode_ask(
    tenant: str, decision: bool, wall_seconds: float
) -> Dict[str, Any]:
    """The success body of an ``ask`` decision."""
    body = _base("ask", tenant)
    body["answer"] = bool(decision)
    body["wall_ms"] = round(wall_seconds * 1000.0, 3)
    return body


def encode_explain(tenant: str, profile) -> Dict[str, Any]:
    """The success body of an ``explain`` request: the static profile."""
    body = _base("explain", tenant)
    body["fingerprint"] = profile.fingerprint[:16]
    body["eval_route"] = profile.eval_route()
    body["partial_eval_route"] = profile.partial_eval_route()
    body["table"] = profile.as_table()
    return body
