"""Trace exporters: structured dicts, Chrome trace-event JSON, text.

Three consumers of a recorded :class:`~repro.telemetry.tracer.Tracer`:

* :func:`trace_to_dict` — structured nested dicts (the ``--trace-out``
  payload is the Chrome format below, but the dict form is what
  programmatic consumers and ``analyze()`` join against);
* :func:`to_chrome_trace` — the ``chrome://tracing`` / Perfetto
  "trace event" format (complete events, ``ph: "X"``, microsecond
  timestamps; the tests rebuild the span forest from it), with
  :func:`validate_chrome_trace` used by the CI smoke job's schema check;
* :func:`render_trace` — a fixed-width text tree reusing
  :func:`repro.table.format_table`.

:func:`aggregate_spans` rolls the forest up into per-name totals — the
bench harness prints these as the per-stage time breakdown.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from ..table import format_seconds, format_table
from .tracer import Span, Tracer

#: Chrome trace-event keys every exported event carries.
_CHROME_REQUIRED_KEYS = ("name", "ph", "ts", "dur", "pid", "tid")

#: Known span attributes and the JSON types they must decode to.
#: :func:`validate_chrome_trace` type-checks these when present in an
#: event's ``args`` and accepts any attribute it does not know about —
#: instrumentation is allowed to grow without breaking old validators.
SPAN_ATTR_TYPES: Dict[str, tuple] = {
    "engine": (str,),
    "kernel": (str,),
    "kind": (str,),
    "op": (str,),
    "trace_id": (str,),
    "query": (str,),
    "atoms": (int,),
    "rows": (int,),
    "node_stats": (dict,),
}


# ---------------------------------------------------------------------------
# Structured dicts
# ---------------------------------------------------------------------------
def trace_to_dict(tracer: Tracer) -> Dict[str, Any]:
    """The whole trace as nested dicts (see :meth:`Span.to_dict`)."""
    return {"spans": [root.to_dict() for root in tracer.roots]}


# ---------------------------------------------------------------------------
# Chrome trace-event format
# ---------------------------------------------------------------------------
def to_chrome_trace(tracer: Tracer, pid: int = 0, tid: int = 0) -> List[Dict[str, Any]]:
    """Complete ("X") trace events, one per span, microsecond units."""
    events: List[Dict[str, Any]] = []

    def emit(span: Span) -> None:
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {k: _jsonable(v) for k, v in span.attrs.items()},
            }
        )
        for child in span.children:
            emit(child)

    for root in tracer.roots:
        emit(root)
    return events


def write_chrome_trace(tracer: Tracer, path: str) -> int:
    """Write the Chrome trace JSON to ``path``; returns the event count."""
    events = to_chrome_trace(tracer)
    with open(path, "w") as handle:
        json.dump(events, handle, indent=1)
    return len(events)


def validate_chrome_trace(payload: Any) -> List[str]:
    """Schema errors for a parsed Chrome trace (empty list = valid).

    Accepts the array form or the object form (``{"traceEvents": [...]}``);
    an empty trace is an error — the CI smoke job treats "no spans" as a
    broken instrumentation wiring, not a success.
    """
    errors: List[str] = []
    if isinstance(payload, dict):
        payload = payload.get("traceEvents")
    if not isinstance(payload, list):
        return ["top level must be a JSON array (or {'traceEvents': [...]})"]
    if not payload:
        return ["trace is empty: no events were recorded"]
    for i, event in enumerate(payload):
        if not isinstance(event, dict):
            errors.append("event %d: not an object" % i)
            continue
        for key in _CHROME_REQUIRED_KEYS:
            if key not in event:
                errors.append("event %d: missing key %r" % (i, key))
        if not isinstance(event.get("name"), str) or not event.get("name"):
            errors.append("event %d: 'name' must be a non-empty string" % i)
        if event.get("ph") not in ("X", "B", "E", "i", "M"):
            errors.append("event %d: unknown phase %r" % (i, event.get("ph")))
        for key in ("ts", "dur"):
            if key in event and not isinstance(event[key], (int, float)):
                errors.append("event %d: %r must be numeric" % (i, key))
        if isinstance(event.get("dur"), (int, float)) and event["dur"] < 0:
            errors.append("event %d: negative duration" % i)
        args = event.get("args")
        if isinstance(args, dict):
            for attr, value in args.items():
                expected = SPAN_ATTR_TYPES.get(attr)
                if expected is None:
                    continue  # unknown attributes are always accepted
                if not isinstance(value, expected) or (
                    isinstance(value, bool) and bool not in expected
                ):
                    errors.append(
                        "event %d: attr %r must be %s, got %s"
                        % (i, attr,
                           "/".join(t.__name__ for t in expected),
                           type(value).__name__)
                    )
            stats = args.get("node_stats")
            for node, row in stats.items() if isinstance(stats, dict) else ():
                engines = row.get("engines", {}) if isinstance(row, dict) else None
                if not isinstance(engines, dict) or not all(
                    isinstance(e, str) and type(n) is int for e, n in engines.items()
                ):
                    errors.append(
                        "event %d: node_stats[%s] engines must be {name: count}" % (i, node)
                    )
    return errors


# ---------------------------------------------------------------------------
# Aggregation + text rendering
# ---------------------------------------------------------------------------
def aggregate_spans(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Per-name rollup: ``{name: {"calls": n, "seconds": total}}``."""
    totals: Dict[str, Dict[str, float]] = {}
    for span in tracer.walk():
        entry = totals.setdefault(span.name, {"calls": 0, "seconds": 0.0})
        entry["calls"] += 1
        entry["seconds"] += span.duration
    return totals


def render_trace(tracer: Tracer, max_attr_chars: int = 48) -> str:
    """The span forest as an indented fixed-width table."""
    rows: List[Sequence[object]] = []
    total = sum(root.duration for root in tracer.roots) or 1.0

    def walk(span: Span, depth: int) -> None:
        attrs = ", ".join(
            "%s=%s" % (k, _short(v)) for k, v in sorted(span.attrs.items())
        )
        if len(attrs) > max_attr_chars:
            attrs = attrs[: max_attr_chars - 1] + "…"
        rows.append(
            [
                "  " * depth + span.name,
                format_seconds(span.duration),
                "%.1f%%" % (100.0 * span.duration / total),
                attrs,
            ]
        )
        for child in span.children:
            walk(child, depth + 1)

    for root in tracer.roots:
        walk(root, 0)
    return format_table(["span", "time", "% of trace", "attributes"], rows)


def render_stage_breakdown(tracer: Tracer, title: str = "per-stage time") -> str:
    """The aggregated per-stage table the benchmarks print."""
    totals = aggregate_spans(tracer)
    rows = [
        [name, "%d" % int(entry["calls"]), format_seconds(entry["seconds"])]
        for name, entry in sorted(
            totals.items(), key=lambda item: -item[1]["seconds"]
        )
    ]
    return format_table(["stage", "calls", "total time"], rows, title=title)


def _jsonable(value: Any) -> Any:
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return repr(value)


def _short(value: Any) -> str:
    text = str(value)
    return text if len(text) <= 20 else text[:19] + "…"
