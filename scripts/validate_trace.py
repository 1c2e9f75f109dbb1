#!/usr/bin/env python
"""Validate observability artifacts produced by the repro telemetry.

Usage::

    python scripts/validate_trace.py trace.json
    python scripts/validate_trace.py --format obslog query_log.jsonl
    python scripts/validate_trace.py profile.speedscope.json
    python scripts/validate_trace.py profile.folded

Four formats:

* ``chrome`` — a Chrome trace-event JSON file from the tracer.  Known
  span attributes (``kernel``, ``engine``, ``trace_id``, ``node_stats``,
  … — see ``repro.telemetry.export.SPAN_ATTR_TYPES``) are
  type-checked, and so is each ``node_stats`` row's ``engines``
  (``{engine name: count}``); attributes the validator does not know about are
  accepted, so instrumentation can grow without breaking old validators;
* ``obslog`` — a JSON-lines structured query log from
  :class:`repro.telemetry.obslog.QueryLog`;
* ``speedscope`` — a sampled profile from
  :mod:`repro.telemetry.profiler` (``repro run --profile-hz HZ
  --profile-out FILE.json``);
* ``folded`` — Brendan-Gregg folded stacks from ``repro run --profile-hz
  HZ --profile-out FILE.folded`` (flamegraph.pl input).

``--format auto`` (the default) picks ``obslog`` for ``.jsonl`` files,
``folded`` for ``.folded``/``.collapsed`` files, ``speedscope`` when the
filename contains ``speedscope``, and ``chrome`` otherwise.  Exits
non-zero (listing the problems) when the file is missing, malformed, or
empty — the CI trace-smoke and profile-smoke jobs use this to fail fast
when the instrumentation regresses.
"""

import argparse
import json
import os
import sys

# Runnable straight from a checkout, before any `pip install -e .`.
_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.telemetry.export import SPAN_ATTR_TYPES, validate_chrome_trace  # noqa: E402
from repro.telemetry.obslog import validate_obslog  # noqa: E402
from repro.telemetry.profiler import validate_folded, validate_speedscope  # noqa: E402


def validate_chrome_file(path):
    """(problems, summary) for a Chrome trace-event JSON file."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        return ["cannot read: %s" % exc], None
    except ValueError as exc:
        return ["not valid JSON: %s" % exc], None
    problems = validate_chrome_trace(payload)
    if problems:
        return problems, None
    events = payload["traceEvents"] if isinstance(payload, dict) else payload
    typed = sum(
        1
        for event in events
        if isinstance(event, dict)
        and isinstance(event.get("args"), dict)
        and any(attr in SPAN_ATTR_TYPES for attr in event["args"])
    )
    return [], "%d trace events, %d with typed attributes" % (len(events), typed)


def validate_obslog_file(path):
    """(problems, summary) for a JSON-lines query log."""
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as exc:
        return ["cannot read: %s" % exc], None
    problems = validate_obslog(lines)
    if problems:
        return problems, None
    count = sum(1 for line in lines if line.strip())
    return [], "%d query events" % count


def validate_speedscope_file(path):
    """(problems, summary) for a speedscope-JSON sampled profile."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        return ["cannot read: %s" % exc], None
    except ValueError as exc:
        return ["not valid JSON: %s" % exc], None
    problems = validate_speedscope(payload)
    if problems:
        return problems, None
    profiles = payload.get("profiles", [])
    samples = sum(len(profile.get("samples", [])) for profile in profiles)
    frames = len(payload.get("shared", {}).get("frames", []))
    extra = (
        ", trace_id %s" % payload["trace_id"]
        if payload.get("trace_id") else ""
    )
    return [], "%d profile(s), %d sample(s) over %d frame(s)%s" % (
        len(profiles), samples, frames, extra,
    )


def validate_folded_file(path):
    """(problems, summary) for a folded-stacks text file."""
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        return ["cannot read: %s" % exc], None
    problems = validate_folded(text)
    if problems:
        return problems, None
    lines = [line for line in text.splitlines() if line.strip()]
    total = sum(int(line.rsplit(None, 1)[1]) for line in lines)
    return [], "%d folded stack(s), %d sample(s)" % (len(lines), total)


_VALIDATORS = {
    "chrome": validate_chrome_file,
    "obslog": validate_obslog_file,
    "speedscope": validate_speedscope_file,
    "folded": validate_folded_file,
}


def detect_format(path):
    """The format implied by ``path``'s name (the ``--format auto`` rule)."""
    name = os.path.basename(path).lower()
    if name.endswith(".jsonl"):
        return "obslog"
    if name.endswith((".folded", ".collapsed")):
        return "folded"
    if "speedscope" in name:
        return "speedscope"
    return "chrome"


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="validate_trace.py",
        description="Validate a Chrome trace, JSON-lines query log, "
                    "speedscope profile, or folded stacks.",
    )
    parser.add_argument("path", help="file to validate")
    parser.add_argument(
        "--format", choices=("auto",) + tuple(sorted(_VALIDATORS)),
        default="auto",
        help="file format (auto: .jsonl → obslog, .folded/.collapsed → "
             "folded, *speedscope* → speedscope, else chrome)",
    )
    args = parser.parse_args(argv)

    fmt = args.format
    if fmt == "auto":
        fmt = detect_format(args.path)
    problems, summary = _VALIDATORS[fmt](args.path)
    if problems:
        for problem in problems:
            print("error: %s: %s" % (args.path, problem), file=sys.stderr)
        return 1
    print("%s: OK (%s)" % (args.path, summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
