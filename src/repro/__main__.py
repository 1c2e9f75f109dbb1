"""Command-line front door: profile and run {AND, OPT} queries.

Usage::

    python -m repro profile  "SELECT ?x WHERE { ?x knows ?y OPTIONAL { ?x age ?a } }"
    python -m repro run      QUERY  [TRIPLES.tsv]  [--analyze] [--trace-out trace.json]
                             [--log-queries LOG.jsonl] [--slow-ms MS]
                             [--max-log-bytes B] [--log-backups N]
                             [--profile-hz HZ] [--profile-out FILE]...
                             [--repeat N] [--duration S] [--by {phase,frames}] [--top N]
                             [--backend {memory,sqlite}] [--store DB.sqlite]
                             [--save-db DB.sqlite] [--no-cache]
                             [--serve-debug PORT] [--serve-seconds N]
    python -m repro metrics  [QUERY]  [TRIPLES.tsv]
    python -m repro serve    [TRIPLES.tsv]  [--tenants TENANTS.json]
                             [--host H] [--port P] [--global-limit N]
                             [--backend B | --store DB.sqlite]
                             [--log-queries LOG.jsonl] [--slow-ms MS]
                             [--max-log-bytes B] [--log-backups N]
                             [--self-check]
    python -m repro demo

Every subcommand that reads data takes a TRIPLES file — one
``subject predicate object`` per line, tab/whitespace-separated, ``#``
comments — and falls back to the paper's Example 2 database when given
neither TRIPLES nor ``--store``.

* ``profile`` parses the query (surface SPARQL first, the paper's
  algebraic notation as fallback) and prints the EXPLAIN profile — widths,
  interface, and which of the paper's algorithms apply.
* ``run`` evaluates the query and prints its answers.  ``--analyze``
  appends the EXPLAIN ANALYZE report, ``--trace-out`` writes the Chrome
  ``chrome://tracing`` trace of the execution, ``--log-queries`` appends
  structured JSON-lines query events, and ``--slow-ms`` additionally
  captures the full EXPLAIN ANALYZE profile of queries slower than the
  threshold into the query log.  ``--profile-hz HZ`` runs the query under
  the span-aware sampling profiler (:mod:`repro.telemetry.profiler`),
  evaluating every time (no result-cache hits) at least ``--repeat`` times
  and for at least ``--duration`` seconds, and reports the hottest stacks;
  each ``--profile-out FILE`` writes the samples, as folded flamegraph
  stacks when FILE ends in ``.folded``/``.collapsed`` and as speedscope
  JSON otherwise.  Storage flags: ``--backend`` selects the
  :mod:`repro.storage` kind, ``--store DB.sqlite`` evaluates directly
  against an on-disk SQLite database (created from the triples file when
  missing, resumed — and extended with any given triples — when present),
  ``--save-db`` snapshots the loaded data to a SQLite file, and
  ``--no-cache`` disables the version-stamped result cache.
  ``--serve-debug PORT`` serves ``/metrics``, ``/healthz`` and
  ``/debug/{queries,plans}`` during the run (``--serve-seconds N`` keeps
  serving after it finishes).
* ``metrics`` evaluates a query (the paper's query (1) by default) and
  prints the planner's metrics in Prometheus text exposition format.
* ``serve`` runs the **multi-tenant async query service**
  (:mod:`repro.service`): ``POST /query|/ask|/explain`` as JSON, the
  ``/metrics``, ``/healthz``, ``/debug/*`` and ``/debug/profile`` routes,
  and the key-free ``GET /tenants`` registry view.  ``--tenants`` maps
  API keys to QoS tiers (concurrency caps, queue patience, per-query
  resource budgets, private result-cache sizes); over-cap traffic is shed
  with ``429`` + ``Retry-After``, and ``SIGTERM`` drains gracefully.
  ``--self-check`` probes the routes once and exits, for CI.  See
  ``docs/SERVICE.md`` for the operator guide.
* ``demo`` replays the paper's running example.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from contextlib import nullcontext
from typing import Optional

from .engine import Session, _parse_text
from .exceptions import ReproError
from .rdf.graph import RDFGraph
from .rdf.parser import parse_query
from .storage import BACKEND_ENV, BACKEND_KINDS, backend_from_env
from .wdpt.evaluation import evaluate
from .wdpt.explain import explain
from .workloads.families import FIGURE1_QUERY_TEXT, example2_graph

#: ``--profile-out`` names that get folded stacks; any other gets
#: speedscope JSON (the rule ``scripts/validate_trace.py`` reads them by).
_FOLDED_SUFFIXES = (".folded", ".collapsed")


def _load_triples(path: str) -> RDFGraph:
    graph = RDFGraph()
    try:
        handle = open(path)
    except OSError as exc:
        raise ReproError("cannot read triples file %s: %s" % (path, exc)) from exc
    with handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 2)
            if len(parts) != 3:
                raise ReproError(
                    "%s:%d: expected 'subject predicate object', got %r"
                    % (path, lineno, line)
                )
            graph.add(tuple(parts))  # type: ignore[arg-type]
    return graph


def _graph(triples: Optional[str], store: Optional[str] = None) -> Optional[RDFGraph]:
    """The graph of a TRIPLES file; else nothing when ``--store`` names
    the data; else the paper's Example 2 database."""
    if triples is not None:
        return _load_triples(triples)
    return None if store is not None else example2_graph()


def cmd_profile(args: argparse.Namespace) -> int:
    p = _parse_text(args.query)
    print(p)
    print()
    print(explain(p).as_table())
    return 0


def _make_obslog(args: argparse.Namespace):
    """A :class:`QueryLog` from ``--log-queries``/``--slow-ms`` (or None),
    with size rotation when ``--max-log-bytes`` is given."""
    if args.log_queries is None and args.slow_ms is None:
        return None
    from .telemetry.obslog import QueryLog

    threshold = args.slow_ms / 1000.0 if args.slow_ms is not None else None
    try:
        return QueryLog(
            sink=args.log_queries,
            slow_threshold=threshold,
            max_bytes=args.max_log_bytes,
            backup_count=args.log_backups,
        )
    except OSError as exc:
        raise ReproError(
            "cannot open query log %s: %s" % (args.log_queries, exc)
        ) from exc


def cmd_run(args: argparse.Namespace) -> int:
    p = _parse_text(args.query)
    obslog = _make_obslog(args)
    session = Session(
        _graph(args.triples, args.store),
        obslog=obslog,
        backend=args.backend,
        path=args.store,
        # A sampled run evaluates every time: a result-cache hit would
        # show the flamegraph nothing but a dictionary lookup.
        cache=not (args.no_cache or args.profile_hz is not None),
    )
    server = profiler = None
    if args.serve_debug is not None:
        from .service import MetricsServer

        server = MetricsServer(
            session.planner.metrics,
            port=args.serve_debug,
            debug=session.debug_providers(),
        ).start()
        print(
            "serving %s/metrics, %s/healthz and %s/debug"
            % (server.url, server.url, server.url)
        )
    try:
        if args.profile_hz is not None:
            from .telemetry.profiler import SamplingProfiler

            profiler = SamplingProfiler(
                hz=args.profile_hz, registry=session.planner.metrics
            ).start()
        report = (
            session.analyze(p) if args.analyze or args.trace_out else None
        )
        runs, elapsed, result = _run_repeatedly(session, p, args, profiler)
        answers = sorted(result, key=repr)
        if args.save_db:
            _save_database(session.database, args.save_db)
        print("%d answer(s) over %d facts:" % (len(answers), session.size))
        for answer in answers:
            print("   ", answer)
        if report is not None and args.analyze:
            print()
            print(report.as_text())
        if report is not None and args.trace_out:
            _write_trace(report, args.trace_out)
        if obslog is not None and args.log_queries:
            print("wrote query log to %s" % args.log_queries)
        if args.save_db:
            print("saved database to %s" % args.save_db)
        if profiler is not None:
            profiler.stop()
            _report_profile(args, profiler, runs, elapsed)
        if server is not None and args.serve_seconds > 0:
            print("serving debug endpoints for %gs" % args.serve_seconds)
            time.sleep(args.serve_seconds)
    finally:
        if profiler is not None:
            profiler.stop()
        if server is not None:
            server.stop()
        session.close()
        if obslog is not None:
            obslog.close()
    return 0


def _run_repeatedly(session: Session, p, args: argparse.Namespace, profiler):
    """``(runs, seconds, last result)`` of querying ``p`` at least
    ``--repeat`` times and for at least ``--duration`` seconds.  Under a
    profiler each run records its spans, which is what lets a sample
    name the plan phase it landed in."""
    from .telemetry.tracer import tracing

    traced = tracing if profiler is not None else nullcontext
    runs = 0
    start = time.monotonic()
    deadline = start + args.duration
    while runs < max(args.repeat, 1) or time.monotonic() < deadline:
        with traced():
            result = session.query(p)
        runs += 1
    return runs, time.monotonic() - start, result


def _report_profile(args: argparse.Namespace, profiler, runs: int, elapsed: float) -> None:
    """Print ``--profile-hz``'s summary and write each ``--profile-out``."""
    summary = profiler.summary(top=args.top)
    print(
        "profiled %d run(s) in %.2fs: %d sample(s) at %d Hz"
        % (runs, elapsed, summary["samples"], profiler.hz)
    )
    if summary["phases"]:
        print("phases: " + ", ".join(
            "%s %d" % item for item in Counter(summary["phases"]).most_common()
        ))
    if summary["top"]:
        print("hottest stacks (by %s):" % args.by)
        for stack, count in Counter(profiler.folded(by=args.by)).most_common(args.top):
            print("  %6d  %s" % (count, stack))
    for path in args.profile_out or ():
        folded = path.lower().endswith(_FOLDED_SUFFIXES)
        try:
            if folded:
                with open(path, "w") as handle:
                    handle.write(profiler.folded_text(by=args.by))
            else:
                profiler.write_speedscope(
                    path, name="repro run: %s" % args.query, by=args.by
                )
        except OSError as exc:
            raise ReproError(
                "cannot write profile to %s: %s" % (path, exc)
            ) from exc
        print("wrote %s to %s" % (
            "folded stacks" if folded else "speedscope profile", path
        ))
    if summary["samples"] == 0:
        print(
            "note: no samples captured — the query is faster than the "
            "sampling interval; raise --profile-hz or --duration"
        )


def _save_database(db, path: str) -> None:
    """Snapshot ``db`` into the SQLite file at ``path`` (overwriting)."""
    from .storage import SQLiteBackend

    if not isinstance(db, SQLiteBackend):
        db = SQLiteBackend(db.facts())
    db.save(path)


def _write_trace(report, path: str) -> None:
    from .telemetry.export import write_chrome_trace

    try:
        events = write_chrome_trace(report.tracer, path)
    except OSError as exc:
        raise ReproError("cannot write trace to %s: %s" % (path, exc)) from exc
    print("wrote %d trace event(s) to %s" % (events, path))


def cmd_metrics(args: argparse.Namespace) -> int:
    session = Session(_graph(args.triples))
    session.query(_parse_text(args.query))
    print(session.planner.metrics.to_prometheus(), end="")
    return 0


def _self_check(server, checks) -> None:
    """``--self-check``: fetch each ``(label, path, JSON body or None)``
    from the started ``server`` (a body makes it a POST) and print
    ``label: text`` — or the bare text when ``label`` is empty."""
    import json
    import urllib.request

    for label, path, payload in checks:
        request = urllib.request.Request(server.url + path)
        if payload is not None:
            request.data = json.dumps(payload).encode("utf-8")
            request.add_header("Content-Type", "application/json")
        with urllib.request.urlopen(request) as response:
            text = response.read().decode()
        if label:
            print("%s: %s" % (label, text))
        else:
            print(text, end="")


def cmd_serve(args: argparse.Namespace) -> int:
    """The multi-tenant async query service (``docs/SERVICE.md``)."""
    import asyncio

    from .service import ServiceServer, default_registry, load_tenants

    obslog = _make_obslog(args)
    tenants = (
        load_tenants(args.tenants) if args.tenants else default_registry()
    )
    server = ServiceServer(
        _graph(args.triples, args.store),
        tenants=tenants,
        host=args.host,
        port=args.port,
        backend=args.backend,
        path=args.store,
        global_limit=args.global_limit,
        obslog=obslog,
    )

    async def serve_forever() -> None:
        await server.start_async()
        print(
            "serving %s/query, %s/healthz, %s/metrics for tenants: %s\n"
            "(SIGTERM drains gracefully)"
            % (server.url, server.url, server.url,
               ", ".join(server.tenants.names())),
            flush=True,
        )
        await server.serve_forever()

    try:
        if args.self_check:
            with server:
                _self_check(server, [
                    ("healthz", "/healthz", None),
                    ("tenants", "/tenants", None),
                    ("explain", "/explain", {
                        "query": "SELECT ?x ?y WHERE { ?x recorded_by ?y }"
                    }),
                    ("query", "/query", {"query": FIGURE1_QUERY_TEXT}),
                    ("debug/queries", "/debug/queries", None),
                    ("", "/metrics", None),
                ])
        else:
            try:
                asyncio.run(serve_forever())
            except KeyboardInterrupt:  # pragma: no cover - interactive
                pass
        return 0
    finally:
        if obslog is not None:
            obslog.close()


def cmd_demo(args: argparse.Namespace) -> int:
    p = parse_query(FIGURE1_QUERY_TEXT)
    db = example2_graph().to_database()
    print("Query (1) of the paper:")
    print(p)
    print()
    print(explain(p).as_table())
    print("\nAnswers over the Example 2 database:")
    for answer in sorted(evaluate(p, db), key=repr):
        print("   ", answer)
    return 0


def _data_flags() -> argparse.ArgumentParser:
    """The data flags — TRIPLES, ``--backend``, ``--store`` and the
    query-log flags read by :func:`_make_obslog` — as a parent parser of
    ``run`` and ``serve``."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument(
        "--backend", default=None, choices=BACKEND_KINDS,
        help="storage backend (default: memory, or $REPRO_BACKEND; "
             "--store implies sqlite)",
    )
    flags.add_argument(
        "--store", metavar="DB.sqlite", default=None,
        help="on-disk SQLite database to evaluate against (created when "
             "missing, resumed when present; any TRIPLES are added to it)",
    )
    flags.add_argument(
        "--log-queries", metavar="LOG.jsonl", default=None,
        help="append structured query events as JSON lines",
    )
    flags.add_argument(
        "--slow-ms", type=float, default=None, metavar="MS",
        help="capture the EXPLAIN ANALYZE profile of queries slower than "
             "this into the query log (implies query logging)",
    )
    flags.add_argument(
        "--max-log-bytes", type=int, default=None, metavar="BYTES",
        help="rotate the query log when it reaches this size "
             "(default: never rotate)",
    )
    flags.add_argument(
        "--log-backups", type=int, default=3, metavar="N",
        help="rotated query-log files to keep as LOG.jsonl.1..N "
             "(0 = truncate in place; default: %(default)s)",
    )
    return flags


def _triples(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "triples", nargs="?", default=None,
        help="whitespace-separated 's p o' lines (default: the paper's "
             "Example 2 database, unless --store names the data)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Well-designed pattern trees: profile and evaluate {AND, OPT} queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    data = _data_flags()

    p_profile = sub.add_parser(
        "profile", help="print a query's EXPLAIN profile",
    )
    p_profile.add_argument("query")
    p_profile.set_defaults(func=cmd_profile)

    p_run = sub.add_parser(
        "run",
        parents=[data],
        help="evaluate a query: EXPLAIN ANALYZE it, trace it, log it, "
             "sample it into a flamegraph",
    )
    p_run.add_argument("query")
    _triples(p_run)
    p_run.add_argument(
        "--analyze", action="store_true",
        help="append the EXPLAIN ANALYZE report to the answers",
    )
    p_run.add_argument(
        "--trace-out", metavar="TRACE.json", default=None,
        help="write the Chrome trace-event JSON of the execution",
    )
    p_run.add_argument(
        "--profile-hz", type=int, default=None, metavar="HZ",
        help="sample the run's stacks at HZ (evaluating every time, never "
             "from the result cache) and print the hottest",
    )
    p_run.add_argument(
        "--profile-out", metavar="FILE", action="append", default=None,
        help="with --profile-hz, write the samples to FILE: folded stacks "
             "(flamegraph.pl input) for *.folded/*.collapsed, speedscope "
             "JSON (https://speedscope.app) otherwise; repeatable",
    )
    p_run.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="run the query at least N times (default: %(default)s)",
    )
    p_run.add_argument(
        "--duration", type=float, default=0.0, metavar="SECONDS",
        help="keep re-running the query for at least this long "
             "(default: %(default)s)",
    )
    p_run.add_argument(
        "--by", default="phase", choices=["phase", "frames"],
        help="fold sampled stacks under a plan-phase root (plan/semijoin/"
             "join/enumerate) or by Python frames only (default: %(default)s)",
    )
    p_run.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="print the N hottest sampled stacks (default: %(default)s)",
    )
    p_run.add_argument(
        "--save-db", metavar="DB.sqlite", default=None,
        help="snapshot the loaded database to this SQLite file after the run",
    )
    p_run.add_argument(
        "--no-cache", action="store_true",
        help="disable the version-stamped result cache",
    )
    p_run.add_argument(
        "--serve-debug", type=int, default=None, metavar="PORT",
        help="serve /metrics, /healthz and /debug/{queries,plans} "
             "on this port (0 = pick a free one) while the run executes",
    )
    p_run.add_argument(
        "--serve-seconds", type=float, default=0.0, metavar="N",
        help="with --serve-debug, keep serving N seconds after the run "
             "finishes (so external clients can scrape; default: 0)",
    )
    p_run.set_defaults(func=cmd_run)

    p_metrics = sub.add_parser(
        "metrics",
        help="run a query and print the Prometheus text exposition",
    )
    p_metrics.add_argument(
        "query", nargs="?", default=FIGURE1_QUERY_TEXT,
        help="query to evaluate (default: the paper's query (1))",
    )
    _triples(p_metrics)
    p_metrics.set_defaults(func=cmd_metrics)

    p_serve = sub.add_parser(
        "serve",
        parents=[data],
        help="run the multi-tenant async query service "
             "(POST /query|/ask|/explain, /metrics, /debug; see docs/SERVICE.md)",
    )
    _triples(p_serve)
    p_serve.add_argument(
        "--tenants", default=None, metavar="TENANTS.json",
        help="tenant/QoS registry file (default: one anonymous 'public' "
             "tenant on the gold tier)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="port to bind (default: 0 = pick a free one, printed)",
    )
    p_serve.add_argument(
        "--global-limit", type=int, default=64, metavar="N",
        help="process-wide in-flight query ceiling (default: %(default)s)",
    )
    p_serve.add_argument(
        "--self-check", action="store_true",
        help="start, probe /healthz, /tenants, POST /explain, POST /query, "
             "/debug/queries and /metrics once, print the responses, and exit",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_demo = sub.add_parser("demo", help="replay the paper's running example")
    p_demo.set_defaults(func=cmd_demo)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A usage error now, not a traceback from whichever command builds
    # the first session.
    try:
        backend_from_env()
    except ValueError as exc:
        parser.error("%s: %s" % (BACKEND_ENV, exc))
    try:
        return args.func(args)
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
