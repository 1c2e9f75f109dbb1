"""Command-line front door: profile and run {AND, OPT} queries.

Usage::

    python -m repro profile  "SELECT ?x WHERE { ?x knows ?y OPTIONAL { ?x age ?a } }"
    python -m repro profile  QUERY  [TRIPLES.tsv]  [--hz HZ] [--duration S]
                             [--speedscope OUT.json] [--folded OUT.folded]
    python -m repro run      QUERY  [TRIPLES.tsv]  [--analyze] [--trace-out trace.json]
                             [--log-queries LOG.jsonl] [--slow-ms MS]
                             [--max-log-bytes B] [--log-backups N]
                             [--profile-hz HZ] [--profile-out OUT.json]
                             [--backend {memory,sqlite}] [--store DB.sqlite]
                             [--save-db DB.sqlite] [--no-cache]
                             [--serve-debug PORT] [--serve-seconds N]
    python -m repro analyze  QUERY  [TRIPLES.tsv]  [--trace-out trace.json]
    python -m repro metrics  [QUERY]  [TRIPLES.tsv]
    python -m repro serve-metrics  [TRIPLES.tsv]  [--port P] [--self-check]
                             [--log-queries LOG.jsonl] [--max-log-bytes B]
    python -m repro serve    [TRIPLES.tsv]  [--tenants TENANTS.json]
                             [--port P] [--global-limit N]
                             [--backend B | --store DB.sqlite]
                             [--self-check]
    python -m repro demo

* ``profile`` parses the query (surface SPARQL first, the paper's
  algebraic notation as fallback) and prints the EXPLAIN profile — widths,
  interface, and which of the paper's algorithms apply.  With any of
  ``--hz``/``--duration``/``--speedscope``/``--folded`` it instead runs
  the query in a loop under the span-aware sampling profiler
  (:mod:`repro.telemetry.profiler`) and reports the hottest stacks,
  optionally exporting speedscope JSON and/or folded flamegraph stacks.
* ``run`` additionally evaluates over a tab/whitespace-separated triples
  file (one ``subject predicate object`` per line; ``#`` comments);
  ``--analyze`` appends the EXPLAIN ANALYZE report, ``--trace-out``
  writes the Chrome ``chrome://tracing`` trace of the execution,
  ``--log-queries`` appends structured JSON-lines query events, and
  ``--slow-ms`` additionally captures the full EXPLAIN ANALYZE profile of
  queries slower than the threshold into the query log.  Storage flags:
  ``--backend`` selects the :mod:`repro.storage` kind, ``--store
  DB.sqlite`` evaluates directly against an on-disk SQLite database
  (created from the triples file when missing, resumed — and extended
  with any given triples — when present; the triples file is then
  optional), ``--save-db`` snapshots the loaded data to a SQLite file,
  and ``--no-cache`` disables the version-stamped result cache.
  ``--serve-debug PORT`` serves ``/metrics``, ``/healthz`` and
  ``/debug/{queries,plans}`` during the run (``--serve-seconds N`` keeps
  serving after it finishes).
* ``analyze`` runs EXPLAIN ANALYZE directly (over the paper's Example 2
  database when no triples file is given).
* ``metrics`` evaluates a query (the paper's query (1) by default) and
  prints the planner's metrics in Prometheus text exposition format.
* ``serve-metrics`` exposes ``/metrics`` + ``/healthz`` + ``/debug/*``
  over HTTP (``--self-check`` fetches its own endpoint once and exits,
  for CI).
* ``serve`` runs the **multi-tenant async query service**
  (:mod:`repro.service`): ``POST /query|/ask|/explain`` as JSON, plus the
  same ``/metrics``/``/healthz``/``/debug/*`` routes as ``serve-metrics``
  and the key-free ``GET /tenants`` registry view.  ``--tenants`` maps
  API keys to QoS tiers (concurrency caps, queue patience, per-query
  resource budgets, private result-cache sizes); over-cap traffic is shed
  with ``429`` + ``Retry-After``, and ``SIGTERM`` drains gracefully.
  See ``docs/SERVICE.md`` for the operator guide.
* ``demo`` replays the paper's running example.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .engine import Session, _parse_text
from .exceptions import ReproError
from .rdf.graph import RDFGraph
from .rdf.parser import parse_query
from .storage import BACKEND_ENV, BACKEND_KINDS, backend_from_env
from .wdpt.evaluation import evaluate
from .wdpt.explain import explain
from .wdpt.wdpt import WDPT
from .workloads.families import FIGURE1_QUERY_TEXT, example2_graph


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


def _graph(triples: Optional[str]) -> RDFGraph:
    """The graph of a TRIPLES file, or the paper's Example 2 database
    when the subcommand was given none."""
    return _load_triples(triples) if triples is not None else example2_graph()


def cmd_profile(args: argparse.Namespace) -> int:
    p = _parse_text(args.query)
    sampling = (
        args.hz is not None
        or args.duration is not None
        or args.speedscope is not None
        or args.folded is not None
    )
    if not sampling:
        print(p)
        print()
        print(explain(p).as_table())
        return 0
    return _profile_sampled(args, p)


def _profile_sampled(args: argparse.Namespace, p: WDPT) -> int:
    """Run ``p`` in a loop under the sampling profiler and report/export.

    The loop runs at least ``--repeat`` iterations AND at least
    ``--duration`` seconds (whichever is longer), with the result cache
    disabled — otherwise every iteration after the first is a cache hit
    and the flamegraph shows nothing but dictionary lookups.
    """
    import time

    from .telemetry.profiler import DEFAULT_HZ, SamplingProfiler
    from .telemetry.tracer import tracing

    hz = int(args.hz) if args.hz is not None else DEFAULT_HZ
    duration = float(args.duration) if args.duration is not None else 1.0
    session = Session(_graph(args.triples), cache=False)
    profiler = SamplingProfiler(hz=hz, registry=session.planner.metrics)
    runs = 0
    profiler.start()
    try:
        # A recording tracer makes the evaluators open spans, which is
        # what lets the profiler attribute samples to plan phases.
        with tracing():
            deadline = time.monotonic() + duration
            start = time.monotonic()
            while runs < args.repeat or time.monotonic() < deadline:
                session.query(p)
                runs += 1
            elapsed = time.monotonic() - start
    finally:
        profiler.stop()
        session.close()
    summary = profiler.summary(top=args.top)
    print(
        "profiled %d run(s) in %.2fs: %d sample(s) at %d Hz"
        % (runs, elapsed, summary["samples"], hz)
    )
    if summary["phases"]:
        print(
            "phases: "
            + ", ".join(
                "%s %d" % (phase, n)
                for phase, n in sorted(
                    summary["phases"].items(), key=lambda kv: -kv[1]
                )
            )
        )
    if summary["top"]:
        print("hottest stacks (by %s):" % args.by)
        for stack, count in sorted(
            profiler.folded(by=args.by).items(), key=lambda kv: -kv[1]
        )[: args.top]:
            print("  %6d  %s" % (count, stack))
    if args.speedscope:
        profiler.write_speedscope(
            args.speedscope, name="repro profile: %s" % args.query, by=args.by
        )
        print("wrote speedscope profile to %s" % args.speedscope)
    if args.folded:
        try:
            with open(args.folded, "w") as handle:
                handle.write(profiler.folded_text(by=args.by))
        except OSError as exc:
            raise ReproError(
                "cannot write folded stacks to %s: %s" % (args.folded, exc)
            ) from exc
        print("wrote folded stacks to %s" % args.folded)
    if summary["samples"] == 0:
        print(
            "note: no samples captured — the query is faster than the "
            "sampling interval; raise --hz or --duration"
        )
    return 0


def _make_obslog(args: argparse.Namespace):
    """A :class:`QueryLog` from ``--log-queries``/``--slow-ms`` (or None),
    with size rotation when ``--max-log-bytes`` is given."""
    log_path = getattr(args, "log_queries", None)
    slow_ms = getattr(args, "slow_ms", None)
    if log_path is None and slow_ms is None:
        return None
    from .telemetry.obslog import QueryLog

    threshold = slow_ms / 1000.0 if slow_ms is not None else None
    try:
        return QueryLog(
            sink=log_path,
            slow_threshold=threshold,
            max_bytes=getattr(args, "max_log_bytes", None),
            backup_count=getattr(args, "log_backups", 3),
        )
    except OSError as exc:
        raise ReproError(
            "cannot open query log %s: %s" % (log_path, exc)
        ) from exc


def _start_profiler(args: argparse.Namespace, registry):
    """A started :class:`SamplingProfiler` from ``--profile-hz`` (or None)."""
    hz = getattr(args, "profile_hz", None)
    if hz is None:
        return None
    from .telemetry.profiler import MAX_HZ, SamplingProfiler

    hz = max(1, min(int(hz), MAX_HZ))
    return SamplingProfiler(hz=hz, registry=registry).start()


def _finish_profiler(args: argparse.Namespace, profiler) -> None:
    """Stop ``profiler`` and write ``--profile-out`` / print a summary."""
    if profiler is None:
        return
    profiler.stop()
    out = getattr(args, "profile_out", None)
    if out:
        profiler.write_speedscope(out, by="phase")
        print(
            "wrote %d profile sample(s) to %s"
            % (profiler.sample_count, out)
        )
    else:
        summary = profiler.summary(top=3)
        phases = ", ".join(
            "%s %d" % (phase, n)
            for phase, n in sorted(
                summary["phases"].items(), key=lambda kv: -kv[1]
            )
        ) or "none"
        print(
            "profile: %d sample(s) at %d Hz (phases: %s)"
            % (summary["samples"], profiler.hz, phases)
        )


def cmd_run(args: argparse.Namespace) -> int:
    import time

    if args.triples is None and args.store is None:
        raise ReproError(
            "run needs a TRIPLES file, --store DB.sqlite, or both"
        )
    p = _parse_text(args.query)
    obslog = _make_obslog(args)
    session = Session(
        _load_triples(args.triples) if args.triples is not None else None,
        obslog=obslog,
        backend=args.backend,
        path=args.store,
        cache=not args.no_cache,
    )
    server = None
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
    profiler = _start_profiler(args, session.planner.metrics)
    try:
        report = (
            session.analyze(p) if args.analyze or args.trace_out else None
        )
        answers = sorted(session.query(p), key=repr)
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
        _finish_profiler(args, profiler)
        profiler = None
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


def _save_database(db, path: str) -> None:
    """Snapshot ``db`` into the SQLite file at ``path`` (overwriting)."""
    from .storage import SQLiteBackend

    if not isinstance(db, SQLiteBackend):
        db = SQLiteBackend(db.facts())
    db.save(path)


def cmd_analyze(args: argparse.Namespace) -> int:
    p = _parse_text(args.query)
    report = Session(_graph(args.triples)).analyze(p)
    print(report.as_text())
    if args.trace_out:
        _write_trace(report, args.trace_out)
    return 0


def _write_trace(report, path: str) -> None:
    from .telemetry.export import write_chrome_trace

    try:
        events = write_chrome_trace(report.tracer, path)
    except OSError as exc:
        raise ReproError("cannot write trace to %s: %s" % (path, exc)) from exc
    print("wrote %d trace event(s) to %s" % (events, path))


def cmd_metrics(args: argparse.Namespace) -> int:
    session, p = _metrics_session(args)
    session.query(p)
    print(session.planner.metrics.to_prometheus(), end="")
    return 0


def _metrics_session(args: argparse.Namespace, obslog=None):
    """A Session plus warm-up query for the metrics subcommands."""
    session = Session(_graph(args.triples), obslog=obslog)
    if getattr(args, "query", None):
        p = _parse_text(args.query)
    else:
        p = parse_query(FIGURE1_QUERY_TEXT)
    return session, p


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


def _serve_forever(server, banner) -> None:
    """Bind ``server``, print ``banner(url)``, serve until SIGTERM/SIGINT,
    then drain."""
    import asyncio

    async def _serve() -> None:
        await server.start_async()
        print(banner(server.url), flush=True)
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass


def cmd_serve_metrics(args: argparse.Namespace) -> int:
    from .service import MetricsServer

    obslog = _make_obslog(args)
    session, p = _metrics_session(args, obslog=obslog)
    session.query(p)  # warm the registry so the exposition is non-empty
    server = MetricsServer(
        session.planner.metrics, host=args.host, port=args.port,
        debug=session.debug_providers(),
    )

    def banner(url: str) -> str:
        return "serving %s/metrics, %s/healthz and %s/debug" % (url, url, url)

    try:
        if args.self_check:
            with server:
                print(banner(server.url))
                _self_check(server, [
                    ("healthz", "/healthz", None),
                    ("debug/queries", "/debug/queries", None),
                    ("", "/metrics", None),
                ])
        else:
            _serve_forever(server, banner)
        return 0
    finally:
        session.close()
        if obslog is not None:
            obslog.close()


def cmd_serve(args: argparse.Namespace) -> int:
    """The multi-tenant async query service (``docs/SERVICE.md``)."""
    from .service import ServiceServer, default_registry, load_tenants

    obslog = _make_obslog(args)
    tenants = (
        load_tenants(args.tenants) if args.tenants else default_registry()
    )
    server = ServiceServer(
        _graph(args.triples),
        tenants=tenants,
        host=args.host,
        port=args.port,
        backend=args.backend,
        path=args.store,
        global_limit=args.global_limit,
        obslog=obslog,
    )
    try:
        if args.self_check:
            with server:
                _self_check(server, [
                    ("healthz", "/healthz", None),
                    ("tenants", "/tenants", None),
                    ("explain", "/explain", {
                        "query": "SELECT ?x ?y WHERE { ?x recorded_by ?y }"
                    }),
                ])
        else:
            _serve_forever(server, lambda url: (
                "serving %s/query, %s/healthz, %s/metrics for tenants: %s\n"
                "(SIGTERM drains gracefully)"
                % (url, url, url, ", ".join(server.tenants.names()))
            ))
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


def _query_log_flags() -> argparse.ArgumentParser:
    """The query-log flags (read by :func:`_make_obslog`), as a parent
    parser of every subcommand that keeps a query log."""
    flags = argparse.ArgumentParser(add_help=False)
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


def _storage_flags() -> argparse.ArgumentParser:
    """The storage flags (``Session``'s ``backend=``/``path=``),
    as a parent parser of every subcommand that builds its own backend."""
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
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Well-designed pattern trees: profile and evaluate {AND, OPT} queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    query_log = _query_log_flags()
    storage = _storage_flags()

    p_profile = sub.add_parser(
        "profile",
        help="print a query's EXPLAIN profile, or (with --hz/--duration/"
             "--speedscope/--folded) sample its execution into a flamegraph",
    )
    p_profile.add_argument("query")
    p_profile.add_argument(
        "triples", nargs="?", default=None,
        help="whitespace-separated 's p o' lines to profile against "
             "(default: the paper's Example 2 database)",
    )
    p_profile.add_argument(
        "--hz", type=int, default=None, metavar="HZ",
        help="sampling frequency (enables sampling mode; default: 100)",
    )
    p_profile.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="keep re-running the query for at least this long "
             "(enables sampling mode; default: 1.0)",
    )
    p_profile.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="run the query at least N times (default: 1)",
    )
    p_profile.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="print the N hottest stacks (default: 10)",
    )
    p_profile.add_argument(
        "--by", default="phase", choices=["phase", "frames"],
        help="fold stacks under a plan-phase root (plan/semijoin/join/"
             "enumerate) or by Python frames only (default: %(default)s)",
    )
    p_profile.add_argument(
        "--speedscope", metavar="FILE.json", default=None,
        help="write the profile as speedscope JSON "
             "(open at https://speedscope.app; enables sampling mode)",
    )
    p_profile.add_argument(
        "--folded", metavar="FILE.folded", default=None,
        help="write Brendan-Gregg folded stacks (flamegraph.pl input; "
             "enables sampling mode)",
    )
    p_profile.set_defaults(func=cmd_profile)

    p_run = sub.add_parser(
        "run",
        parents=[query_log, storage],
        help="evaluate a query over a triples file or a stored database",
    )
    p_run.add_argument("query")
    p_run.add_argument(
        "triples", nargs="?", default=None,
        help="whitespace-separated 's p o' lines (optional when --store "
             "names an existing database)",
    )
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
        help="sample wall-clock stacks at HZ while the query runs",
    )
    p_run.add_argument(
        "--profile-out", metavar="FILE.json", default=None,
        help="with --profile-hz, write the profile as speedscope JSON",
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

    p_analyze = sub.add_parser(
        "analyze",
        help="EXPLAIN ANALYZE a query (Example 2 database unless TRIPLES given)",
    )
    p_analyze.add_argument("query")
    p_analyze.add_argument(
        "triples", nargs="?", default=None,
        help="whitespace-separated 's p o' lines (default: paper's Example 2)",
    )
    p_analyze.add_argument(
        "--trace-out", metavar="TRACE.json", default=None,
        help="write the Chrome trace-event JSON of the execution",
    )
    p_analyze.set_defaults(func=cmd_analyze)

    p_metrics = sub.add_parser(
        "metrics",
        help="run a query and print the Prometheus text exposition",
    )
    p_metrics.add_argument(
        "query", nargs="?", default=None,
        help="query to evaluate (default: the paper's query (1))",
    )
    p_metrics.add_argument(
        "triples", nargs="?", default=None,
        help="whitespace-separated 's p o' lines (default: paper's Example 2)",
    )
    p_metrics.set_defaults(func=cmd_metrics)

    p_serve = sub.add_parser(
        "serve-metrics",
        parents=[query_log],
        help="expose /metrics and /healthz over HTTP",
    )
    p_serve.add_argument(
        "triples", nargs="?", default=None,
        help="whitespace-separated 's p o' lines (default: paper's Example 2)",
    )
    p_serve.add_argument(
        "--query", default=None,
        help="warm-up query to evaluate (default: the paper's query (1))",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="port to bind (default: 0 = pick a free one, printed)",
    )
    p_serve.add_argument(
        "--self-check", action="store_true",
        help="fetch the endpoint once, print the response, and exit",
    )
    p_serve.set_defaults(func=cmd_serve_metrics)

    p_svc = sub.add_parser(
        "serve",
        parents=[query_log, storage],
        help="run the multi-tenant async query service "
             "(POST /query|/ask|/explain; see docs/SERVICE.md)",
    )
    p_svc.add_argument(
        "triples", nargs="?", default=None,
        help="whitespace-separated 's p o' lines (default: paper's Example 2)",
    )
    p_svc.add_argument(
        "--tenants", default=None, metavar="TENANTS.json",
        help="tenant/QoS registry file (default: one anonymous 'public' "
             "tenant on the gold tier)",
    )
    p_svc.add_argument("--host", default="127.0.0.1")
    p_svc.add_argument(
        "--port", type=int, default=0,
        help="port to bind (default: 0 = pick a free one, printed)",
    )
    p_svc.add_argument(
        "--global-limit", type=int, default=64, metavar="N",
        help="process-wide in-flight query ceiling (default: %(default)s)",
    )
    p_svc.add_argument(
        "--self-check", action="store_true",
        help="start, probe /healthz, /tenants and POST /explain once, "
             "print the responses, and exit",
    )
    p_svc.set_defaults(func=cmd_serve)

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
