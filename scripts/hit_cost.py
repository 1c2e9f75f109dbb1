#!/usr/bin/env python
"""What a served result-cache hit costs, in process.

Usage::

    python scripts/hit_cost.py            # 400 bands, 9 passes
    python scripts/hit_cost.py --smoke    # 40 bands, 3 passes, a few seconds

It builds the ``serve_hot`` set-up — a :class:`~repro.service.ServiceServer`
over ``music_catalog(bands, 5)`` with the default ``public`` tenant on the
gold tier, warmed over real HTTP with the benchmark's pool of 16
selective band queries and the unselective Figure 1 query — and times,
over the pool in its 3:1 order,

* ``cached (tracked)``: ``Session.cached`` on the tenant's session, which
  tracks resources as every service session does;
* ``cached (untracked)``: the same on a session that tracks nothing;
* ``result_body``: the response body of a hit, its answers already
  serialised;
* ``router.dispatch``: the whole ``POST /query`` of a hit once its bytes
  are read — authentication, request parsing, admission, the lookup, the
  body and the response instruments.

Each figure is the best of the passes, in µs per call.  The script exits
1 when a dispatched body is not the bytes ``json.dumps`` writes for its
fields, when its fields are not ``encode_result``'s for the hit (answers
included), or when a hit built a ``QueryObservation``, so it is a gate as
well as a report.
"""

import argparse
import json
import os
import random
import sys
import urllib.request
from time import perf_counter

# Runnable straight from a checkout, before any `pip install -e .`.
_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
sys.path.insert(0, os.path.abspath(_SRC))

from repro.engine import Session  # noqa: E402
from repro.service import ServiceServer  # noqa: E402
from repro.service.protocol import AnswerEncoder, encode_result, result_body  # noqa: E402
from repro.table import format_table  # noqa: E402
from repro.telemetry import obslog  # noqa: E402
from repro.telemetry.routes import RouteRequest, RouteResponse, encode_json  # noqa: E402
from repro.workloads.datasets import music_catalog  # noqa: E402
from repro.workloads.families import FIGURE1_QUERY_TEXT  # noqa: E402

SEED = 1
TENANT = "public"


def band_query(band: int) -> str:
    """The benchmark's selective query: one band's records after 2010,
    optionally rated, plus the band's founding year."""
    return (
        'SELECT ?x ?z ?z2 WHERE { ?x recorded_by band_%d . ?x published "after_2010" '
        "OPTIONAL { ?x NME_rating ?z } OPTIONAL { band_%d formed_in ?z2 } }" % (band, band)
    )


def pool(bands: int):
    """The ``serve_hot`` texts in their 3:1 selective-to-wide order."""
    rng = random.Random(SEED)
    selective = [band_query(b) for b in rng.sample(range(bands), 16)]
    wide = "SELECT ?x ?y ?z ?z2 WHERE " + FIGURE1_QUERY_TEXT
    order = [wide if i % 4 == 3 else selective[(i - i // 4) % 16] for i in range(68)]
    return selective + [wide], order


def best_us(call, items, passes: int) -> float:
    """Best-of-``passes`` µs per ``call(item)`` over ``items``."""
    best = float("inf")
    for _ in range(passes):
        start = perf_counter()
        for item in items:
            call(item)
        best = min(best, perf_counter() - start)
    return best * 1e6 / len(items)


def post(text: str) -> RouteRequest:
    body = json.dumps({"query": text}).encode("utf-8")
    return RouteRequest(
        "POST", "/query", headers={"Content-Length": str(len(body))}, body=body
    )


def check_body(body: bytes, session: Session, text: str):
    """What is wrong with a dispatched hit body, or ``None``."""
    if encode_json(json.loads(body)) != body:
        return "not the bytes json.dumps writes for its fields"
    fields = json.loads(body)
    hit = session.cached("query", text)
    expected = json.loads(encode_json(encode_result(
        "query", TENANT, hit, fields["resources"]["wall_seconds"],
    )))
    for name in ("wall_ms", "trace_id", "resources"):  # per request
        if name not in fields:
            return "no %r field" % name
        expected[name] = fields[name]
    if list(fields) != list(expected) or fields != expected:
        return "fields differ from encode_result's"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true", help="small data, few passes")
    args = parser.parse_args(argv)
    bands, passes = (40, 3) if args.smoke else (400, 9)
    texts, order = pool(bands)
    failures = []
    graph = music_catalog(bands, 5, seed=SEED)
    with ServiceServer(graph) as server:
        for text in texts:
            # The miss evaluates on the executor and serialises the answers.
            request = urllib.request.Request(
                server.url + "/query", data=post(text).body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                response.read()
        tracked = server.sessions[TENANT]
        untracked = Session(server.database, cache_size=256)
        for text in texts:
            untracked.query(text)
        encoder = AnswerEncoder()
        hits = [tracked.cached("query", text) for text in order]
        fragments = [encoder.fragment(hit.answers) for hit in hits]
        requests = [post(text) for text in order]

        built = []
        init = obslog.QueryObservation.__init__

        def counting(obs, *a, **k):
            built.append(obs)
            init(obs, *a, **k)

        obslog.QueryObservation.__init__ = counting
        try:
            rows = [
                ("cached (tracked)", best_us(
                    lambda text: tracked.cached("query", text), order, passes)),
                ("cached (untracked)", best_us(
                    lambda text: untracked.cached("query", text), order, passes)),
                ("result_body", best_us(
                    lambda i: result_body(
                        "query", TENANT, hits[i], 1.5e-05, False, fragments[i]
                    ), range(len(order)), passes)),
                ("router.dispatch", best_us(
                    lambda request: server.router.dispatch(request), requests, passes)),
            ]
            responses = [server.router.dispatch(post(text)) for text in texts]
        finally:
            obslog.QueryObservation.__init__ = init
        if built:
            failures.append("%d hits built a QueryObservation" % len(built))
        for text, response in zip(texts, responses):
            if not isinstance(response, RouteResponse):
                problem = "not answered at once"
            elif response.status != 200:
                problem = "answered %d" % response.status
            else:
                problem = check_body(response.body, tracked, text)
            if problem:
                failures.append("%s: %s" % (text[:40], problem))
    print(format_table(
        ["step", "µs per hit"], [[name, "%.2f" % us] for name, us in rows]
    ))
    for failure in failures:
        print("FAIL:", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
