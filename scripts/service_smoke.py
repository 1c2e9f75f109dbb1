#!/usr/bin/env python
"""Smoke-test a running `repro serve` instance with mixed tenant traffic.

Usage::

    python scripts/service_smoke.py http://127.0.0.1:9311
    python scripts/service_smoke.py --help

Expects the two-tenant CI configuration (see the `service-smoke` job in
.github/workflows/ci.yml): tenant **alpha** (key ``alpha-key``, gold
tier) and tenant **beta** (key ``beta-key``, a strict tier with
``max_concurrency: 1``, ~1 ms queue patience, and a hard
intermediate-rows budget).  The driver:

1. fires concurrent mixed traffic from both tenants and checks the
   served responses (answers, tenant stamps, trace ids);
2. fires a herd of 8 identical never-seen queries as alpha and checks,
   from ``/metrics`` counts alone (no timing), that it cost exactly one
   evaluation: one cache miss, seven riders or cache hits, equal bodies;
   then 8 more of the same query, which must be exactly 8 cache hits,
   no miss and no rider (a hit is answered on the event loop and never
   joins a flight);
3. sends one over-budget query as beta and checks the ``429`` budget
   response;
4. storms beta's single-slot tier with concurrent clients: a storm of
   one cached query must be served whole (a hit holds its slot across
   no await), a storm of distinct never-seen queries must see at least
   one request shed with ``429`` + ``Retry-After``;
5. asks ``/ask`` about one true and one false candidate of the OPT
   query that no earlier request asked, so the result cache cannot
   answer them, checks both verdicts, and checks from ``/metrics`` that
   the planner decided their checks by existence probes
   (``repro_planner_engine_selected{engine="probe"}`` rose);
6. asserts the whole story is visible in ``/metrics`` and ``/healthz``
   (per-tenant admitted/shed counters, cache series), and that the
   cyclic garbage collector is on again after all of it;
7. sends one cached query as alpha from a slow client, in delayed
   packets, and fires 8 cached requests before its last packet: all 8
   are answered while the slow one has no answer yet, its answer then
   matches a fast client's, and ``/metrics`` counts 9 hits, no miss;
8. reads the wide query's answer as alpha through a small receive
   buffer, only after a pause and in small pieces, and checks it is a
   fast client's body; then resets a connection (``SO_LINGER`` 0) in
   the middle of a request body and checks ``/healthz`` still answers.

Exits 0 when every check passes, 1 otherwise: a request that raises
(say, the base URL is unreachable) is a failed check naming the request
and the error, not a traceback.  Network access is only to the given
base URL — this is an offline CI check.
"""

import json
import os
import re
import socket
import struct
import sys
import threading
import time
import urllib.error
import urllib.request

SMALL_QUERY = 'SELECT ?x WHERE { ?x recorded_by "Caribou" }'
WIDE_QUERY = "SELECT ?x ?y WHERE { ?x recorded_by ?y }"
OPT_QUERY = (
    "SELECT ?x ?y ?z WHERE { ?x recorded_by ?y "
    "OPTIONAL { ?x NME_rating ?z } }"
)

FAILURES = []


def check(condition, message):
    status = "ok" if condition else "FAIL"
    print("  [%s] %s" % (status, message))
    if not condition:
        FAILURES.append(message)


def request(base, path, payload=None, key=None):
    """(status, parsed JSON body, headers) for one exchange."""
    headers = {}
    data = None
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    if key is not None:
        headers["X-Api-Key"] = key
    req = urllib.request.Request(base + path, data=data, headers=headers)
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def fan_out(base, spec):
    """Run the (path, payload, key) triples concurrently.  A request that
    raises fills its slot with status 0 and the error as the body's
    ``error``, and fails a check that names it."""
    results = [None] * len(spec)

    def fire(i, path, payload, key):
        try:
            results[i] = request(base, path, payload, key=key)
        except (OSError, ValueError) as exc:  # unreachable, reset, not JSON
            results[i] = (0, {"error": repr(exc)}, {})

    threads = [
        threading.Thread(target=fire, args=(i,) + entry)
        for i, entry in enumerate(spec)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for (path, payload, key), (status, body, _) in zip(spec, results):
        if status == 0:
            method = "GET" if payload is None else "POST"
            check(False, "%s %s as %s raised %s" % (method, path, key, body["error"]))
    return results


def scrape(base, tenant):
    """``{metric name: value}`` of the ``tenant``-labelled series."""
    with urllib.request.urlopen(base + "/metrics", timeout=30) as resp:
        text = resp.read().decode("utf-8")
    pattern = r'^(\w+)\{tenant="%s"\} (\S+)$' % re.escape(tenant)
    return {
        name: float(value)
        for name, value in re.findall(pattern, text, flags=re.MULTILINE)
    }


def scrape_series(base, series):
    """The value of one exact ``/metrics`` series (0 when absent)."""
    with urllib.request.urlopen(base + "/metrics", timeout=30) as resp:
        text = resp.read().decode("utf-8")
    for line in text.splitlines():
        name, _, value = line.rpartition(" ")
        if name == series:
            return float(value)
    return 0.0


def main(argv):
    if argv in (["-h"], ["--help"]):
        print(__doc__)
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    base = argv[0].rstrip("/")
    try:
        run_steps(base)
    except (OSError, ValueError) as exc:  # the service went away or spoke garbage
        check(False, "reading %s raised %r" % (base, exc))
    if FAILURES:
        print("\n%d check(s) failed" % len(FAILURES))
        return 1
    print("\nservice smoke: all checks passed")
    return 0


def run_steps(base):
    """Steps 1-8 of the module docstring against ``base``."""
    print("1. mixed concurrent traffic (8 clients, 2 tenants)")
    spec = [("/query", {"query": OPT_QUERY}, "alpha-key")] * 5
    spec += [("/query", {"query": SMALL_QUERY}, "beta-key")] * 2
    spec += [("/explain", {"query": WIDE_QUERY}, "alpha-key")]
    results = fan_out(base, spec)
    alpha = [r for r, entry in zip(results, spec) if entry[2] == "alpha-key"]
    beta = [r for r, entry in zip(results, spec) if entry[2] == "beta-key"]
    check(all(status == 200 for status, _, _ in alpha),
          "all alpha requests served (got %s)"
          % [status for status, _, _ in alpha])
    check(all(body.get("tenant") == "alpha" for _, body, _ in alpha),
          "alpha responses stamped with the tenant")
    check(any(body.get("trace_id") for _, body, _ in alpha),
          "evaluation responses carry a trace_id")
    check(any(status == 200 for status, _, _ in beta),
          "at least one beta request served through its single slot")
    check(all(status in (200, 429) for status, _, _ in beta),
          "beta saw only 200s or clean sheds")

    print("2. thundering herd (8 identical never-seen queries, 1 evaluation)")
    herd_query = (
        "SELECT ?x ?y WHERE { ?x recorded_by ?y "
        'OPTIONAL { ?x NME_rating "herd-%d-%d" } }'
        % (os.getpid(), time.time_ns())
    )
    before = scrape(base, "alpha")
    herd = fan_out(base, [("/query", {"query": herd_query}, "alpha-key")] * 8)
    after = scrape(base, "alpha")

    def rose(name):
        return after.get(name, 0.0) - before.get(name, 0.0)

    check(all(status == 200 for status, _, _ in herd),
          "all 8 herd requests served (got %s)"
          % [status for status, _, _ in herd])
    check(rose("repro_service_cache_misses") == 1,
          "the herd cost exactly one evaluation (cache misses +%g)"
          % rose("repro_service_cache_misses"))
    shared = rose("repro_service_coalesced") + rose("repro_service_cache_hits")
    check(shared == 7,
          "the other 7 rode the flight or hit its cached result "
          "(coalesced +%g, cache hits +%g)"
          % (rose("repro_service_coalesced"), rose("repro_service_cache_hits")))
    per_request = ("wall_ms", "trace_id", "coalesced", "resources")
    bodies = {
        json.dumps({k: v for k, v in body.items() if k not in per_request},
                   sort_keys=True)
        for _, body, _ in herd
    }
    check(len(bodies) == 1, "all 8 herd bodies carry the same answers")
    # The herd's answers are cached now: 8 more identical requests are
    # 8 hits answered on the event loop, and a hit never flies, so none
    # of them rides another.
    before = scrape(base, "alpha")
    repeat = fan_out(base, [("/query", {"query": herd_query}, "alpha-key")] * 8)
    after = scrape(base, "alpha")
    check(all(status == 200 for status, _, _ in repeat),
          "all 8 repeat requests served (got %s)"
          % [status for status, _, _ in repeat])
    check(rose("repro_service_cache_hits") == 8
          and rose("repro_service_cache_misses") == 0
          and rose("repro_service_coalesced") == 0,
          "the 8 repeats were 8 cache hits, no miss, none coalesced "
          "(hits +%g, misses +%g, coalesced +%g)"
          % (rose("repro_service_cache_hits"),
             rose("repro_service_cache_misses"),
             rose("repro_service_coalesced")))

    print("3. over-budget query (beta's hard intermediate-rows limit)")
    status, body, headers = request(
        base, "/query", {"query": WIDE_QUERY}, key="beta-key"
    )
    check(status == 429, "over-budget query answered 429 (got %d)" % status)
    check("budget" in body.get("error", ""),
          "429 body names the budget: %r" % body.get("error"))
    check("Retry-After" in headers, "budget 429 carries Retry-After")

    print("4. load shedding (30 concurrent clients vs. beta's 1 slot)")
    # A cached query is answered on the event loop and holds its slot
    # across no await, so a storm of one cached query is served whole...
    shed_before = request(base, "/healthz")[1]["service"]["admission"]["shed_total"]
    cached = fan_out(
        base, [("/query", {"query": SMALL_QUERY}, "beta-key")] * 30
    )
    shed_after = request(base, "/healthz")[1]["service"]["admission"]["shed_total"]
    check(all(status == 200 for status, _, _ in cached)
          and shed_after == shed_before,
          "a storm of a cached query is served whole (got %s, shed +%d)"
          % (sorted({status for status, _, _ in cached}),
             shed_after - shed_before))
    # ...while evaluations hold it on the executor: a storm of distinct
    # never-seen queries overruns the single slot.
    storm = fan_out(base, [
        ("/query",
         {"query": 'SELECT ?x WHERE { ?x recorded_by "storm-%d-%d-%d" }'
                   % (os.getpid(), time.time_ns(), i)},
         "beta-key")
        for i in range(30)
    ])
    shed = [
        (status, body, headers)
        for status, body, headers in storm
        if status == 429 and body.get("scope")
    ]
    served = [status for status, _, _ in storm if status == 200]
    check(len(shed) >= 1,
          "at least one request shed (%d shed, %d served)"
          % (len(shed), len(served)))
    check(all("Retry-After" in headers for _, _, headers in shed),
          "every shed response carries Retry-After")
    check(all(body["scope"] in ("tenant", "global") for _, body, _ in shed),
          "shed responses name the saturated scope")

    print("5. decisions on the probe route (/ask, never-seen candidates)")
    # Tracks 11-32 have no rating, so {?x, ?y} of one of them is an answer
    # (the OPTIONAL unmatched) and the same track by Caribou is not; the
    # pid picks the track, so a rerun against one server asks anew.
    track = 11 + os.getpid() % 22
    probes = 'repro_planner_engine_selected{engine="probe"}'
    before = scrape_series(base, probes)
    verdicts = [
        request(base, "/ask", {"query": OPT_QUERY, "candidate": candidate},
                key="alpha-key")
        for candidate in (
            {"?x": "track%d" % track, "?y": "artist%d" % track},
            {"?x": "track%d" % track, "?y": "Caribou"},
        )
    ]
    rose = scrape_series(base, probes) - before
    check([status for status, _, _ in verdicts] == [200, 200],
          "both /ask requests served (got %s)"
          % [status for status, _, _ in verdicts])
    check([body.get("answer") for _, body, _ in verdicts] == [True, False],
          "the answer is an answer and the other is not (got %s)"
          % [body.get("answer") for _, body, _ in verdicts])
    check(rose >= 2,
          "their checks were existence probes (probe selections +%g)" % rose)

    print("6. the story is visible in /metrics and /healthz")
    with urllib.request.urlopen(base + "/metrics", timeout=30) as resp:
        metrics = resp.read().decode("utf-8")
    check('repro_service_admitted{tenant="alpha"}' in metrics,
          "per-tenant admitted counter exported")
    check('repro_service_shed{scope="tenant",tenant="beta"}' in metrics
          or 'repro_service_shed{scope="global",tenant="beta"}' in metrics,
          "per-tenant shed counter exported")
    check('repro_service_cache_misses{tenant="alpha"}' in metrics,
          "per-tenant cache series exported")
    status, health, _ = request(base, "/healthz")
    admission = health["service"]["admission"]
    check(admission["admitted_total"] >= 8,
          "healthz admitted_total >= 8 (got %d)" % admission["admitted_total"])
    check(admission["shed_total"] >= 1,
          "healthz shed_total >= 1 (got %d)" % admission["shed_total"])
    # Steps 1-4 ran concurrent evaluations on the executor threads and a
    # budget-killed query: every collector pause they took is released.
    check(health["runtime"]["gc_enabled"] is True,
          "healthz runtime.gc_enabled is true (got %r)"
          % health["runtime"]["gc_enabled"])
    status, tenants, _ = request(base, "/tenants")
    check("alpha-key" not in json.dumps(tenants),
          "/tenants never exposes raw API keys")

    print("7. a slow client dribbles a cached query past 8 fast ones")
    fast = request(base, "/query", {"query": OPT_QUERY}, key="alpha-key")
    body = json.dumps({"query": OPT_QUERY}).encode("utf-8")
    host, _, port = base.split("//", 1)[1].partition(":")
    data = (
        "POST /query HTTP/1.1\r\nHost: %s\r\nX-Api-Key: alpha-key\r\n"
        "Content-Type: application/json\r\nContent-Length: %d\r\n\r\n"
        % (host, len(body))
    ).encode("latin-1") + body
    cuts = [0, 9, len(data) - len(body) - 2, len(data) - 7, len(data)]
    before = scrape(base, "alpha")
    with socket.create_connection((host, int(port)), timeout=30) as slow:
        slow.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for start, end in zip(cuts[:-2], cuts[1:-1]):
            slow.sendall(data[start:end])
            time.sleep(0.05)
        others = fan_out(
            base, [("/query", {"query": OPT_QUERY}, "alpha-key")] * 8
        )
        slow.setblocking(False)
        try:
            early = slow.recv(1)
        except BlockingIOError:
            early = None
        slow.setblocking(True)
        slow.sendall(data[cuts[-2]:])
        reply = b""
        while True:
            chunk = slow.recv(65536)
            if not chunk:
                break
            reply += chunk
    after = scrape(base, "alpha")

    def rose(name):
        return after.get(name, 0.0) - before.get(name, 0.0)

    check(all(status == 200 for status, _, _ in others) and early is None,
          "all 8 fast requests answered before the slow one (got %s, slow "
          "answered early: %s)"
          % ([status for status, _, _ in others], early is not None))
    head, _, payload = reply.partition(b"\r\n\r\n")
    slow_status = int(head.split()[1]) if head else 0
    per_request = ("wall_ms", "trace_id", "resources")
    same = slow_status == 200 and (
        {k: v for k, v in json.loads(payload).items() if k not in per_request}
        == {k: v for k, v in fast[1].items() if k not in per_request}
    )
    check(same, "the slow client got the fast client's 200 body (status %d)"
          % slow_status)
    check(rose("repro_service_cache_hits") == 9
          and rose("repro_service_cache_misses") == 0,
          "the 8 fast and the slow request were 9 cache hits, no miss "
          "(hits +%g, misses +%g)"
          % (rose("repro_service_cache_hits"),
             rose("repro_service_cache_misses")))

    print("8. a slow reader of the wide answer, and a reset mid-body")
    fast = request(base, "/query", {"query": WIDE_QUERY}, key="alpha-key")
    body = json.dumps({"query": WIDE_QUERY}).encode("utf-8")
    head = (
        "POST /query HTTP/1.1\r\nHost: %s\r\nX-Api-Key: alpha-key\r\n"
        "Content-Type: application/json\r\nContent-Length: %d\r\n\r\n"
        % (host, len(body))
    ).encode("latin-1")
    with socket.socket() as slow:
        slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        slow.settimeout(30)
        slow.connect((host, int(port)))
        slow.sendall(head + body)
        time.sleep(0.2)
        reply = b""
        while True:
            chunk = slow.recv(512)
            if not chunk:
                break
            reply += chunk
    head_line, _, payload = reply.partition(b"\r\n\r\n")
    slow_status = int(head_line.split()[1]) if head_line else 0
    same = fast[0] == slow_status == 200 and (
        {k: v for k, v in json.loads(payload).items() if k not in per_request}
        == {k: v for k, v in fast[1].items() if k not in per_request}
    )
    check(same, "the slow reader got the fast client's 200 body of %d bytes "
          "(status %d)" % (len(payload), slow_status))
    with socket.create_connection((host, int(port)), timeout=30) as reset:
        reset.sendall(head + body[:len(body) // 2])
        time.sleep(0.05)
        reset.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                         struct.pack("ii", 1, 0))
    status, health, _ = request(base, "/healthz")
    check(status == 200 and health.get("status") == "ok",
          "/healthz answers after a reset mid-body (status %d)" % status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
