#!/usr/bin/env python
"""Smoke-test a running `repro serve` instance with mixed tenant traffic.

Usage::

    python scripts/service_smoke.py http://127.0.0.1:9311

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
3. sends one over-budget query as beta and checks the ``429`` budget
   response;
4. storms beta's single-slot tier with concurrent clients and checks
   that at least one request was shed with ``429`` + ``Retry-After``;
5. asserts the whole story is visible in ``/metrics`` and ``/healthz``
   (per-tenant admitted/shed counters, cache series).

Exits 0 when every check passes, 1 otherwise.  Network access is only to
the given base URL — this is an offline CI check.
"""

import json
import os
import re
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
    """Run the (path, payload, key) triples concurrently."""
    results = [None] * len(spec)

    def fire(i, path, payload, key):
        results[i] = request(base, path, payload, key=key)

    threads = [
        threading.Thread(target=fire, args=(i,) + entry)
        for i, entry in enumerate(spec)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
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


def main(argv):
    if len(argv) != 1:
        print(__doc__)
        return 1
    base = argv[0].rstrip("/")

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

    print("3. over-budget query (beta's hard intermediate-rows limit)")
    status, body, headers = request(
        base, "/query", {"query": WIDE_QUERY}, key="beta-key"
    )
    check(status == 429, "over-budget query answered 429 (got %d)" % status)
    check("budget" in body.get("error", ""),
          "429 body names the budget: %r" % body.get("error"))
    check("Retry-After" in headers, "budget 429 carries Retry-After")

    print("4. load shedding (30 concurrent clients vs. beta's 1 slot)")
    storm = fan_out(
        base, [("/query", {"query": SMALL_QUERY}, "beta-key")] * 30
    )
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

    print("5. the story is visible in /metrics and /healthz")
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
    status, tenants, _ = request(base, "/tenants")
    check("alpha-key" not in json.dumps(tenants),
          "/tenants never exposes raw API keys")

    if FAILURES:
        print("\n%d check(s) failed" % len(FAILURES))
        return 1
    print("\nservice smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
