"""``serve_hot`` and ``serve_cold``: ``repro serve`` driven over real sockets.

One ``python -m repro serve <music.tsv>`` child (memory backend, the
default ``public`` gold tenant) and two closed-loop client threads, each
POSTing its seeded list of ``/query`` requests on a fresh connection per
request (the server answers ``Connection: close``).

* ``serve_hot`` draws 3:1 from a pool of 16 selective band queries and the
  unselective Figure 1 query.  The pool is far below the tier's
  ``cache_size`` of 256, so after warm-up every request is a result-cache
  hit: HTTP read, ``QueryRequest.from_body``, admission, the coalescing
  window, ``encode_result`` and the write are all the work there is.
* ``serve_cold`` makes every query text unique in the run (a distinct
  pair of band constants), so parse, plan and result caches all miss;
  one request in five asks for maximal answers.
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.engine import Session
from repro.service.protocol import QueryRequest, encode_answers, encode_result
from repro.telemetry.routes import json_response
from repro.workloads.datasets import music_catalog

from ..harness import Context, Op, Workload, digest, drive, percentile
from ..serverproc import ServeChild, parse_prometheus
from . import common

CLIENTS = 2
WARMUP_COLD = 24


class Serve(Workload):
    """What both workloads share: the child, the client, the oracle."""

    clients = CLIENTS

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.bands = ctx.scaled(400, 40)
        stem = os.path.join(ctx.out_dir, "%s_%d" % (self.name, os.getpid()))
        self.tsv_path = stem + ".tsv"
        self.log_path = stem + ".log"
        self.child: Optional[ServeChild] = None
        self.warmup: List[Op] = []
        #: (op, status, payload, connect seconds, elapsed seconds) per request.
        self.responses: List[Tuple[Op, int, bytes, float, float]] = []
        self.local: Optional[Session] = None

    def _graph(self, bands: Optional[int] = None):
        return music_catalog(bands or self.bands, 5, seed=self.ctx.seed)

    @staticmethod
    def _body(op: Op) -> bytes:
        _, text, maximal = op
        payload: Dict[str, Any] = {"query": text}
        if maximal:
            payload["maximal"] = True
        return json.dumps(payload).encode("utf-8")

    # -- lifecycle ---------------------------------------------------------
    def setup(self) -> None:
        with open(self.tsv_path, "w") as handle:
            for s, p, o in sorted(self._graph()):
                handle.write("%s %s %s\n" % (s, p, o))
        self.child = ServeChild(self.ctx.repo_root, self.tsv_path, self.log_path)
        self.child.start()
        for op in self.warmup:
            status, _, _ = self.child.request("POST", "/query", self._body(op))
            if status != 200:
                raise RuntimeError("warm-up request answered %d" % status)
        self.responses = []

    def teardown(self) -> None:
        child, self.child = self.child, None
        try:
            if child is not None:
                try:
                    child.stop()
                finally:
                    child.kill()  # no-op after a clean stop
        finally:
            for path in (self.tsv_path, self.log_path):
                try:
                    os.remove(path)
                except FileNotFoundError:
                    pass

    def rss_mb(self) -> float:
        return self.child.sample_rss()

    # -- the measured op ---------------------------------------------------
    def run_op(self, op: Op) -> Any:
        start = time.perf_counter()
        status, payload, connect = self.child.request("POST", "/query", self._body(op))
        return status, payload, connect, time.perf_counter() - start

    def check(self, op: Op, output: Any) -> bool:
        status, payload, connect, elapsed = output
        # list.append is atomic: both client threads may land here.
        self.responses.append((op, status, payload, connect, elapsed))
        return status == 200

    def verify(self) -> List[str]:
        """Every response against an in-process Session over the same
        data: operation, row count and the encoded answers."""
        problems: List[str] = []
        local = Session(self._graph(), cache=False)
        expected: Dict[Tuple[str, bool], Any] = {}
        wrong = 0
        for op, status, payload, _, _ in self.responses:
            if status != 200:
                continue  # already counted by check()
            _, text, maximal = op
            key = (text, maximal)
            if key not in expected:
                expected[key] = encode_answers(
                    common.run_query(local, text, maximal).answers
                )
            body = json.loads(payload)
            want = expected[key]
            if (
                body.get("op") != ("query_maximal" if maximal else "query")
                or body.get("rows") != len(want)
                or body.get("answers") != want
            ):
                wrong += 1
        if wrong:
            problems.append("%d responses disagree with the in-process Session" % wrong)
        self.facts["distinct_queries"] = len(expected)
        self.facts["answers_digest"] = digest(
            sorted((text, maximal, digest(rows)) for (text, maximal), rows in expected.items())
        )
        self.facts["triples"] = local.size
        small = Session(self._graph(4), cache=False)
        problems += common.reference_mismatches(self.name, small, [
            ("band", common.band_query(1, 2), False),
            ("band.maximal", common.band_query(2, 1, "before_2010"), True),
            ("wide", common.WIDE_QUERY, False),
        ])
        return problems

    # -- traced replay: the same requests through the pipeline in process ---
    def begin_replay(self) -> None:
        graph = self._graph()
        start = time.perf_counter()
        database = graph.to_database()
        self.load_s = time.perf_counter() - start
        # What ServiceServer builds per tenant (gold tier: cache_size 256).
        self.local = Session(database, cache_size=256, track_resources=True, tenant="public")
        for op in self.warmup:  # as setup() warmed the child
            self.replay_op(op)

    def replay_op(self, op: Op) -> Any:
        start = time.perf_counter()
        request = QueryRequest.from_body("query", self._body(op))
        result = common.run_query(self.local, request.query, request.op == "query_maximal")
        body = encode_result(request.op, "public", result, time.perf_counter() - start)
        return json_response(200, body).body

    def replay_check(self, op: Op, output: Any) -> bool:
        return bool(output)

    def _server_pass(self) -> Dict[str, float]:
        """The first third against the live child: the edge / wait / eval
        split of every response, and the /metrics deltas of the pass."""
        third = [ops[: max(1, len(ops) // 3)] for ops in self.op_lists]
        before = parse_prometheus(self.child.request("GET", "/metrics")[1].decode())
        self.responses = []
        loop = drive(third, self.run_op, self.check)
        after = parse_prometheus(self.child.request("GET", "/metrics")[1].decode())
        if loop.failed:
            raise RuntimeError("server pass: %s" % loop.messages[:3])

        def delta(name: str) -> float:
            return sum(
                value - before.get(key, 0.0)
                for key, value in after.items() if key.split("{")[0] == name
            )

        edge, wait, evaluate, sizes, connects = [], [], [], [], []
        for _, _, payload, connect, elapsed in self.responses:
            body = json.loads(payload)
            wall_ms = body["wall_ms"]
            eval_ms = body["resources"]["wall_seconds"] * 1000.0
            edge.append(elapsed * 1000.0 - wall_ms)
            wait.append(wall_ms - eval_ms)
            evaluate.append(eval_ms)
            sizes.append(len(payload))
            connects.append(connect)
        for values in (edge, wait, evaluate, connects):
            values.sort()
        requests = delta("repro_service_requests")
        lookups = delta("repro_service_cache_hits") + delta("repro_service_cache_misses")
        queue_wait = [
            value for key, value in after.items()
            if key.startswith("repro_service_queue_wait_seconds{") and 'quantile="0.5"' in key
        ]
        return {
            "service.edge_ms_p50": percentile(edge, 0.5),
            "service.edge_ms_p95": percentile(edge, 0.95),
            "service.wait_ms_p50": percentile(wait, 0.5),
            "service.eval_ms_p50": percentile(evaluate, 0.5),
            "service.response_bytes_per_op": sum(sizes) / len(sizes),
            "service.cache_hit_rate":
                delta("repro_service_cache_hits") / lookups if lookups else 0.0,
            "service.coalesced_ratio":
                delta("repro_service_coalesced") / requests if requests else 0.0,
            "service.admitted": delta("repro_service_admitted"),
            "service.shed": delta("repro_service_shed"),
            "service.queue_wait_ms_p50": (queue_wait[0] if queue_wait else 0.0) * 1000.0,
            "client.connect_us": percentile(connects, 0.5) * 1e6,
        }

    def probes(self, replay: Any) -> Dict[str, float]:
        out = self._server_pass()
        agg = replay.aggregate
        rows = agg.count.get("serialize.mapping_to_json", 0)
        encode = agg.total.get("service.encode_result", 0.0) + agg.total.get(
            "service.json_response", 0.0
        )
        out.update({
            "service.protocol_parse_us": replay.mean_us("service.from_body"),
            "service.encode_us_per_row": encode * 1e6 / rows if rows else 0.0,
            "serialize.mapping_to_json_us_per_row":
                replay.mean_us("serialize.mapping_to_json"),
            "rdf.parse_us": replay.mean_us("rdf.parse_sparql", "rdf.parse_query"),
            "storage.load_s": self.load_s,
        })
        out.update(common.span_probes(replay))
        out.update(common.planner_probes(self.local.planner))
        distinct: Dict[str, int] = {}
        for _, text, _ in replay.ops:
            distinct[text] = distinct.get(text, 0) + 1
        sample = sorted(distinct.items(), key=lambda kv: (-kv[1], kv[0]))[:8]
        out.update(common.evaluation_probes(
            [(self.local, text, weight) for text, weight in sample]
        ))
        return out


class ServeHot(Serve):
    name = "serve_hot"
    #: ~235 requests/s at nominal speed (2 cores, 2 clients).
    RATE = 190.0

    def prepare(self) -> None:
        rng = random.Random(self.ctx.seed)
        pool = [
            ("hot.band", common.band_query(b, b), False)
            for b in rng.sample(range(self.bands), 16)
        ]
        wide = ("hot.wide", common.WIDE_QUERY, False)
        # 3:1 selective to unselective, in seeded order; the same count of
        # each for every seed.
        n = self.ctx.n_ops(self.RATE, minimum=40)
        ops = [wide if i % 4 == 3 else pool[(i - i // 4) % len(pool)] for i in range(n)]
        rng.shuffle(ops)
        self.op_lists = common.split(ops, CLIENTS)
        self.warmup = pool + [wide]


class ServeCold(Serve):
    name = "serve_cold"
    #: ~185 requests/s at nominal speed (2 cores, 2 clients).
    RATE = 150.0

    def prepare(self) -> None:
        rng = random.Random(self.ctx.seed)
        n = self.ctx.n_ops(self.RATE, minimum=40)
        pairs = rng.sample(range(self.bands * self.bands), n + WARMUP_COLD)
        queries = [common.band_query(*divmod(pair, self.bands)) for pair in pairs]
        ops = [
            ("cold.maximal" if i % 5 == 4 else "cold.query", text, i % 5 == 4)
            for i, text in enumerate(queries[:n])
        ]
        self.op_lists = common.split(ops, CLIENTS)
        # Warm-up pays lazy imports and first-call paths with queries the
        # run never repeats, so it leaves no cache entry the run could hit.
        self.warmup = [("cold.query", text, i % 5 == 4)
                       for i, text in enumerate(queries[n:])]
