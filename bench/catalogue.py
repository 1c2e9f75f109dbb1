"""The benchmark's declared names: workloads, end-to-end metrics, per-layer
metrics.  ``BENCHMARK.json`` and the tables of ``README.md`` are generated
from here (``python3 bench/catalogue.py --manifest`` / ``--markdown``), so
the three cannot drift apart.

A per-layer metric is *measured* by the workloads listed in its row; the
driver's contract wants every per-layer name on every traced run, so the
other workloads print it as 0 — "this workload does not go through that
measurement", which for a bypassed layer is also the true amount of work.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, NamedTuple, Tuple

RUN_SECONDS = 8

SERVE = ("serve_hot", "serve_cold")
EVERY = SERVE + ("eval_opt", "eval_join", "decide", "static", "rw_sqlite")
#: Every workload that has a database (all but ``static``): these read the
#: kernel numbers off their spans.
DATA = tuple(w for w in EVERY if w != "static")
#: The workloads that evaluate whole WDPTs (``decide`` never materialises
#: an answer set): these also run the evaluation probes.
EVALUATED = tuple(w for w in DATA if w != "decide")

#: name -> one-line reason the workload exists (BENCHMARK.json ``why``).
WORKLOADS: Dict[str, str] = {
    "serve_hot": "repro serve over a socket, 17-query pool below the cache size: "
                 "every request is a result-cache hit, so the service edge does all the work",
    "serve_cold": "same server, every query text unique: parse, plan and evaluation "
                  "dominate and every cache is bypassed (the control for cache and edge work)",
    "eval_opt": "in-process OPT-heavy WDPTs: hundreds of root matches extended "
                "mapping by mapping, so wdpt.evaluation dominates and each kernel call is tiny",
    "eval_join": "in-process join-heavy CQs: scan, semijoin, join and to_mappings dominate "
                 "and the OPT extension is negligible (mirror image of eval_opt)",
    "decide": "Thm 6/8/9 decision procedures (ask, is_partial, is_maximal) on 29k facts: "
              "sub-millisecond ops where routing and match fixed costs dominate",
    "static": "no database: subsumption, approximation, phi_cq and width analysis "
              "(Sections 4-6); bypasses storage, kernels and service entirely",
    "rw_sqlite": "on-disk SQLite session, result cache on, 95% reads from 8 queries and "
                 "5% writes: every write invalidates the cache, so miss cost and write cost show",
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("throughput_ops_s", "ops/s", "higher", 0.25,
             "correct operations completed / time the closed-loop clients spent "
             "in operations, at nominal speed"),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.25,
             "median per-operation latency on the caller's clock, at nominal speed"),
    EndToEnd("latency_p95_ms", "ms", "lower", 0.25,
             "95th percentile per-operation latency (>= 10 samples beyond it), "
             "at nominal speed"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "data generation + backend load + server start to first /healthz 200 "
             "+ warm-up, at nominal speed; median of 3 set-ups per run"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "max RSS of the process under test (the repro serve child for "
             "serve_*, the benchmark process otherwise)"),
)


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    workloads: Tuple[str, ...]
    how: str
    moves: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


_L = Layer
PER_LAYER: Tuple[Layer, ...] = (
    # -- service edge ------------------------------------------------------
    _L("service.edge_ms_p50", "ms", "lower", SERVE,
       "client latency - response wall_ms (accept, HTTP read, encode, write)",
       "latency_p50_ms on serve_hot"),
    _L("service.edge_ms_p95", "ms", "lower", SERVE,
       "95th percentile of the same difference",
       "latency_p95_ms on serve_hot"),
    _L("service.wait_ms_p50", "ms", "lower", SERVE,
       "response wall_ms - resources.wall_seconds (body parse, admission, "
       "coalescing window, executor hand-off)",
       "latency_p50_ms on serve_hot and serve_cold"),
    _L("service.eval_ms_p50", "ms", "lower", SERVE,
       "response resources.wall_seconds",
       "latency_p50_ms on serve_cold; ~0 on serve_hot"),
    _L("service.protocol_parse_us", "us", "lower", SERVE,
       "mean QueryRequest.from_body on the run's own request bodies",
       "latency_p50_ms on serve_*"),
    _L("service.encode_us_per_row", "us", "lower", SERVE,
       "encode_result + json.dumps time / answer rows, in-process replay",
       "latency_p95_ms on serve_hot"),
    _L("service.response_bytes_per_op", "B", "lower", SERVE,
       "mean response body size", "latency_p95_ms on serve_hot"),
    _L("service.cache_hit_rate", "ratio", "higher", SERVE,
       "/metrics scrape after the run: cache hits / (hits + misses)",
       "throughput_ops_s on serve_hot; 0 on serve_cold"),
    _L("service.coalesced_ratio", "ratio", "higher", SERVE,
       "/metrics scrape: coalesced requests / requests",
       "throughput_ops_s on serve_hot"),
    _L("service.admitted", "count", "higher", SERVE,
       "/metrics scrape: admitted requests", "error rate on serve_*"),
    _L("service.shed", "count", "lower", SERVE,
       "/metrics scrape: requests shed with 429", "error rate on serve_*"),
    _L("service.queue_wait_ms_p50", "ms", "lower", SERVE,
       "/metrics scrape: median admission queue wait",
       "latency_p50_ms on serve_*"),
    _L("serialize.mapping_to_json_us_per_row", "us", "lower", SERVE,
       "mean serialize.mapping_to_json call, in-process replay",
       "latency_p95_ms on serve_hot"),
    # -- parse and plan ----------------------------------------------------
    _L("rdf.parse_us", "us", "lower", SERVE,
       "mean parse of a never-seen query text (parse-cache miss)",
       "latency_p50_ms on serve_cold"),
    _L("planner.profile_us_cold", "us", "lower", EVERY,
       "Planner().profile_wdpt on a fresh planner, mean over the workload's queries",
       "latency_p50_ms on serve_cold; throughput on decide and static"),
    _L("planner.plan_us_cold", "us", "lower", DATA,
       "Planner().plan_cq of the root CQ on a fresh planner",
       "latency_p50_ms on serve_cold"),
    _L("planner.plan_cache_hit_rate", "ratio", "higher", DATA,
       "Planner.stats() after the traced replay", "latency_p50_ms on serve_cold"),
    _L("planner.parse_cache_hit_rate", "ratio", "higher", DATA,
       "Planner.stats() after the traced replay", "latency_p50_ms on serve_cold"),
    _L("planner.analysis_s", "s", "lower", EVERY,
       "Planner.stats()['analysis_seconds'] accumulated over the traced replay",
       "throughput_ops_s on static and decide"),
    # -- engine ------------------------------------------------------------
    _L("engine.session_overhead_us", "us", "lower", EVALUATED,
       "Session.query time - wdpt.evaluation.evaluate time on the same query",
       "latency_p50_ms on eval_opt"),
    _L("engine.cache_hit_us", "us", "lower", EVALUATED,
       "Session.query on a key already in the result cache",
       "latency_p50_ms on serve_hot and rw_sqlite"),
    # -- WDPT algorithms ---------------------------------------------------
    _L("wdpt.evaluate_ms", "ms", "lower", EVALUATED,
       "evaluate(p, db, profile), mean over the workload's distinct queries",
       "throughput_ops_s on eval_opt"),
    _L("wdpt.root_cq_ms", "ms", "lower", EVALUATED,
       "the root CQ alone through Planner.evaluate_cq",
       "throughput_ops_s on eval_join"),
    _L("wdpt.extension_share", "ratio", "lower", EVALUATED,
       "1 - root_cq_ms / evaluate_ms",
       "predicts which of eval_opt / eval_join a kernel change can move"),
    _L("wdpt.node_cq_calls", "count", "lower", DATA,
       "evaluate_with_join_tree calls per traced op (exact count)",
       "throughput_ops_s on eval_opt"),
    _L("wdpt.us_per_answer", "us", "lower", EVALUATED,
       "evaluate time / answers returned", "throughput_ops_s on eval_opt"),
    _L("wdpt.eval_tractable_us", "us", "lower", ("decide",),
       "mean eval_tractable call (Thm 6)", "throughput_ops_s on decide"),
    _L("wdpt.partial_eval_us", "us", "lower", ("decide",),
       "mean partial_eval call (Thm 8)", "throughput_ops_s on decide"),
    _L("wdpt.max_eval_us", "us", "lower", ("decide",),
       "mean max_eval call (Thm 9)", "throughput_ops_s on decide"),
    _L("wdpt.subsumption_ms", "ms", "lower", ("static",),
       "mean is_subsumed_by call", "throughput_ops_s on static"),
    _L("wdpt.approximation_ms", "ms", "lower", ("static",),
       "mean wb_approximation / is_in_m_wb call", "throughput_ops_s on static"),
    _L("wdpt.phi_cq_ms", "ms", "lower", ("static",),
       "mean phi_cq call", "throughput_ops_s on static"),
    # -- CQ kernels --------------------------------------------------------
    _L("cqalgs.yannakakis_ms", "ms", "lower", DATA,
       "inclusive ms in evaluate_with_join_tree per traced op",
       "throughput_ops_s on eval_join and rw_sqlite"),
    _L("cqalgs.scan_ms", "ms", "lower", DATA,
       "inclusive ms in the repo's yannakakis.scan spans per traced op",
       "throughput_ops_s on eval_join"),
    _L("cqalgs.semijoin_up_ms", "ms", "lower", DATA,
       "inclusive ms in yannakakis.semijoin_up spans per traced op",
       "throughput_ops_s on eval_join"),
    _L("cqalgs.semijoin_down_ms", "ms", "lower", DATA,
       "inclusive ms in yannakakis.semijoin_down spans per traced op",
       "throughput_ops_s on eval_join"),
    _L("cqalgs.join_ms", "ms", "lower", DATA,
       "inclusive ms in yannakakis.join spans per traced op",
       "throughput_ops_s on eval_join"),
    _L("cqalgs.satisfiable_us", "us", "lower", ("decide",),
       "mean satisfiable_with_join_tree call", "throughput_ops_s on decide"),
    _L("cqalgs.peak_intermediate_rows", "count", "lower", EVALUATED,
       "max ResourceUsage.peak_intermediate_rows over the workload's queries",
       "peak_rss_mb on eval_join"),
    _L("relalg.scan_us_per_row", "us", "lower", DATA,
       "time in relalg.scan / rows it returned", "throughput_ops_s on eval_join"),
    _L("relalg.semijoin_ms", "ms", "lower", DATA,
       "inclusive ms in relalg.semijoin per traced op", "throughput_ops_s on eval_join"),
    _L("relalg.hash_join_ms", "ms", "lower", DATA,
       "inclusive ms in relalg.hash_join per traced op", "throughput_ops_s on eval_join"),
    _L("relalg.project_dedup_ms", "ms", "lower", DATA,
       "inclusive ms in relalg.project per traced op", "throughput_ops_s on eval_join"),
    _L("relalg.to_mappings_us_per_row", "us", "lower", DATA,
       "time in relalg.to_mappings / mappings it built",
       "throughput_ops_s on eval_join and eval_opt"),
    _L("relalg.from_mappings_us_per_row", "us", "lower", EVALUATED,
       "from_mappings on the root CQ's answers (no caller in src; probed directly)",
       "none today"),
    # -- storage -----------------------------------------------------------
    _L("storage.load_s", "s", "lower", DATA,
       "backend load inside the last set-up (TSV parse + insert for serve_*)",
       "setup_s"),
    _L("storage.match_us", "us", "lower", DATA,
       "mean list(db.match(pattern)) over patterns of the workload's queries",
       "throughput_ops_s on decide"),
    _L("storage.write_us_p50", "us", "lower", ("rw_sqlite",),
       "median Session.add_triples / remove latency",
       "latency_p95_ms on rw_sqlite"),
    _L("storage.version_bumps", "count", "lower", ("rw_sqlite",),
       "data_version delta over the traced replay (exact count)",
       "throughput_ops_s on rw_sqlite"),
    _L("storage.cache_hit_rate", "ratio", "higher", ("rw_sqlite",),
       "ResultCache.stats() after the traced replay (exact ratio of counts)",
       "throughput_ops_s on rw_sqlite"),
    _L("storage.cache_evictions", "count", "lower", ("rw_sqlite",),
       "ResultCache.stats()['evictions']", "peak_rss_mb on rw_sqlite"),
    _L("storage.file_bytes_per_fact", "B", "lower", ("rw_sqlite",),
       "SQLite file size / facts stored", "setup_s on rw_sqlite"),
    # -- structure ---------------------------------------------------------
    _L("hypergraphs.treewidth_ms", "ms", "lower", ("static",),
       "mean treewidth_exact call", "throughput_ops_s on static"),
    _L("hypergraphs.gyo_us", "us", "lower", EVERY,
       "mean join_tree_of_atoms call (GYO)", "latency_p50_ms on serve_cold"),
    # -- the cost of looking, and the generator's own counters -------------
    _L("telemetry.trace_overhead_pct", "%", "lower", EVERY,
       "(untraced - traced throughput) / untraced on the replayed third",
       "none: it is the cost of looking"),
    _L("client.latency_p99_ms", "ms", "lower", EVERY,
       "99th percentile latency of the replayed third (did not repeat within "
       "a tenth between runs, so it is not end-to-end)", "diagnostic"),
    _L("client.connect_us", "us", "lower", SERVE,
       "median TCP connect time (one connection per request)", "diagnostic"),
    _L("client.ops", "count", "higher", EVERY,
       "operations in the replayed third (exact count)", "diagnostic"),
    # -- uniform ledger: self time per layer, every workload ----------------
    _L("trace.op_ms", "ms", "lower", EVERY,
       "mean duration of one traced operation (in-process replay for serve_*)",
       "the ledger's total"),
    _L("trace.attributed_share", "ratio", "higher", EVERY,
       "sum of the named layers' self time / traced operation time",
       "how much of an op the ledger explains"),
) + tuple(
    _L("layer.%s.self_ms_per_op" % layer, "ms", "lower", EVERY,
       "self time of all %s spans per traced op (duration minus children)" % layer,
       "the layer's share of the blocking path")
    for layer in (
        "service", "serialize", "rdf", "planner", "engine", "wdpt", "cqalgs",
        "relalg", "storage", "hypergraphs",
    )
)

LEDGER_LAYERS = tuple(
    m.name.split(".")[1] for m in PER_LAYER if m.name.startswith("layer.")
)


def manifest() -> Dict[str, object]:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def markdown() -> str:
    """The metric tables of ``README.md``."""
    lines: List[str] = [
        "| end-to-end metric | unit | better | bound | meaning |",
        "|---|---|---|---|---|",
    ]
    for m in END_TO_END:
        lines.append("| `%s` | %s | %s | %d %% | %s |" % (
            m.name, m.unit, m.better, round(m.bound * 100), m.meaning))
    lines += [
        "",
        "| per-layer metric | unit | layer | measured in | how | predicted end-to-end effect |",
        "|---|---|---|---|---|---|",
    ]
    for p in PER_LAYER:
        where = "all" if p.workloads == EVERY else ", ".join(p.workloads)
        lines.append("| `%s` | %s | %s | %s | %s | %s |" % (
            p.name, p.unit, p.layer, where, p.how, p.moves))
    return "\n".join(lines)


if __name__ == "__main__":
    if sys.argv[1:] == ["--manifest"]:
        print(json.dumps(manifest(), indent=2))
    elif sys.argv[1:] == ["--markdown"]:
        print(markdown())
    else:
        sys.exit("usage: catalogue.py --manifest | --markdown")
