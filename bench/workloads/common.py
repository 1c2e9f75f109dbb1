"""Shared query builders, op-list shaping, oracles and probes."""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from repro.core.atoms import atom
from repro.core.cq import ConjunctiveQuery
from repro.core.mappings import maximal_mappings
from repro.engine import Session
from repro.planner.planner import Planner
from repro.relalg.relation import from_mappings
from repro.wdpt.evaluation import evaluate, evaluate_reference
from repro.wdpt.wdpt import WDPT, wdpt_from_nested
from repro.workloads.families import FIGURE1_QUERY_TEXT

from ..harness import Op, median

#: The unselective Figure 1 query (every record of the catalogue).
WIDE_QUERY = "SELECT ?x ?y ?z ?z2 WHERE " + FIGURE1_QUERY_TEXT


def company_wdpt(frees: Sequence[str], office: bool = True) -> WDPT:
    """The 4-node company WDPT of ``benchharness.regress`` (``office=False``
    drops the grandchild: the 3-node shape variant)."""
    manager_children = [([atom("office", "?m", "?o")], [])] if office else []
    return wdpt_from_nested(
        (
            [atom("works_in", "?e", "?d")],
            [
                ([atom("phone", "?e", "?p")], []),
                ([atom("reports_to", "?e", "?m")], manager_children),
            ],
        ),
        free_variables=list(frees),
    )


def band_query(band: int, formed_band: int, era: str = "after_2010") -> str:
    """A selective Figure-1-shaped query: one band's records of one era,
    optionally rated, plus the founding year of ``formed_band``."""
    return (
        'SELECT ?x ?z ?z2 WHERE { ?x recorded_by band_%d . ?x published "%s" '
        "OPTIONAL { ?x NME_rating ?z } OPTIONAL { band_%d formed_in ?z2 } }"
        % (band, era, formed_band)
    )


def shuffled_mix(rng: random.Random, kinds: Sequence[Any], n: int) -> List[Any]:
    """``n`` items cycling through ``kinds`` in seeded order: every seed
    gets the same count of each kind, so the work does not depend on it."""
    out = [kinds[i % len(kinds)] for i in range(n)]
    rng.shuffle(out)
    return out


def split(ops: List[Op], clients: int) -> List[List[Op]]:
    return [ops[k::clients] for k in range(clients)]


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------
def reference_mismatches(
    label: str, session: Session, queries: Iterable[Tuple[str, Any, bool]]
) -> List[str]:
    """Small-scale oracle: ``Session`` answers against the literal
    Definition 2 evaluator.  ``queries`` holds ``(id, query, maximal)``."""
    problems = []
    for qid, query, maximal in queries:
        p = session.parse(query)
        expected = evaluate_reference(p, session.database)
        if maximal:
            expected = maximal_mappings(expected)
            got = session.query_maximal(query).answers
        else:
            got = session.query(query).answers
        if got != expected:
            problems.append(
                "%s: %s disagrees with evaluate_reference at small scale" % (label, qid)
            )
    return problems


def run_query(session: Session, query: Any, maximal: bool):
    return session.query_maximal(query) if maximal else session.query(query)


# ---------------------------------------------------------------------------
# Probes shared by the workloads that evaluate WDPTs
# ---------------------------------------------------------------------------
def timed(fn: Callable[[], Any], repeats: int = 3) -> Tuple[float, Any]:
    """Median seconds of ``repeats`` calls, and the last result."""
    samples = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    return median(samples), result


def root_cq(p: WDPT) -> ConjunctiveQuery:
    """The root label as a full CQ (what the evaluator matches first)."""
    atoms = sorted(p.labels[0])
    variables = sorted({v for a in atoms for v in a.variables()})
    return ConjunctiveQuery(variables, atoms)


def structure_probes(items: Sequence[Tuple[Session, Any, int]]) -> Dict[str, float]:
    """Cold planning cost and ``match`` cost of the workload's queries
    (no evaluation, so it is cheap on a large database)."""
    total = float(sum(weight for _, _, weight in items))
    profile = plan = match = 0.0
    patterns = 0
    for session, query, weight in items:
        db = session.database
        p = session.parse(query)
        root = root_cq(p)
        profile += timed(lambda: Planner().profile_wdpt(p))[0] * weight / total
        plan += timed(lambda: Planner().plan_cq(root, db))[0] * weight / total
        for pattern in sorted(p.labels[0]):
            match += timed(lambda: list(db.match(pattern)))[0]
            patterns += 1
    return {
        "planner.profile_us_cold": profile * 1e6,
        "planner.plan_us_cold": plan * 1e6,
        "storage.match_us": match * 1e6 / max(1, patterns),
    }


def evaluation_probes(
    items: Sequence[Tuple[Session, Any, int]],
    plain: Sequence[Tuple[float, int, int]] = (),
) -> Dict[str, float]:
    """The ``wdpt.*`` / ``engine.*`` / ``planner.*_cold`` numbers of the
    workload's distinct queries.  ``items`` holds ``(session, WDPT query,
    weight)``; means are weighted by how often each query occurs in the op
    list.  ``plain`` holds ``(seconds, answers, weight)`` of the op kinds
    that are a bare CQ: all root, no extension."""
    total = float(sum(weight for _, _, weight in items))
    total += sum(weight for _, _, weight in plain)
    acc = {k: 0.0 for k in (
        "evaluate", "root", "session", "hit", "answers", "peak_rows",
        "from_rows", "from_seconds",
    )}
    for session, query, weight in items:
        db = session.database
        # Cheap views of the same backend and planner, one per concern.
        uncached = Session(db, planner=session.planner, cache=False)
        cached = Session(db, planner=session.planner, cache=True)
        tracked = Session(db, planner=session.planner, cache=False, track_resources=True)
        share = weight / total
        p = session.parse(query)
        profile = session.planner.profile_wdpt(p)
        root = root_cq(p)
        seconds, answers = timed(lambda: evaluate(p, db, profile))
        acc["evaluate"] += seconds * share
        acc["answers"] += len(answers) * share
        root_seconds, root_answers = timed(lambda: session.planner.evaluate_cq(root, db))
        acc["root"] += root_seconds * share
        acc["session"] += timed(lambda: uncached.query(query))[0] * share
        cached.query(query)
        acc["hit"] += timed(lambda: cached.query(query), 9)[0] * share
        acc["peak_rows"] = max(
            acc["peak_rows"], tracked.query(query).resources.peak_intermediate_rows
        )
        schema = sorted(root.variables(), key=repr)
        acc["from_seconds"] += timed(lambda: from_mappings(root_answers, schema))[0]
        acc["from_rows"] += len(root_answers)
    for seconds, answers, weight in plain:
        acc["evaluate"] += seconds * weight / total
        acc["root"] += seconds * weight / total
        acc["answers"] += answers * weight / total
    evaluate_s = acc["evaluate"]
    out = structure_probes(items)
    out.update({
        "wdpt.evaluate_ms": evaluate_s * 1000.0,
        "wdpt.root_cq_ms": acc["root"] * 1000.0,
        "wdpt.extension_share": max(0.0, 1.0 - acc["root"] / evaluate_s),
        "wdpt.us_per_answer": evaluate_s * 1e6 / max(1.0, acc["answers"]),
        "engine.session_overhead_us": max(0.0, acc["session"] - evaluate_s) * 1e6,
        "engine.cache_hit_us": acc["hit"] * 1e6,
        "cqalgs.peak_intermediate_rows": acc["peak_rows"],
        "relalg.from_mappings_us_per_row":
            acc["from_seconds"] * 1e6 / max(1.0, acc["from_rows"]),
    })
    return out


def span_probes(replay: Any) -> Dict[str, float]:
    """The ``cqalgs.*`` / ``relalg.*`` numbers read off the replay's spans."""
    agg = replay.aggregate
    return {
        "wdpt.node_cq_calls":
            agg.count.get("cqalgs.evaluate_with_join_tree", 0) / max(1, agg.ops),
        "cqalgs.yannakakis_ms": agg.total_ms_per_op("cqalgs.evaluate_with_join_tree"),
        "cqalgs.scan_ms": agg.total_ms_per_op("yannakakis.scan"),
        "cqalgs.semijoin_up_ms": agg.total_ms_per_op("yannakakis.semijoin_up"),
        "cqalgs.semijoin_down_ms": agg.total_ms_per_op("yannakakis.semijoin_down"),
        "cqalgs.join_ms": agg.total_ms_per_op("yannakakis.join"),
        "relalg.scan_us_per_row": replay.us_per_row("relalg.scan"),
        "relalg.semijoin_ms": agg.total_ms_per_op("relalg.semijoin"),
        "relalg.hash_join_ms": agg.total_ms_per_op("relalg.hash_join"),
        "relalg.project_dedup_ms": agg.total_ms_per_op("relalg.project"),
        "relalg.to_mappings_us_per_row": replay.us_per_row("relalg.to_mappings"),
        "hypergraphs.gyo_us": replay.mean_us("hypergraphs.join_tree_of_atoms"),
    }


def planner_probes(planner: Planner) -> Dict[str, float]:
    stats = planner.stats()
    return {
        "planner.plan_cache_hit_rate": float(stats["plan_cache"]["hit_rate"]),
        "planner.parse_cache_hit_rate": float(stats["parse_cache"]["hit_rate"]),
        "planner.analysis_s": float(stats["analysis_seconds"]),
    }
