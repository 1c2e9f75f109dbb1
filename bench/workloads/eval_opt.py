"""``eval_opt``: OPT-heavy WDPT evaluation, in process.

Hundreds of root matches, each extended mapping by mapping through the
OPT children: ``wdpt.evaluation`` and the ``Relation``/``Mapping``
boundary do most of the work while every kernel call is tiny.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Tuple

from repro.engine import Session
from repro.planner.planner import Planner
from repro.workloads.datasets import company_directory, music_catalog

from ..harness import Context, Op, Workload, digest
from . import common

#: ~44 ops/s at nominal speed.
RATE = 35.0

#: (id, dataset, query builder, maximal?) — the distinct queries.
ALL = ("?e", "?d", "?p", "?m", "?o")


def _queries() -> List[Tuple[str, str, Any, bool]]:
    return [
        ("company.full", "company", common.company_wdpt(ALL), False),
        ("company.full.maximal", "company", common.company_wdpt(ALL), True),
        ("company.phone_only", "company", common.company_wdpt(("?e", "?p")), False),
        ("company.dept_office", "company", common.company_wdpt(("?e", "?d", "?o")), False),
        ("company.no_office", "company",
         common.company_wdpt(("?e", "?d", "?p", "?m"), office=False), False),
        ("music.figure1", "music", common.WIDE_QUERY, False),
        ("music.figure1.maximal", "music", common.WIDE_QUERY, True),
    ]


class EvalOpt(Workload):
    name = "eval_opt"

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.queries = {qid: (data, q, mx) for qid, data, q, mx in _queries()}
        self.sessions: Dict[str, Session] = {}
        self.departments = ctx.scaled(10, 2)
        self.bands = ctx.scaled(100, 8)

    def prepare(self) -> None:
        rng = random.Random(self.ctx.seed)
        kinds = sorted(self.queries)
        n = self.ctx.n_ops(RATE, minimum=len(kinds) * 4)
        self.op_lists = [[(k,) for k in common.shuffled_mix(rng, kinds, n)]]

    def _data(self, small: bool = False) -> Dict[str, Any]:
        seed = self.ctx.seed
        if small:
            return {"company": company_directory(2, 4, seed=seed),
                    "music": music_catalog(4, 2, seed=seed)}
        return {"company": company_directory(self.departments, 25, seed=seed),
                "music": music_catalog(self.bands, 5, seed=seed)}

    def setup(self) -> None:
        data = self._data()
        start = time.perf_counter()
        self.planner = Planner()
        self.sessions = {
            name: Session(source, planner=self.planner, backend="memory", cache=False)
            for name, source in data.items()
        }
        self.load_s = time.perf_counter() - start
        for kind in sorted(self.queries):
            self.run_op((kind,))

    def teardown(self) -> None:
        for session in self.sessions.values():
            session.close()
        self.sessions = {}

    def run_op(self, op: Op) -> Any:
        data, query, maximal = self.queries[op[0]]
        return common.run_query(self.sessions[data], query, maximal).answers

    check = Workload.same_as_first

    def verify(self) -> List[str]:
        problems: List[str] = []
        second = {
            name: Session(session.database.facts(), backend="sqlite", cache=False)
            for name, session in self.sessions.items()
        }
        digests = {}
        for kind, answers in sorted(self.first.items()):
            data, query, maximal = self.queries[kind]
            if common.run_query(second[data], query, maximal).answers != answers:
                problems.append("%s: memory and sqlite backends disagree" % kind)
            digests[kind] = {"rows": len(answers), "digest": digest(answers)}
        self.facts["answers"] = digests
        self.facts["facts"] = {n: s.size for n, s in self.sessions.items()}
        small = {name: Session(source, cache=False)
                 for name, source in self._data(small=True).items()}
        for name, session in small.items():
            problems += common.reference_mismatches(
                self.name, session,
                [(k, q, mx) for k, (d, q, mx) in sorted(self.queries.items()) if d == name],
            )
        return problems

    def probes(self, replay: Any) -> Dict[str, float]:
        counts = replay.traced.kinds
        out = common.span_probes(replay)
        out.update(common.evaluation_probes([
            (self.sessions[data], query, counts.get(kind, 1))
            for kind, (data, query, _) in sorted(self.queries.items())
        ]))
        out.update(common.planner_probes(self.planner))
        out["storage.load_s"] = self.load_s
        return out
