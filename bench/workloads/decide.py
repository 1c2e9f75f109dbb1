"""``decide``: the paper's tractable decision procedures, in process.

A seeded stream of ``Session.ask`` (Thm 6), ``Session.is_partial`` (Thm 8,
candidates over 1-2 variables) and ``Session.is_maximal`` (Thm 9), half
on true answers and half on perturbed candidates.  Sub-millisecond ops:
planner routing, ``satisfiable_with_join_tree`` and ``storage.match`` fixed
costs dominate and no answer set is materialised by the procedures.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.mappings import Mapping, maximal_mappings
from repro.core.terms import Variable
from repro.engine import Session
from repro.wdpt.evaluation import evaluate_reference
from repro.workloads.datasets import company_directory

from ..harness import Context, Op, Workload
from . import common

#: ~5800 ops/s at nominal speed.
RATE = 4500.0

KINDS = ("ask", "is_partial", "is_maximal")
EMPLOYEE = Variable("e")
MANAGER = Variable("m")


class Decide(Workload):
    name = "decide"

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.query = common.company_wdpt(("?e", "?d", "?p", "?m", "?o"))
        self.departments = ctx.scaled(100, 5)
        self.employees = ctx.scaled(100, 20)
        self.expected: Dict[Op, bool] = {}
        self.warmup: List[Op] = []
        self.session: Optional[Session] = None

    def _database(self):
        return company_directory(self.departments, self.employees, seed=self.ctx.seed)

    def _candidates(
        self, rng: random.Random, answers, n: int
    ) -> List[Tuple[Op, bool]]:
        """``n`` (op, expected verdict) pairs over a materialised answer
        set: true answers alternate with perturbed ones, whose verdicts
        are decided by membership in that set."""
        ordered = sorted(answers, key=repr)
        # An answer without a manager costs is_maximal 5-8 ms instead of
        # 0.1 ms, so how many of them a stream holds must not be left to
        # the seed: one round of kinds in 20 draws from that stratum.
        managed = [a for a in ordered if MANAGER in a] or ordered
        unmanaged = [a for a in ordered if MANAGER not in a] or ordered
        maximal = maximal_mappings(answers)
        partials: Dict[Tuple[Any, ...], set] = {}
        out: List[Tuple[Op, bool]] = []
        for i in range(n):
            kind = KINDS[i % len(KINDS)]
            stratum = unmanaged if (i // len(KINDS)) % 20 == 10 else managed
            candidate = rng.choice(stratum)
            if (i // len(KINDS)) % 2:  # perturb: one value from another answer
                donor = rng.choice(ordered)
                shared = sorted(candidate.domain() & donor.domain(), key=repr)
                var = rng.choice(shared)
                candidate = Mapping(
                    {v: (donor[v] if v == var else c) for v, c in candidate.items()}
                )
            if kind == "ask":
                verdict = candidate in answers
            elif kind == "is_maximal":
                verdict = candidate in maximal
            else:
                # 1-2 variables, the employee always among them: without
                # the key the subtree CQ scans all of works_in (10-30 ms),
                # which is an evaluation workload, not a decision one.
                others = sorted(candidate.domain() - {EMPLOYEE}, key=repr)
                kept = (EMPLOYEE,) + tuple(rng.sample(others, rng.choice((0, 1))))
                candidate = candidate.restrict(kept)
                if kept not in partials:
                    partials[kept] = {a.restrict(kept) for a in answers}
                verdict = candidate in partials[kept]
            out.append(((kind, candidate), verdict))
        return out

    def prepare(self) -> None:
        rng = random.Random(self.ctx.seed)
        # Input generation: the candidates are drawn from the answer set.
        session = Session(self._database(), cache=False)
        answers = session.query(self.query).answers
        n = self.ctx.n_ops(RATE, minimum=60)
        pairs = self._candidates(rng, answers, n)
        rng.shuffle(pairs)
        self.op_lists = [[op for op, _ in pairs]]
        self.expected = dict(pairs)
        # A stream of its own, so every seed warms up on the same mix.
        self.warmup = [op for op, _ in self._candidates(rng, answers, 120)]
        self.facts["answers"] = len(answers)
        self.facts["true_verdicts"] = sum(1 for _, v in pairs if v)

    def setup(self) -> None:
        db = self._database()
        start = time.perf_counter()
        self.session = Session(db, backend="memory", cache=False)
        self.load_s = time.perf_counter() - start
        for op in self.warmup:
            self.run_op(op)

    def teardown(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def run_op(self, op: Op) -> Any:
        kind, candidate = op
        return getattr(self.session, kind)(self.query, candidate)

    def check(self, op: Op, output: Any) -> bool:
        return output is self.expected[op]

    def verify(self) -> List[str]:
        # Small scale: the three procedures against the literal Definition 2
        # answer set, on every candidate a small stream produces.
        small = Session(company_directory(2, 4, seed=self.ctx.seed), cache=False)
        reference = evaluate_reference(self.query, small.database)
        problems = []
        for (kind, candidate), verdict in self._candidates(
            random.Random(self.ctx.seed), reference, 90
        ):
            if getattr(small, kind)(self.query, candidate) is not verdict:
                problems.append(
                    "%s(%r) disagrees with evaluate_reference at small scale"
                    % (kind, candidate)
                )
        self.facts["facts"] = self.session.size
        return problems

    def probes(self, replay: Any) -> Dict[str, float]:
        out = {
            "wdpt.eval_tractable_us": replay.mean_us("wdpt.eval_tractable"),
            "wdpt.partial_eval_us": replay.mean_us("wdpt.partial_eval"),
            "wdpt.max_eval_us": replay.mean_us("wdpt.max_eval"),
            "cqalgs.satisfiable_us": replay.mean_us("cqalgs.satisfiable_with_join_tree"),
        }
        out.update(common.span_probes(replay))
        out.update(common.structure_probes([(self.session, self.query, 1)]))
        out.update(common.planner_probes(self.session.planner))
        out["storage.load_s"] = self.load_s
        return out
