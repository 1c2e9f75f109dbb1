"""``eval_join``: join-heavy CQ evaluation, in process.

Scan, semijoin-up, semijoin-down, join and the final ``to_mappings``
dominate; the one WDPT in the mix has a selective root, so its OPT
extension is a small part — the mirror image of ``eval_opt``.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Optional

from repro.core.atoms import Atom, atom
from repro.core.cq import cq
from repro.cqalgs.naive import evaluate_naive
from repro.engine import Session
from repro.wdpt.wdpt import WDPT, wdpt_from_nested
from repro.workloads.generators import path_cq, star_cq

from ..harness import Context, Op, Workload, digest
from . import common

#: ~38 ops/s at nominal speed.
RATE = 30.0

CHAIN_ATOMS = (
    atom("E1", "?a", "?b"), atom("E2", "?b", "?c"), atom("E3", "?c", "?d"),
)


def join_facts(seed: int, vertices: int, chain: int) -> List[Atom]:
    """The database of this workload.

    ``E`` is a random digraph built as one random permutation plus 30 %
    extra edges between sampled vertices: every seed has exactly the same
    degree sequence, so the number of walks — the work of the path and
    star CQs — barely depends on the seed.  ``E1``/``E2``/``E3`` are the
    selective three-relation chain of ``benchharness.regress``
    (``_dist_chain_workload``, scaled down): the ``E2``/``E3`` key columns
    draw from a 20x-restricted window, so the semijoin sweeps kill ~95 %
    of every relation.  ``Mark`` keeps a few chain ends and ``Tag`` labels
    half of the chain starts, for the WDPT's selective root and OPT leaf.
    """
    rng = random.Random(seed)
    facts: List[Atom] = []
    nodes = list(range(vertices))
    image = nodes[:]
    rng.shuffle(image)
    facts += [atom("E", a, b) for a, b in zip(nodes, image)]
    extra = (vertices * 3) // 10
    facts += [
        atom("E", a, b)
        for a, b in zip(rng.sample(nodes, extra), rng.sample(nodes, extra))
    ]
    wide, narrow = 1000, 50
    for _ in range(chain):
        facts.append(atom("E1", rng.randrange(chain), rng.randrange(wide)))
        facts.append(atom("E2", rng.randrange(narrow), rng.randrange(wide)))
        facts.append(atom("E3", rng.randrange(narrow), rng.randrange(chain)))
    facts += [atom("Mark", d) for d in range(0, chain, 25)]
    facts += [atom("Tag", a, "t%d" % (a % 7)) for a in range(0, chain, 2)]
    return facts


def _queries() -> Dict[str, Any]:
    # Five kinds in equal numbers: the median op lies inside the third
    # kind's latencies and p95 inside the slowest kind's, not on a boundary
    # between two kinds where a small shift would move it a lot.
    return {
        "cq.path5": path_cq(5),
        "cq.path3_full": path_cq(3, frees=["?x0", "?x1", "?x2", "?x3"]),
        "cq.star3": star_cq(3),
        "cq.chain": cq(["?a"], CHAIN_ATOMS),
        "wdpt.chain_opt": wdpt_from_nested(
            (list(CHAIN_ATOMS) + [atom("Mark", "?d")], [([atom("Tag", "?a", "?t")], [])]),
            free_variables=["?a", "?d", "?t"],
        ),
    }


class EvalJoin(Workload):
    name = "eval_join"

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.queries = _queries()
        self.session: Optional[Session] = None
        self.vertices = ctx.scaled(1500, 120)
        self.chain = ctx.scaled(2500, 200)

    def prepare(self) -> None:
        rng = random.Random(self.ctx.seed)
        kinds = sorted(self.queries)
        n = self.ctx.n_ops(RATE, minimum=len(kinds) * 4)
        self.op_lists = [[(k,) for k in common.shuffled_mix(rng, kinds, n)]]

    def setup(self) -> None:
        facts = join_facts(self.ctx.seed, self.vertices, self.chain)
        start = time.perf_counter()
        self.session = Session(facts, backend="memory", cache=False)
        self.load_s = time.perf_counter() - start
        for kind in sorted(self.queries):
            self.run_op((kind,))

    def teardown(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def _run(self, session: Session, kind: str) -> Any:
        query = self.queries[kind]
        if isinstance(query, WDPT):
            return session.query(query).answers
        return session.planner.evaluate_cq(query, session.database)

    def run_op(self, op: Op) -> Any:
        return self._run(self.session, op[0])

    check = Workload.same_as_first

    def verify(self) -> List[str]:
        problems: List[str] = []
        second = Session(self.session.database.facts(), backend="sqlite", cache=False)
        digests = {}
        for kind, answers in sorted(self.first.items()):
            if self._run(second, kind) != answers:
                problems.append("%s: memory and sqlite backends disagree" % kind)
            digests[kind] = {"rows": len(answers), "digest": digest(answers)}
        self.facts["answers"] = digests
        self.facts["facts"] = self.session.size
        small = Session(join_facts(self.ctx.seed, 12, 40), cache=False)
        for kind, query in sorted(self.queries.items()):
            if isinstance(query, WDPT):
                problems += common.reference_mismatches(
                    self.name, small, [(kind, query, False)]
                )
            elif self._run(small, kind) != evaluate_naive(query, small.database):
                problems.append("%s disagrees with cqalgs.naive at small scale" % kind)
        return problems

    def probes(self, replay: Any) -> Dict[str, float]:
        counts = replay.traced.kinds
        out = common.span_probes(replay)
        plain = []
        for kind, query in sorted(self.queries.items()):
            if not isinstance(query, WDPT):
                seconds, answers = common.timed(lambda: self._run(self.session, kind))
                plain.append((seconds, len(answers), counts.get(kind, 1)))
        out.update(common.evaluation_probes(
            [(self.session, q, counts.get(k, 1))
             for k, q in sorted(self.queries.items()) if isinstance(q, WDPT)],
            plain,
        ))
        out.update(common.planner_probes(self.session.planner))
        out["storage.load_s"] = self.load_s
        return out
