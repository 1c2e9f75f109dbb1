"""``static``: the database-free analyses of Sections 4-6.

Subsumption both ways on the Figure 2 family and on comb trees,
subsumption-equivalence of random WDPTs, ``wb_approximation`` /
``is_in_m_wb``, ``phi_cq`` + ``union_subsumed_by`` on small unions, and
width profiling of grid/clique CQs with a fresh ``Planner`` per op.
Storage, the relational kernels and the service are bypassed entirely:
an evaluation optimisation must not move this workload.

The cost of these analyses is exponential in the *shape* of the query —
two ``random_wdpt`` seeds differ 100x — so the shapes are a fixed pool;
``--seed`` picks the variable names every shape is renamed to and the
order of the operations.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

from repro.core.atoms import atom
from repro.core.canonical import canonical_database_of_atoms
from repro.core.terms import Variable
from repro.planner.planner import Planner
from repro.wdpt.approximation import is_in_m_wb, wb_approximation
from repro.wdpt.classes import is_in_wb
from repro.wdpt.subsumption import (
    is_subsumed_by,
    is_subsumption_equivalent,
    subsumed_on,
)
from repro.wdpt.unions import UWDPT, phi_cq, union_subsumed_by
from repro.wdpt.wdpt import WDPT, wdpt_from_nested
from repro.workloads.families import figure1_wdpt, figure2_family
from repro.workloads.generators import clique_cq, grid_cq, random_wdpt

from ..harness import Context, Op, Workload, digest
from . import common

#: ~44 ops/s at nominal speed.
RATE = 34.0

#: ``random_wdpt`` arguments whose WB(1)-approximation exists and takes
#: 10-30 ms (found by search; most seeds take 1 ms or minutes, or fail).
APPROX_SHAPES = (
    dict(depth=1, fanout=2, atoms_per_node=3, fresh_vars_per_node=2, seed=8),
    dict(depth=1, fanout=2, atoms_per_node=3, fresh_vars_per_node=2, seed=19),
    dict(depth=1, fanout=2, atoms_per_node=3, fresh_vars_per_node=2, seed=21),
    dict(depth=1, fanout=1, atoms_per_node=4, fresh_vars_per_node=3, seed=1),
)


class Entry(NamedTuple):
    """One op kind: what to call, the output known in advance (``None``
    when verify() judges the first output instead), and the trees it is
    called on."""

    run: Callable[[], Any]
    expected: Any
    inputs: Tuple[WDPT, ...] = ()


def comb(width: int) -> WDPT:
    """A path of ``width`` atoms at the root with one OPT tooth per
    position: ``2^width`` rooted subtrees for subsumption to visit."""
    root = [atom("R", "?x%d" % i, "?x%d" % (i + 1)) for i in range(width)]
    teeth = [([atom("S", "?x%d" % i, "?y%d" % i)], []) for i in range(width)]
    frees = ["?x0"] + ["?y%d" % i for i in range(width)]
    return wdpt_from_nested((root, teeth), free_variables=frees)


class Renamer:
    """Seeded variable names: a fresh suffix per call for the existential
    variables, one suffix per run for the free variables (subsumption
    compares answers, so two trees must keep naming them alike)."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.free_tag = rng.randrange(10 ** 6)

    def __call__(self, p: WDPT) -> WDPT:
        tag = self.rng.randrange(10 ** 6)
        frees = set(p.free_variables)
        return p.rename({
            v: Variable("%s_%d" % (v.name, self.free_tag if v in frees else tag))
            for v in p.variables()
        })


def semantically_subsumed(p1: WDPT, p2: WDPT) -> bool:
    """``p1 ⊑ p2`` decided by *evaluating* both trees over the canonical
    database of every rooted subtree of ``p1`` (the characterisation behind
    ``is_subsumed_by``, through the evaluator instead of PARTIAL-EVAL)."""
    return all(
        subsumed_on(p1, p2, canonical_database_of_atoms(p1.atoms_of(subtree)))
        for subtree in p1.tree.rooted_subtrees()
    )


class Static(Workload):
    name = "static"

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.pool: Dict[str, Entry] = {}
        self.analysis_s = 0.0

    def _build_pool(self, rng: random.Random, small: bool) -> None:
        pool = self.pool
        pool.clear()
        renamed = Renamer(rng)
        for n in ((1,) if small else (2, 3)):
            p1, p2 = (renamed(p) for p in figure2_family(n, 2))
            # Theorem 15: p2 ⊑ p1 and not the other way round.
            pool["subsume.fig2_%d" % n] = Entry(
                lambda a=p1, b=p2: (is_subsumed_by(b, a), is_subsumed_by(a, b)),
                (True, False), (p1, p2),
            )
        for width in ((3,) if small else (6, 7)):
            a, b = renamed(comb(width)), renamed(comb(width))
            pool["subsume.comb%d" % width] = Entry(
                lambda a=a, b=b: is_subsumed_by(a, b), True, (a, b)
            )
        for seed in ((0,) if small else (0, 1, 2, 3)):
            shape = dict(depth=1 if small else 2, fanout=2, seed=seed)
            a, b = renamed(random_wdpt(**shape)), renamed(random_wdpt(**shape))
            pool["equivalent.random%d" % seed] = Entry(
                lambda a=a, b=b: is_subsumption_equivalent(a, b), True, (a, b)
            )
        for i, shape in enumerate(APPROX_SHAPES[:1] if small else APPROX_SHAPES):
            p = renamed(random_wdpt(**shape))
            pool["approximate.random%d" % i] = Entry(
                lambda p=p: (is_in_m_wb(p, 1), wb_approximation(p, 1)), None, (p,)
            )
        if not small:
            p1, _ = figure2_family(1, 2)
            p1 = renamed(p1)
            pool["approximate.fig2_1"] = Entry(lambda p=p1: is_in_m_wb(p, 2), False, (p1,))
        projections = (("?x", "?y", "?z", "?z2"), ("?y", "?z", "?z2"), ("?y", "?z"), ("?x", "?y"))
        phi = UWDPT([renamed(figure1_wdpt(frees)) for frees in projections])
        wider = UWDPT([renamed(figure1_wdpt(projections[0]))])
        # phi ⊑ phi; its widest member alone subsumes and is subsumed...
        pool["unions.figure1"] = Entry(
            lambda: (len(phi_cq(phi)), union_subsumed_by(phi, phi),
                     union_subsumed_by(wider, phi), union_subsumed_by(phi, wider)),
            None,
        )
        grids = ((2, 3),) if small else ((3, 3), (3, 4), (4, 4), (4, 5))
        cliques = (4,) if small else (5, 6, 7)
        queries = [grid_cq(r, c) for r, c in grids] + [clique_cq(k) for k in cliques]
        widths = tuple([min(r, c) for r, c in grids] + [k - 1 for k in cliques])

        def structure() -> Tuple[Any, ...]:
            planner = Planner()  # fresh: nothing is memoized across ops
            profiles = [planner.profile_cq(q) for q in queries]
            output = (
                tuple(p.treewidth for p in profiles),
                tuple(p.is_acyclic for p in profiles),
                tuple(p.hypertreewidth for p in profiles),
            )
            self.analysis_s += planner.analysis_seconds
            return output

        # Grids have treewidth min(r, c), cliques k - 1; none is acyclic.
        self.structure_prefix = (widths, (False,) * len(queries))
        pool["structure.grids_cliques"] = Entry(structure, None)

    def prepare(self) -> None:
        rng = random.Random(self.ctx.seed)
        self._build_pool(rng, small=self.ctx.smoke)
        kinds = sorted(self.pool)
        n = self.ctx.n_ops(RATE, minimum=len(kinds) * 2)
        self.op_lists = [[(k,) for k in common.shuffled_mix(rng, kinds, n)]]

    def setup(self) -> None:
        for kind in sorted(self.pool):  # warm-up: lazy imports, code paths
            self.run_op((kind,))

    def run_op(self, op: Op) -> Any:
        return self.pool[op[0]].run()

    def check(self, op: Op, output: Any) -> bool:
        expected = self.pool[op[0]].expected
        if expected is not None:
            return output == expected
        return self.same_as_first(op, output)

    def verify(self) -> List[str]:
        problems: List[str] = []
        for kind, output in sorted(self.first.items()):
            if kind.startswith("approximate."):
                _, approximation = output
                ok = is_in_wb(approximation, 1) and is_subsumed_by(
                    approximation, self.pool[kind].inputs[0]
                )
            elif kind.startswith("unions."):
                ok = output[1:] == (True, True, True)
            else:
                ok = output[:2] == self.structure_prefix
            if not ok:
                problems.append("%s returned %r" % (kind, output))
        self.facts["outputs"] = {k: digest(v) for k, v in sorted(self.first.items())}
        # Small scale: is_subsumed_by against the evaluator-based definition.
        renamed = Renamer(random.Random(self.ctx.seed))
        f1, f2 = figure2_family(1, 2)
        for a, b in ((f2, f1), (f1, f2), (renamed(comb(3)), renamed(comb(3))),
                     (comb(3), comb(2)), (comb(2), comb(3))):
            if is_subsumed_by(a, b) != semantically_subsumed(a, b):
                problems.append("is_subsumed_by disagrees with evaluation at small scale")
        return problems

    def probes(self, replay: Any) -> Dict[str, float]:
        trees = [p for entry in self.pool.values() for p in entry.inputs]
        profile = sum(
            common.timed(lambda p=p: Planner().profile_wdpt(p))[0] for p in trees
        ) / len(trees)
        return {
            "wdpt.subsumption_ms": replay.mean_us("wdpt.is_subsumed_by") / 1000.0,
            "wdpt.approximation_ms":
                replay.mean_us("wdpt.wb_approximation", "wdpt.is_in_m_wb") / 1000.0,
            "wdpt.phi_cq_ms": replay.mean_us("wdpt.phi_cq") / 1000.0,
            "hypergraphs.treewidth_ms":
                replay.mean_us("hypergraphs.treewidth_exact") / 1000.0,
            "hypergraphs.gyo_us": replay.mean_us("hypergraphs.join_tree_of_atoms"),
            "planner.profile_us_cold": profile * 1e6,
            "planner.analysis_s": self.analysis_s,
        }
