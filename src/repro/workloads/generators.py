"""Seeded random generators for databases, CQs and WDPTs.

Everything takes an explicit :class:`random.Random` (or a seed) so that
tests and benchmarks are reproducible.  WDPT generation builds the tree
top-down and only ever shares variables between a node and its parent,
which guarantees well-designedness by construction.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Union

from ..core.atoms import Atom
from ..core.cq import ConjunctiveQuery
from ..core.database import Database
from ..core.terms import Variable
from ..wdpt.tree import PatternTree
from ..wdpt.wdpt import WDPT

Rng = Union[int, random.Random, None]


def _rng(seed: Rng) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


# ---------------------------------------------------------------------------
# Databases
# ---------------------------------------------------------------------------
def random_database(
    n_facts: int,
    relations: Sequence[str] = ("E",),
    arity: int = 2,
    domain_size: int = 10,
    seed: Rng = 0,
) -> Database:
    """A random database with ``n_facts`` facts over the given relations,
    arguments drawn uniformly from ``{0, …, domain_size − 1}``.

    ``n_facts`` is capped at the number of distinct possible facts
    (``|relations| · domain_size^arity``), since facts are a set.
    """
    rng = _rng(seed)
    db = Database()
    possible = len(list(relations)) * domain_size ** arity
    target = min(n_facts, possible)
    while len(db) < target:
        rel = rng.choice(list(relations))
        db.add(Atom(rel, tuple(rng.randrange(domain_size) for _ in range(arity))))
    return db


def random_graph_database(
    n_vertices: int, n_edges: int, relation: str = "E", seed: Rng = 0
) -> Database:
    """A random directed graph as a binary relation."""
    rng = _rng(seed)
    db = Database()
    target = min(n_edges, n_vertices * n_vertices)
    while len(db) < target:
        db.add(Atom(relation, (rng.randrange(n_vertices), rng.randrange(n_vertices))))
    return db


# ---------------------------------------------------------------------------
# Structured CQ families
# ---------------------------------------------------------------------------
def path_cq(length: int, relation: str = "E", frees: Optional[Sequence[str]] = None) -> ConjunctiveQuery:
    """``Ans(…) ← E(x₀,x₁), …, E(x_{n−1},x_n)`` — treewidth 1."""
    atoms = [
        Atom(relation, ("?x%d" % i, "?x%d" % (i + 1))) for i in range(length)
    ]
    if frees is None:
        frees = ["?x0", "?x%d" % length]
    return ConjunctiveQuery(frees, atoms)


def cycle_cq(length: int, relation: str = "E") -> ConjunctiveQuery:
    """A Boolean cycle of the given length — treewidth 2 for length ≥ 3."""
    atoms = [
        Atom(relation, ("?x%d" % i, "?x%d" % ((i + 1) % length))) for i in range(length)
    ]
    return ConjunctiveQuery((), atoms)


def clique_cq(size: int, relation: str = "E") -> ConjunctiveQuery:
    """A Boolean clique — treewidth ``size − 1`` (Example 4)."""
    atoms = [
        Atom(relation, ("?x%d" % i, "?x%d" % j))
        for i in range(size)
        for j in range(size)
        if i != j
    ]
    return ConjunctiveQuery((), atoms)


def grid_cq(rows: int, cols: int, relation: str = "E") -> ConjunctiveQuery:
    """A Boolean grid — treewidth ``min(rows, cols)``."""
    def v(i: int, j: int) -> str:
        return "?g%d_%d" % (i, j)

    atoms: List[Atom] = []
    for i in range(rows):
        for j in range(cols):
            if i + 1 < rows:
                atoms.append(Atom(relation, (v(i, j), v(i + 1, j))))
            if j + 1 < cols:
                atoms.append(Atom(relation, (v(i, j), v(i, j + 1))))
    return ConjunctiveQuery((), atoms)


def star_cq(rays: int, relation: str = "E", free_center: bool = True) -> ConjunctiveQuery:
    """A star — acyclic, treewidth 1."""
    atoms = [Atom(relation, ("?c", "?r%d" % i)) for i in range(rays)]
    return ConjunctiveQuery(["?c"] if free_center else (), atoms)


# ---------------------------------------------------------------------------
# Random WDPTs
# ---------------------------------------------------------------------------
def random_wdpt(
    depth: int = 2,
    fanout: int = 2,
    atoms_per_node: int = 2,
    fresh_vars_per_node: int = 2,
    shared_vars_per_child: int = 1,
    relations: Sequence[str] = ("E",),
    arity: int = 2,
    free_fraction: float = 0.5,
    seed: Rng = 0,
) -> WDPT:
    """A random WDPT, well-designed by construction.

    Each node owns ``fresh_vars_per_node`` new variables and shares
    ``shared_vars_per_child`` of its variables with each child, so
    variable occurrences always form root-connected regions.
    ``shared_vars_per_child`` directly controls the interface width.
    """
    rng = _rng(seed)
    parents: List[int] = []
    node_vars: List[List[Variable]] = []
    labels: List[List[Atom]] = []
    counter = [0]

    def fresh() -> Variable:
        counter[0] += 1
        return Variable("w%d" % counter[0])

    def build(parent: Optional[int], level: int) -> None:
        my_id = len(labels)
        if parent is not None:
            parents.append(parent)
        inherited: List[Variable] = []
        if parent is not None:
            pool = node_vars[parent]
            take = min(shared_vars_per_child, len(pool))
            inherited = rng.sample(pool, take)
        own = [fresh() for _ in range(fresh_vars_per_node)]
        mine = inherited + own
        node_vars.append(mine)
        atoms = []
        for _ in range(atoms_per_node):
            atoms.append(
                Atom(
                    rng.choice(list(relations)),
                    tuple(rng.choice(mine) for _ in range(arity)),
                )
            )
        # Make sure every declared variable occurs in some atom.
        missing = [v for v in mine if not any(v in a.variables() for a in atoms)]
        for v in missing:
            other = rng.choice(mine)
            args = tuple([v] + [other] * (arity - 1)) if arity > 1 else (v,)
            atoms.append(Atom(rng.choice(list(relations)), args))
        labels.append(atoms)
        if level < depth:
            for _ in range(fanout):
                build(my_id, level + 1)

    build(None, 0)
    all_vars = sorted({v for label in labels for a in label for v in a.variables()})
    n_free = max(1, int(len(all_vars) * free_fraction))
    frees = rng.sample(all_vars, min(n_free, len(all_vars)))
    return WDPT(PatternTree(parents), labels, sorted(frees))
