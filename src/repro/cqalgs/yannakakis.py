"""Yannakakis' algorithm for acyclic conjunctive queries.

The classical three-phase algorithm [21]: (1) a bottom-up semi-join sweep
over a join tree removes dangling tuples, (2) a top-down sweep removes the
rest, (3) a bottom-up join/projection pass assembles the answers while only
ever keeping variables that are still needed above (free variables plus the
interface to the parent).  Runs in time polynomial in ``|D| + |output|`` —
the concrete engine behind the paper's use of ``HW(1) = AC`` (Theorem 3
with ``k = 1``), and the backend of the bounded-width engines, which reduce
to an acyclic instance first.

:func:`relation_with_join_tree` is the entry point: it returns the answers
as a :class:`~repro.relalg.relation.Relation` and optionally takes a
**seed** — a relation of key bindings the answers must join with, pushed
into the scans (the WDPT evaluator's sideways information passing from a
parent node to a child label).  :func:`evaluate_with_join_tree` is the same
run unpacked into ``Mapping`` objects.

Interchangeable execution paths implement the phases, selected per
run by :func:`repro.relalg.config.choose_kernel` (``REPRO_KERNELS``):

* ``columnar`` — the set-oriented kernels of :mod:`repro.relalg`:
  relations carry explicit variable schemas, shared-variable layouts are
  resolved once per join-tree edge, and rows are plain tuples;
* ``legacy`` — the historical tuple-at-a-time path over
  :class:`~repro.core.mappings.Mapping` objects (kept as the parity
  baseline; its kernels now also take their schemas from the atoms
  rather than from inspecting the first row);
* ``sql`` — on a SQLite backend, the **whole tree** runs as a single SQL
  statement (:meth:`~repro.storage.sqlite.SQLiteBackend.sql_yannakakis`):
  scans, both semi-join sweeps, and the join/projection phase are CTE
  layers, and only the final answer rows cross back into Python;
* ``dist`` — on a sharded backend (:mod:`repro.dist`), the whole tree
  runs as a shard program: each shard sweeps its hash partition with the
  columnar kernels, only join-key sets cross shard boundaries between
  levels, and the coordinator merges the gathered fragments with
  :func:`columnar_join_phase`.

The columnar path does not scan its atoms independently: one schedule
(:func:`_scan_phase`, shared by evaluation and the Boolean path) reads
them in increasing ``db.match_bound`` and seeds every scan with the
smallest relation already scanned next to it in the join tree, so a
selective atom turns its neighbours' full scans into a few index probes
and the sweeps start from relations that are already small.  A scan that
comes back empty ends the run: the query has no answers.

With a worker pool installed (:mod:`repro.parallel`) the independent
pieces overlap on either Python path: the scans that wait for nobody
still running (the legacy path: all of them), and the semi-join passes
taken level-by-level over the join tree — within one level every pass
reads relations fixed by the previous level and writes a distinct slot,
so the parallel schedule computes exactly the sequential relations.

:func:`satisfiable_with_join_tree` is the Boolean fast path the planner
routes the Theorem 6/8/9 inner loops through: for satisfiability the
bottom-up sweep alone decides the answer (the root empties iff some
relation empties), so the top-down sweep and the join phase are skipped
entirely.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.atoms import Atom
from ..core.cq import ConjunctiveQuery
from ..core.database import Database
from ..core.mappings import Mapping
from ..core.terms import Constant, Variable
from ..exceptions import ClassMembershipError
from ..hypergraphs.gyo import join_tree_children, join_tree_of_atoms, join_tree_root
from ..parallel.pool import current_pool
from ..relalg.config import (
    KERNEL_COLUMNAR,
    KERNEL_DIST,
    KERNEL_LEGACY,
    KERNEL_SQL,
    choose_kernel,
    resolve_kernel,
)
from ..relalg.relation import (
    Relation,
    from_mappings,
    hash_join,
    project,
    scan,
    semijoin,
    to_mappings,
)
from ..telemetry.resources import account_rows
from ..telemetry.tracer import current_tracer


def evaluate_acyclic(
    query: ConjunctiveQuery,
    db: Database,
    atoms: Optional[Sequence[Atom]] = None,
    links: Optional[Sequence[Tuple[int, int]]] = None,
) -> FrozenSet[Mapping]:
    """``q(D)`` for an acyclic CQ via Yannakakis.

    ``atoms``/``links`` optionally supply a precomputed join tree (e.g. the
    one the dispatcher or planner already built to decide acyclicity), so
    the GYO reduction is not rerun.  Raises
    :class:`~repro.exceptions.ClassMembershipError` when the query
    hypergraph is cyclic.
    """
    if atoms is None:
        atoms = sorted(query.atoms)
        links = None  # a caller-supplied tree is only valid for its atoms
    if links is None:
        links = join_tree_of_atoms(atoms)
    if links is None:
        raise ClassMembershipError("query is not acyclic: %r" % (query,))
    return evaluate_with_join_tree(query, db, atoms, links)


def evaluate_with_join_tree(
    query: ConjunctiveQuery,
    db: Database,
    atoms: Sequence[Atom],
    links: Sequence[Tuple[int, int]],
    kernel: Optional[str] = None,
) -> FrozenSet[Mapping]:
    """Yannakakis over an explicit join tree (``links``: child→parent):
    :func:`relation_with_join_tree` unpacked at the ``Mapping`` boundary."""
    return to_mappings(
        relation_with_join_tree(atoms, links, db, query.free_variables, kernel)
    )


def relation_with_join_tree(
    atoms: Sequence[Atom],
    links: Sequence[Tuple[int, int]],
    db: Database,
    frees: Iterable[Variable],
    kernel: Optional[str] = None,
    seed: Optional[Relation] = None,
) -> Relation:
    """The answers of the CQ ``(frees, atoms)`` as a :class:`Relation`.

    ``kernel`` optionally carries the plan's advisory kernel preference
    (the stats-store's historical winner); it is honored only when
    feasible for this database and pool state
    (:func:`~repro.relalg.config.resolve_kernel`).

    ``seed`` (a relation over some of ``frees``) restricts the result to
    the answers that join with it — ``semijoin(answers, seed)`` — without
    computing the others first: the columnar kernel filters every atom
    that shares a variable with it during the scan phase, the SQL kernel
    ships it as a ``VALUES`` CTE.  Per-atom filtering is exact when one
    atom holds all the seed's variables; otherwise (and on the kernels
    that run unseeded) one semi-join of the answers with the seed
    finishes the job.
    """
    n = len(atoms)
    frees = frozenset(frees)
    if seed is not None and not frees.issuperset(seed.schema):
        raise ValueError(
            "seed variables %r are not all free in the query" % (seed.schema,)
        )
    if n == 0 or (seed is not None and not seed.rows):
        return Relation(sorted(frees, key=repr), [])
    tracer = current_tracer()
    pool = current_pool()
    kernel = resolve_kernel(db, pool, preferred=kernel)
    with tracer.span("yannakakis", atoms=n, kernel=kernel) as y_span:
        #: The seed, while the result still has to be filtered by it.
        pending = seed
        if kernel == KERNEL_DIST:
            # Sharded backend: the whole tree runs as a shard program —
            # local semi-join passes per shard, bounded key exchange
            # between levels, final merge on the coordinator
            # (:mod:`repro.dist.exec`).
            result = db.dist_yannakakis(atoms, links, frees)
        elif kernel == KERNEL_SQL:
            # SQLite-backed database: scans, both semi-join sweeps, and
            # the join/projection phase run as one SQL statement; only
            # the answer rows cross back into Python.
            with tracer.span("yannakakis.sql") as sp:
                result = db.sql_yannakakis(atoms, links, frees, seed=seed)
                pending = None
                account_rows(len(result))
                if tracer.enabled:
                    sp.set(answers=len(result))
        else:
            root = join_tree_root(links, n)
            children = join_tree_children(links, n)
            order = _topological(root, children)  # root first
            if kernel == KERNEL_COLUMNAR:
                result = _evaluate_columnar(
                    frees, db, atoms, links, root, children, order, pool, tracer,
                    seed,
                )
                if seed is not None and any(
                    a.variables().issuperset(seed.schema) for a in atoms
                ):
                    pending = None
            else:
                result = from_mappings(
                    _evaluate_legacy(
                        frees, db, atoms, links, root, children, order, pool,
                        tracer,
                    ),
                    sorted(frees, key=repr),
                )
        if pending is not None:
            result = semijoin(result, pending)
        if tracer.enabled:
            y_span.set(answers=len(result))
        return result


def satisfiable_with_join_tree(
    atoms: Sequence[Atom],
    links: Sequence[Tuple[int, int]],
    db: Database,
) -> bool:
    """Boolean fast path: is the Boolean CQ over ``atoms`` satisfiable?

    After the bottom-up semi-join sweep the root relation is non-empty
    iff the query is satisfiable, so the top-down sweep and the join
    phase never run; an empty scan or an emptied relation exits
    immediately (emptiness propagates to the root along the sweep).
    This is the engine behind the Theorem 6/8/9 inner loops
    (:meth:`repro.planner.planner.Planner.satisfiable_substituted`).
    Under ``REPRO_KERNELS=legacy`` it falls back to full evaluation,
    keeping that mode byte-for-byte the historical behaviour.
    """
    n = len(atoms)
    if n == 0:
        return False  # mirrors evaluate_with_join_tree's empty-query result
    pool = current_pool()
    kernel = choose_kernel(db, pool)
    if kernel == KERNEL_LEGACY:
        q = ConjunctiveQuery((), list(atoms))
        return bool(evaluate_with_join_tree(q, db, atoms, links))
    tracer = current_tracer()
    with tracer.span("yannakakis", atoms=n, kernel=kernel, boolean=True) as y_span:
        if kernel == KERNEL_DIST:
            result = bool(
                db.dist_yannakakis(atoms, links, (), exists_only=True)
            )
        elif kernel == KERNEL_SQL:
            with tracer.span("yannakakis.sql") as sp:
                result = bool(
                    db.sql_yannakakis(atoms, links, (), exists_only=True)
                )
                if tracer.enabled:
                    sp.set(satisfiable=result)
        else:
            result = _satisfiable_columnar(atoms, links, db, pool, tracer)
        if tracer.enabled:
            y_span.set(satisfiable=result)
        return result


# ---------------------------------------------------------------------------
# Columnar path (repro.relalg kernels)
# ---------------------------------------------------------------------------
class _CountedReads:
    """``db`` as one scan sees it under tracing: ``match`` also counts the
    facts it hands over (``facts_read`` of the ``yannakakis.scan`` span)."""

    __slots__ = ("db", "facts")

    def __init__(self, db: Database):
        self.db = db
        self.facts = 0

    def match(self, pattern: Atom) -> List[Atom]:
        found = list(self.db.match(pattern))
        self.facts += len(found)
        return found

    def match_bound(self, pattern: Atom) -> int:
        return self.db.match_bound(pattern)


def _shares_variable(rel: Relation, pattern: Atom) -> bool:
    return not rel.index.keys().isdisjoint(pattern.args)


def _scan_phase(
    atoms: Sequence[Atom],
    links: Sequence[Tuple[int, int]],
    db: Database,
    seed: Optional[Relation],
    pool,
    tracer,
) -> Optional[List[Relation]]:
    """Phase 0, for evaluation and the Boolean path alike: one relation
    per atom, scanned in increasing ``db.match_bound`` with sideways
    information passing along the join tree — or ``None`` as soon as a
    relation comes back empty (the query has no answers, nothing else
    needs reading).

    An atom is scanned after its join-tree neighbours of smaller bound,
    seeded with the smallest of their relations that shares a variable
    with it, so a selective atom turns its neighbours' full scans into
    index probes whenever :func:`~repro.relalg.relation.scan`'s cost rule
    says the keys are few enough.  The caller's ``seed`` is applied to
    every atom it shares a variable with — as the scan's seed when it is
    the smaller of the two, by a semi-join after it otherwise — which
    keeps the result exact in the seed whenever one atom holds all its
    variables.  The order is cut into *waves*, a new one whenever the
    next atom has a neighbour in the current one: the atoms of a wave
    read only relations of earlier waves, so a wave fans out over
    ``pool`` and computes what the serial loop computes.

    Each relation lies between the atom's fully reduced relation and its
    unseeded scan: a row is only dropped for lacking a partner in a
    neighbour's relation or in the seed, and such a row is in no answer
    that joins with the seed.  The semi-join sweeps therefore still end
    in the full reduction.
    """
    n = len(atoms)
    with tracer.span("yannakakis.scan") as sp:
        # A lone atom has nobody to be ordered against; ``scan`` asks for
        # its bound itself if a seed makes it matter.
        bounds = [db.match_bound(a) for a in atoms] if n > 1 else [None]
        neighbours: List[List[int]] = [[] for _ in range(n)]
        for child, parent in links:
            neighbours[child].append(parent)
            neighbours[parent].append(child)
        waves: List[List[int]] = []
        for i in sorted(range(n), key=bounds.__getitem__):
            if not waves or any(j in waves[-1] for j in neighbours[i]):
                waves.append([])
            waves[-1].append(i)

        relations: List[Optional[Relation]] = [None] * n
        seeded_by: List[object] = [None] * n
        facts_read: List[Optional[int]] = [None] * n

        def scan_atom(i: int) -> Relation:
            """Atom ``i``'s relation, given those of the earlier waves."""
            pattern = atoms[i]
            via = by = None
            for j in neighbours[i]:
                near = relations[j]
                if (
                    near is not None
                    and (via is None or len(near) < len(via))
                    and _shares_variable(near, pattern)
                ):
                    via, by = near, j
            seeded = seed is not None and _shares_variable(seed, pattern)
            if seeded and (via is None or len(seed) <= len(via)):
                via, by = seed, "seed"
            source = _CountedReads(db) if tracer.enabled else db
            rel = scan(pattern, source, via, bounds[i])
            if seeded and via is not seed:
                rel = semijoin(rel, seed)
            if tracer.enabled:
                seeded_by[i], facts_read[i] = by, source.facts
            return rel

        fan_out = pool.map_tasks if pool is not None else map
        nonempty = 0 not in bounds
        for wave in waves if nonempty else ():
            for i, rel in zip(wave, list(fan_out(scan_atom, wave))):
                relations[i] = rel
                nonempty = nonempty and bool(rel.rows)
            if not nonempty:
                break
        account_rows(max((len(r) for r in relations if r is not None), default=0))
        if tracer.enabled:
            sp.set(
                relation_sizes=[None if r is None else len(r) for r in relations],
                scan_order=[i for wave in waves for i in wave],
                seeded_by=seeded_by,
                facts_read=facts_read,
            )
    return relations if nonempty else None


def _satisfiable_columnar(
    atoms: Sequence[Atom],
    links: Sequence[Tuple[int, int]],
    db: Database,
    pool,
    tracer,
) -> bool:
    relations = _scan_phase(atoms, links, db, None, pool, tracer)
    with tracer.span("yannakakis.semijoin_up") as sp:
        verdict = relations is not None
        if verdict:
            n = len(atoms)
            children = join_tree_children(links, n)
            for node in reversed(_topological(join_tree_root(links, n), children)):
                for child in children[node]:
                    relations[node] = semijoin(relations[node], relations[child])
                if not relations[node].rows:
                    verdict = False
                    break
        if tracer.enabled:
            sp.set(relation_sizes=[len(r) for r in relations or ()])
    return verdict


def _evaluate_columnar(
    frees: FrozenSet[Variable],
    db: Database,
    atoms: Sequence[Atom],
    links: Sequence[Tuple[int, int]],
    root: int,
    children: Dict[int, List[int]],
    order: List[int],
    pool,
    tracer,
    seed: Optional[Relation] = None,
) -> Relation:
    relations = _scan_phase(atoms, links, db, seed, pool, tracer)
    if relations is None:
        return Relation(sorted(frees, key=repr), [])
    levels = _levels(root, children, order) if pool is not None else None

    def sj(node: int, other: int, left: Relation, right: Relation) -> Relation:
        return semijoin(left, right)

    # Phase 1: bottom-up semi-joins (children filter parents).
    with tracer.span("yannakakis.semijoin_up") as sp:
        if levels is not None:
            _semijoin_up_parallel(pool, relations, children, levels, sj)
        else:
            for node in reversed(order):
                for child in children[node]:
                    relations[node] = semijoin(relations[node], relations[child])
        if tracer.enabled:
            sp.set(relation_sizes=[len(r) for r in relations])
    # Phase 2: top-down semi-joins (parents filter children).
    with tracer.span("yannakakis.semijoin_down") as sp:
        if levels is not None:
            _semijoin_down_parallel(pool, relations, links, children, levels, sj)
        else:
            for node in order:
                for child in children[node]:
                    relations[child] = semijoin(relations[child], relations[node])
        if tracer.enabled:
            sp.set(relation_sizes=[len(r) for r in relations])
    # Phase 3: bottom-up join keeping (free ∪ parent-interface) variables.
    return columnar_join_phase(
        frees, atoms, links, relations, root, children, order, tracer
    )


def columnar_join_phase(
    frees: FrozenSet[Variable],
    atoms: Sequence[Atom],
    links: Sequence[Tuple[int, int]],
    relations: List[Relation],
    root: int,
    children: Dict[int, List[int]],
    order: List[int],
    tracer,
) -> Relation:
    """Phase 3 on columnar relations: the bottom-up join/projection pass,
    keeping (free ∪ parent-interface) variables per node.

    ``relations[i]`` is atom ``i``'s (already semi-join-reduced) relation.
    The keep sets are computed structurally from the **atoms**, so the
    relations may carry any sub-schema that still contains the free and
    interface variables — the distributed executor (:mod:`repro.dist`)
    reuses this pass on gathered fragments that were projected down to
    exactly those variables shard-side."""
    n = len(atoms)
    atom_vars = [a.variables() for a in atoms]
    subtree_vars = _subtree_variables(atom_vars, children, order)
    parent_of: Dict[int, int] = {c: p for c, p in links}
    partials: List[Optional[Relation]] = [None] * n
    with tracer.span("yannakakis.join") as sp:
        for node in reversed(order):
            current = relations[node]
            for child in children[node]:
                current = hash_join(current, partials[child])
            if node == root:
                keep = frees
            else:
                interface = atom_vars[parent_of[node]]
                keep = (frees & frozenset(subtree_vars[node])) | (
                    frozenset(subtree_vars[node]) & interface
                )
            account_rows(len(current))
            partials[node] = project(current, keep)
        if tracer.enabled:
            sp.set(partial_sizes=[len(p) for p in partials])
    return partials[root]


# ---------------------------------------------------------------------------
# Legacy path (tuple-at-a-time over Mapping objects)
# ---------------------------------------------------------------------------
def _evaluate_legacy(
    frees: FrozenSet[Variable],
    db: Database,
    atoms: Sequence[Atom],
    links: Sequence[Tuple[int, int]],
    root: int,
    children: Dict[int, List[int]],
    order: List[int],
    pool,
    tracer,
) -> FrozenSet[Mapping]:
    n = len(atoms)
    with tracer.span("yannakakis.scan") as sp:
        if pool is not None and n >= 2:
            relations: List[List[Mapping]] = pool.map_tasks(
                lambda a: _scan(a, db), list(atoms)
            )
        else:
            relations = [_scan(a, db) for a in atoms]
        account_rows(max(len(r) for r in relations))
        if tracer.enabled:
            sp.set(relation_sizes=[len(r) for r in relations])
    levels = _levels(root, children, order) if pool is not None else None
    shared = _edge_shared_variables(atoms, links)

    def sj(node: int, other: int, left: List[Mapping], right: List[Mapping]) -> List[Mapping]:
        return _semijoin(left, right, shared[(node, other)])

    # Phase 1: bottom-up semi-joins (children filter parents).
    with tracer.span("yannakakis.semijoin_up") as sp:
        if levels is not None:
            _semijoin_up_parallel(pool, relations, children, levels, sj)
        else:
            for node in reversed(order):
                for child in children[node]:
                    relations[node] = sj(node, child, relations[node], relations[child])
        if tracer.enabled:
            sp.set(relation_sizes=[len(r) for r in relations])
    # Phase 2: top-down semi-joins (parents filter children).
    with tracer.span("yannakakis.semijoin_down") as sp:
        if levels is not None:
            _semijoin_down_parallel(pool, relations, links, children, levels, sj)
        else:
            for node in order:
                for child in children[node]:
                    relations[child] = sj(child, node, relations[child], relations[node])
        if tracer.enabled:
            sp.set(relation_sizes=[len(r) for r in relations])
    return _join_phase(
        frees, db, atoms, links, relations, root, children, order, tracer
    )


def _join_phase(
    frees: FrozenSet[Variable],
    db: Database,
    atoms: Sequence[Atom],
    links: Sequence[Tuple[int, int]],
    relations: List[List[Mapping]],
    root: int,
    children: Dict[int, List[int]],
    order: List[int],
    tracer,
) -> FrozenSet[Mapping]:
    """Phase 3: bottom-up join keeping (free ∪ parent-interface) variables.

    Schemas are tracked structurally — a node's relation is total on its
    atom's variables, a partial result on the ``keep`` set it was
    projected to — so the join kernels never inspect row contents to
    find the shared variables (robust for empty relations)."""
    n = len(atoms)
    atom_vars = [a.variables() for a in atoms]
    subtree_vars = _subtree_variables(atom_vars, children, order)
    parent_of: Dict[int, int] = {c: p for c, p in links}

    partials: List[FrozenSet[Mapping]] = [frozenset()] * n
    partial_schema: List[FrozenSet[Variable]] = [frozenset()] * n
    with tracer.span("yannakakis.join") as sp:
        for node in reversed(order):
            current: FrozenSet[Mapping] = frozenset(relations[node])
            schema = frozenset(atom_vars[node])
            for child in children[node]:
                join_on = tuple(sorted(schema & partial_schema[child]))
                current = _join(current, partials[child], join_on)
                schema |= partial_schema[child]
            if node == root:
                keep = frees
            else:
                interface = atom_vars[parent_of[node]]
                keep = (frees & frozenset(subtree_vars[node])) | (
                    frozenset(subtree_vars[node]) & interface
                )
            account_rows(len(current))
            partials[node] = frozenset(m.restrict(keep) for m in current)
            partial_schema[node] = schema & keep
        if tracer.enabled:
            sp.set(partial_sizes=[len(p) for p in partials])
    return partials[root]


def _scan(a: Atom, db: Database) -> List[Mapping]:
    """The relation of atom ``a``: variable bindings of its matching facts."""
    out: List[Mapping] = []
    for fact in db.match(a):
        binding: Dict[Variable, Constant] = {}
        for pattern_arg, fact_arg in zip(a.args, fact.args):
            if isinstance(pattern_arg, Variable):
                assert isinstance(fact_arg, Constant)
                binding[pattern_arg] = fact_arg
        out.append(Mapping(binding))
    return out


def _semijoin(
    left: List[Mapping],
    right: Iterable[Mapping],
    shared: Sequence[Variable],
) -> List[Mapping]:
    """``left ⋉ right`` on ``shared`` (the schemas' common variables,
    supplied by the caller from the atoms/plan — not derived from row
    contents, so empty and boundary relations behave structurally)."""
    right = list(right)
    if not right:
        return []
    if not shared:
        return list(left)
    shared = tuple(shared)
    keys = {tuple(m[v] for v in shared) for m in right}
    return [m for m in left if tuple(m[v] for v in shared) in keys]


def _join(
    left: Iterable[Mapping],
    right: Iterable[Mapping],
    shared: Sequence[Variable],
) -> FrozenSet[Mapping]:
    """Natural join on ``shared`` (hash join; schemas from the caller)."""
    left = list(left)
    right = list(right)
    if not left or not right:
        return frozenset()
    shared = tuple(shared)
    buckets: Dict[Tuple[Constant, ...], List[Mapping]] = {}
    for m in right:
        buckets.setdefault(tuple(m[v] for v in shared), []).append(m)
    out: Set[Mapping] = set()
    for m in left:
        for other in buckets.get(tuple(m[v] for v in shared), ()):
            out.add(m.union(other))
    return frozenset(out)


def _topological(root: int, children: Dict[int, List[int]]) -> List[int]:
    """Nodes in root-first (pre-)order."""
    order: List[int] = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(children[node])
    return order


def _subtree_variables(
    atom_vars: Sequence[FrozenSet[Variable]],
    children: Dict[int, List[int]],
    order: List[int],
) -> List[Set[Variable]]:
    """Per node, the variables of its join-tree subtree."""
    subtree: List[Set[Variable]] = [set(v) for v in atom_vars]
    for node in reversed(order):
        for child in children[node]:
            subtree[node] |= subtree[child]
    return subtree


def _edge_shared_variables(
    atoms: Sequence[Atom], links: Sequence[Tuple[int, int]]
) -> Dict[Tuple[int, int], Tuple[Variable, ...]]:
    """The shared variables of every join-tree edge, both orientations —
    computed once per edge from the atoms (the structural schemas)."""
    var_sets = [a.variables() for a in atoms]
    shared: Dict[Tuple[int, int], Tuple[Variable, ...]] = {}
    for child, parent in links:
        common = tuple(sorted(var_sets[child] & var_sets[parent]))
        shared[(child, parent)] = common
        shared[(parent, child)] = common
    return shared


# ---------------------------------------------------------------------------
# Level-parallel semi-join sweeps (repro.parallel)
# ---------------------------------------------------------------------------
def _levels(
    root: int, children: Dict[int, List[int]], order: List[int]
) -> List[List[int]]:
    """Join-tree nodes grouped by depth, root level first."""
    depth = {root: 0}
    for node in order:  # preorder: parents before children
        for child in children[node]:
            depth[child] = depth[node] + 1
    levels: List[List[int]] = [[] for _ in range(max(depth.values()) + 1)]
    for node in order:
        levels[depth[node]].append(node)
    return levels


def _semijoin_up_parallel(
    pool,
    relations: List,
    children: Dict[int, List[int]],
    levels: List[List[int]],
    sj,
) -> None:
    """Phase 1, deepest level first.  A node's pass folds semi-joins with
    its (already-final, one level deeper) children, so nodes within a
    level are independent — each level is one fan-out.  ``sj(node,
    other, left, right)`` is the kernel (columnar or legacy)."""

    def filter_by_children(node: int):
        rel = relations[node]
        for child in children[node]:
            rel = sj(node, child, rel, relations[child])
        return rel

    for level in reversed(levels):
        if len(level) >= 2:
            for node, rel in zip(level, pool.map_tasks(filter_by_children, level)):
                relations[node] = rel
        else:
            for node in level:
                relations[node] = filter_by_children(node)


def _semijoin_down_parallel(
    pool,
    relations: List,
    links: Sequence[Tuple[int, int]],
    children: Dict[int, List[int]],
    levels: List[List[int]],
    sj,
) -> None:
    """Phase 2, root level first.  Each node of a level is filtered by its
    (already-filtered, one level up) parent — again one fan-out per
    level."""
    parent_of: Dict[int, int] = {c: p for c, p in links}

    def filter_by_parent(node: int):
        return sj(node, parent_of[node], relations[node], relations[parent_of[node]])

    for level in levels[1:]:
        if len(level) >= 2:
            for node, rel in zip(level, pool.map_tasks(filter_by_parent, level)):
                relations[node] = rel
        else:
            for node in level:
                relations[node] = filter_by_parent(node)
