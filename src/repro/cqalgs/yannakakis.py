"""Yannakakis' algorithm for acyclic conjunctive queries.

The classical three-phase algorithm [21]: (1) a bottom-up semi-join sweep
over a join tree removes dangling tuples, (2) a top-down sweep removes the
rest, (3) a bottom-up join/projection pass assembles the answers while only
ever keeping variables that are still needed above (free variables plus the
interface to the parent).  Runs in time polynomial in ``|D| + |output|`` —
the concrete engine behind the paper's use of ``HW(1) = AC`` (Theorem 3
with ``k = 1``), and the last stage of the bounded-width engines
(:mod:`repro.cqalgs.structured`), whose bags form an acyclic instance.

Phases (1) and (2) — the semi-join program — are written once, in
:func:`semijoin_reduce`, over :class:`~repro.relalg.relation.Relation`
objects and a :class:`~repro.hypergraphs.gyo.JoinTree`: two loops over
the tree's root-first order, children before parents on the way up and
parents before children on the way down, so every pass reads relations
that are already final.  Everything that needs a reduction calls it:
evaluation and the Boolean path here, answer enumeration
(:mod:`repro.cqalgs.enumeration`), and the Theorem 2/3 engines.

:func:`relation_with_join_tree` is the entry point: it returns the answers
as a :class:`~repro.relalg.relation.Relation` and optionally takes a
**seed** — a relation of key bindings the answers must join with, pushed
into the scans (the WDPT evaluator's sideways information passing from a
parent node to a child label).  :func:`evaluate_with_join_tree` is the same
run unpacked into ``Mapping`` objects.  :func:`satisfiable_with_join_tree`
is the Boolean fast path the planner routes the Theorem 6/8/9 inner loops
through: the bottom-up sweep alone decides satisfiability (the root
empties iff some relation empties), so the top-down sweep and the join
phase are skipped.

All of them cross one dispatch site, which asks
:func:`repro.relalg.config.choose_kernel` (``REPRO_KERNELS``) which
executor runs the tree:

* ``columnar`` — scan schedule, :func:`semijoin_reduce`,
  :func:`columnar_join_phase`, all on the kernels of :mod:`repro.relalg`;
* ``sql`` — on a SQLite backend, the **whole tree** runs as a single SQL
  statement (:meth:`~repro.storage.sqlite.SQLiteBackend.sql_yannakakis`):
  scans, both semi-join sweeps, and the join/projection phase are CTE
  layers, and only the final answer rows cross back into Python.

The columnar path does not scan its atoms independently: one schedule
(:func:`scan_schedule`) reads them in increasing ``db.match_bound`` and
seeds every scan with the smallest relation already scanned next to it in
the join tree, so a selective atom turns its neighbours' full scans into
a few index probes and the sweeps start from relations that are already
small.  A scan that comes back empty ends the run: the query has no
answers.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.atoms import Atom
from ..core.cq import ConjunctiveQuery
from ..core.database import Database
from ..core.mappings import Mapping
from ..core.terms import Variable
from ..exceptions import ClassMembershipError
from ..hypergraphs.gyo import JoinTree, join_tree_of_atoms, join_tree_shape
from ..relalg.config import KERNEL_SQL, choose_kernel
from ..relalg.relation import (
    Relation,
    Row,
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
) -> FrozenSet[Mapping]:
    """Yannakakis over an explicit join tree (``links``: child→parent):
    :func:`relation_with_join_tree` unpacked at the ``Mapping`` boundary."""
    return to_mappings(
        relation_with_join_tree(atoms, links, db, query.free_variables)
    )


def relation_with_join_tree(
    atoms: Sequence[Atom],
    links: Sequence[Tuple[int, int]],
    db: Database,
    frees: Iterable[Variable],
    seed: Optional[Relation] = None,
) -> Relation:
    """The answers of the CQ ``(frees, atoms)`` as a :class:`Relation`.

    ``seed`` (a relation over some of ``frees``) restricts the result to
    the answers that join with it — ``semijoin(answers, seed)`` — without
    computing the others first: the columnar executor filters every atom
    that shares a variable with it during the scan phase, the SQL
    executor ships it as a ``VALUES`` CTE.
    """
    frees = frozenset(frees)
    if seed is not None and not frees.issuperset(seed.schema):
        raise ValueError(
            "seed variables %r are not all free in the query" % (seed.schema,)
        )
    if not atoms or (seed is not None and not seed.rows):
        return Relation(sorted(frees, key=repr), [], db.codec)
    return _run(atoms, links, db, frees, seed, False)


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
    """
    if not atoms:
        return False  # mirrors evaluate_with_join_tree's empty-query result
    return _run(atoms, links, db, frozenset(), None, True)


def _run(
    atoms: Sequence[Atom],
    links: Sequence[Tuple[int, int]],
    db: Database,
    frees: FrozenSet[Variable],
    seed: Optional[Relation],
    boolean: bool,
) -> Union[Relation, bool]:
    """The one dispatch site: the tree on the executor
    :func:`~repro.relalg.config.choose_kernel` names — the answers, or
    with ``boolean`` whether there are any.

    The seeded contract, ``result == semijoin(unseeded result, seed)``,
    holds in both executors by construction: each pushes the seed into
    its scans.
    """
    tracer = current_tracer()
    kernel = choose_kernel(db)
    if boolean:
        span = tracer.span("yannakakis", atoms=len(atoms), kernel=kernel, boolean=True)
    else:
        span = tracer.span("yannakakis", atoms=len(atoms), kernel=kernel)
    with span as y_span:
        if kernel == KERNEL_SQL:
            # Scans, sweeps and the join/projection phase as one SQL
            # statement; only the answer rows cross back into Python.
            with tracer.span("yannakakis.sql") as sp:
                result = db.sql_yannakakis(
                    atoms, links, frees, exists_only=boolean, seed=seed
                )
                if not boolean:
                    account_rows(len(result))
                if tracer.enabled:
                    sp.set(**_outcome(result, boolean))
        else:
            result = _columnar(atoms, links, db, frees, seed, boolean)
        if tracer.enabled:
            y_span.set(**_outcome(result, boolean))
        return result


def _outcome(result: Union[Relation, bool], boolean: bool) -> dict:
    return {"satisfiable": result} if boolean else {"answers": len(result)}


# ---------------------------------------------------------------------------
# Columnar executor (repro.relalg kernels)
# ---------------------------------------------------------------------------
def _columnar(
    atoms: Sequence[Atom],
    links: Sequence[Tuple[int, int]],
    db: Database,
    frees: FrozenSet[Variable],
    seed: Optional[Relation],
    boolean: bool,
) -> Union[Relation, bool]:
    """Scan schedule → semi-join program → join phase; the Boolean run
    stops after the bottom-up sweep."""
    relations = scan_schedule(atoms, links, db, seed)
    if relations is not None:
        tree = join_tree_shape(links, len(atoms))
        if not semijoin_reduce(relations, tree, top_down=not boolean):
            relations = None
    if relations is None:
        return False if boolean else Relation(sorted(frees, key=repr), [], db.codec)
    if boolean:
        return True
    result = columnar_join_phase(frees, relations, tree)
    # Per-atom filtering is exact when one atom holds all the seed's
    # variables; otherwise one semi-join of the answers finishes the job.
    if seed is not None and not any(
        a.variables().issuperset(seed.schema) for a in atoms
    ):
        result = semijoin(result, seed)
    return result


class _CountedReads:
    """``db`` as one scan sees it under tracing: ``rows`` and ``probe``
    also count the facts they hand over (``facts_read`` of the
    ``yannakakis.scan`` span)."""

    __slots__ = ("db", "codec", "probe_cost", "match_bound", "facts")

    def __init__(self, db: Database):
        self.db = db
        self.codec = db.codec
        self.probe_cost = db.probe_cost
        self.match_bound = db.match_bound
        self.facts = 0

    def rows(self, pattern: Atom) -> List[Row]:
        found = list(self.db.rows(pattern))
        self.facts += len(found)
        return found

    def probe(self, pattern: Atom, variables, keys) -> List[Row]:
        found = list(self.db.probe(pattern, variables, keys))
        self.facts += len(found)
        return found


def _shares_variable(rel: Relation, pattern: Atom) -> bool:
    return not rel.index.keys().isdisjoint(pattern.args)


def scan_schedule(
    atoms: Sequence[Atom],
    links: Sequence[Tuple[int, int]],
    db: Database,
    seed: Optional[Relation] = None,
) -> Optional[List[Relation]]:
    """Phase 0, for evaluation, the Boolean path and enumeration alike:
    one relation per atom, scanned in increasing ``db.match_bound`` with
    sideways information passing along the join tree — or ``None`` as
    soon as a relation comes back empty (the query has no answers,
    nothing else needs reading).

    An atom is scanned after its join-tree neighbours of smaller bound,
    seeded with the smallest of their relations that shares a variable
    with it, so a selective atom turns its neighbours' full scans into
    index probes whenever :func:`~repro.relalg.relation.scan`'s cost rule
    says the keys are few enough.  The caller's ``seed`` is applied to
    every atom it shares a variable with — as the scan's seed when it is
    the smaller of the two, by a semi-join after it otherwise — which
    keeps the result exact in the seed whenever one atom holds all its
    variables.

    Each relation lies between the atom's fully reduced relation and its
    unseeded scan: a row is only dropped for lacking a partner in a
    neighbour's relation or in the seed, and such a row is in no answer
    that joins with the seed.  The semi-join sweeps therefore still end
    in the full reduction.
    """
    n = len(atoms)
    tracer = current_tracer()
    with tracer.span("yannakakis.scan") as sp:
        # A lone atom has nobody to be ordered against; ``scan`` asks for
        # its bound itself if a seed makes it matter.
        bounds = [db.match_bound(a) for a in atoms] if n > 1 else [None]
        neighbours: List[List[int]] = [[] for _ in range(n)]
        for child, parent in links:
            neighbours[child].append(parent)
            neighbours[parent].append(child)
        order = sorted(range(n), key=bounds.__getitem__)

        relations: List[Optional[Relation]] = [None] * n
        seeded_by: List[object] = [None] * n
        facts_read: List[Optional[int]] = [None] * n
        nonempty = 0 not in bounds
        for i in order if nonempty else ():
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
            relations[i] = rel
            if not rel.rows:
                nonempty = False
                break
        account_rows(max((len(r) for r in relations if r is not None), default=0))
        if tracer.enabled:
            sp.set(
                relation_sizes=[None if r is None else len(r) for r in relations],
                scan_order=order,
                seeded_by=seeded_by,
                facts_read=facts_read,
            )
    return relations if nonempty else None


def semijoin_reduce(
    relations: List[Relation], tree: JoinTree, top_down: bool = True
) -> bool:
    """The semi-join program of Yannakakis' algorithm, in place on
    ``relations`` (one non-empty relation per node of ``tree``): the
    bottom-up sweep (children filter parents) and, with ``top_down``, the
    top-down one (parents filter children), after which every row left
    takes part in some homomorphism of the whole tree — the *full
    reduction*.  Returns ``False`` as soon as a relation empties (no
    homomorphism exists; the remaining passes are skipped), else ``True``
    — after the bottom-up sweep alone that already decides satisfiability.

    ``tree.order`` lists parents before children.  Walked backwards, a
    node's children are final when it is reached; walked forwards from
    the second entry, its parent is.
    """
    tracer = current_tracer()
    children, parent, order = tree.children, tree.parent, tree.order
    alive = True
    with tracer.span("yannakakis.semijoin_up") as sp:
        for node in reversed(order):
            rel = relations[node]
            for child in children[node]:
                rel = semijoin(rel, relations[child])
            relations[node] = rel
            if not rel.rows:
                alive = False
                break
        if tracer.enabled:
            sp.set(relation_sizes=[len(r) for r in relations])
    if alive and top_down:
        with tracer.span("yannakakis.semijoin_down") as sp:
            for node in order[1:]:
                rel = semijoin(relations[node], relations[parent[node]])
                relations[node] = rel
                if not rel.rows:
                    alive = False
                    break
            if tracer.enabled:
                sp.set(relation_sizes=[len(r) for r in relations])
    return alive


def columnar_join_phase(
    frees: FrozenSet[Variable], relations: Sequence[Relation], tree: JoinTree
) -> Relation:
    """Phase 3: the bottom-up join/projection pass over fully reduced
    ``relations``, keeping per node the free variables and the interface
    to the parent (:func:`~repro.relalg.relation.project` drops what the
    subtree does not bind).

    A node's own relation is cut down to those variables plus its
    children's interfaces *before* the child joins: a private column —
    neither free nor shared with a tree neighbour — would only multiply
    the rows every join has to pair up."""
    tracer = current_tracer()
    partials: List[Optional[Relation]] = [None] * len(relations)
    with tracer.span("yannakakis.join") as sp:
        for node in reversed(tree.order):
            if node == tree.root:
                keep = frees
            else:
                keep = frees.union(relations[tree.parent[node]].schema)
            current = relations[node]
            children = tree.children[node]
            if children:
                current = project(
                    current, keep.union(*[partials[c].schema for c in children])
                )
            for child in children[:-1]:
                current = hash_join(current, partials[child])
                account_rows(len(current))
            # The last join emits the kept columns only: no wide
            # intermediate, no second pass over it.
            if children:
                current = hash_join(current, partials[children[-1]], keep)
            else:
                current = project(current, keep)
            account_rows(len(current))
            partials[node] = current
        if tracer.enabled:
            sp.set(partial_sizes=[len(p) for p in partials])
    return partials[tree.root]
