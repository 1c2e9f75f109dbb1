"""Bounded-treewidth CQ evaluation by bucket elimination (Theorem 2).

Theorem 2 of the paper: CQs in ``TW(k)`` evaluate in time ``|D|^{k+1}``
for fixed ``k``.  The engine is bucket elimination (Dechter, *Bucket
elimination*, AIJ 1999) over an elimination order of the query's
variables whose width is ``k``:

1. every atom's scan goes into the bucket of its earliest variable in the
   order (a ground atom is a filter, read once with ``db.exists``);
2. buckets are processed in order: a bucket joins its factors — all of
   them mention its variable, so no join is a domain product — and hands
   the join's projection without that variable to the bucket of the next
   variable left in scope.  A bucket holds at most its variable and that
   variable's neighbours at elimination time: ``k + 1`` variables;
3. the Boolean form (:func:`satisfiable_by_elimination`) first reads
   every atom once with ``db.exists``, then stops at the first empty
   bucket, and is satisfiable when none empties;
4. for answers (:func:`relation_by_elimination`), each bucket's join sits
   below the bucket its message went to — a bucket whose only factor is
   one message keeps no relation (it would be a projection of its
   sender's) and sends its sender on with the message's projection: a
   join tree whose join is the query, bottom-up consistent as built, which the top-down sweep
   (:func:`~repro.cqalgs.yannakakis.semijoin_down`) and the join phase
   (:func:`~repro.cqalgs.yannakakis.columnar_join_phase`) finish.

A **seed** (the interface keys of a parent node in the WDPT evaluator)
filters every scan that shares a variable with it and, when no factor
holds all its variables, joins the buckets that do: the width grows by
at most its ``c`` variables, ``k + c`` under ``BI(c)``.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from ..collector import collector_paused
from ..core.atoms import Atom
from ..core.cq import ConjunctiveQuery
from ..core.database import Database
from ..core.mappings import Mapping
from ..core.terms import Variable
from ..exceptions import ClassMembershipError
from ..hypergraphs.gyo import JoinTree, join_tree_shape
from ..hypergraphs.hypergraph import hypergraph_of_cq
from ..hypergraphs.treewidth import elimination_order, order_width
from ..relalg.relation import Relation, hash_join, project, scan, semijoin, to_mappings
from ..telemetry.resources import account_rows
from ..telemetry.tracer import current_tracer
from .yannakakis import _shares_variable, columnar_join_phase, seed_has_rows, semijoin_down


def evaluate_bounded_treewidth(
    query: ConjunctiveQuery, db: Database, k: Optional[int] = None
) -> FrozenSet[Mapping]:
    """``q(D)`` by bucket elimination over a minimum-width elimination
    order of the query's variables (Theorem 2 engine).

    ``k`` (optional) asserts a width bound: a wider query raises
    :class:`~repro.exceptions.ClassMembershipError`.
    """
    H = hypergraph_of_cq(query)
    order = elimination_order(H)
    width = order_width(H, order)
    if k is not None and width > k:
        raise ClassMembershipError("query has treewidth %d > requested bound %d" % (width, k))
    with collector_paused:
        return to_mappings(relation_by_elimination(query.atoms, order, db, query.free_variables))


def relation_by_elimination(
    atoms: Sequence[Atom], order: Sequence[Variable], db: Database,
    frees: Iterable[Variable], seed: Optional[Relation] = None,
) -> Relation:
    """The answers of the CQ ``(frees, atoms)`` as a :class:`Relation`, by
    bucket elimination over ``order`` (the variables of ``atoms``).  With
    ``seed`` (over some of ``frees``), ``semijoin(answers, seed)``, the
    others never computed: the contract of ``relation_with_join_tree``."""
    frees = frozenset(frees)
    with collector_paused:
        buckets = _eliminate(atoms, order, db, seed, False) if seed_has_rows(frees, seed) else None
        if buckets is None:
            return Relation(sorted(frees, key=repr), [], db.codec)
        relations, tree = buckets
        if tree is None:
            # Purely ground query that passed all filters: the empty mapping.
            return Relation((), [()], db.codec)
        semijoin_down(relations, tree)
        return columnar_join_phase(frees, relations, tree)


def satisfiable_by_elimination(
    atoms: Sequence[Atom], order: Sequence[Variable], db: Database
) -> bool:
    """Is the Boolean CQ over ``atoms`` satisfiable?  Bucket elimination
    over ``order`` (the variables of ``atoms``), stopping at the first
    empty bucket; nothing is kept once its message is sent."""
    with collector_paused:
        return _eliminate(atoms, order, db, None, True) is not None


def _eliminate(
    atoms: Sequence[Atom], order: Sequence[Variable], db: Database,
    seed: Optional[Relation], boolean: bool,
) -> Union[None, bool, Tuple[List[Relation], Optional[JoinTree]]]:
    """Run the buckets of ``order``: ``None`` as soon as an atom read up
    front has no match or a bucket empties; otherwise ``True`` when
    ``boolean``, else the bucket relations and their join tree (``None``
    for an empty ``order``)."""
    position = {v: i for i, v in enumerate(order)}
    n = len(order)
    pending: List[List[Atom]] = [[] for _ in range(n)]
    messages: List[List[Relation]] = [[] for _ in range(n)]
    for a in sorted(set(atoms)):
        variables = a.variables()
        # A ground atom is a filter; a Boolean check reads every atom once
        # before any join, so one with no match decides it at once.
        if (boolean or not variables) and not db.exists(a):
            return None
        if variables:
            pending[min(map(position.__getitem__, variables))].append(a)
    # The seed joins each bucket, up to that of its earliest variable, whose
    # factors hold all its variables together (it widens no scope there)
    # but none alone: such a factor is a seeded scan or a seeded message.
    keys = frozenset(() if seed is None else seed.schema)
    last = min(map(position.__getitem__, keys), default=-1)
    tracer = current_tracer()
    relations: List[Relation] = []
    links: List[Tuple[int, int]] = []
    # Per bucket, the join-tree nodes whose messages it received; a bucket
    # whose only factor is one message adds no node and hands its sender
    # on with the message's projection (its relation would be one).
    senders: List[List[int]] = [[] for _ in range(n)]
    loose: List[int] = []
    root = -1
    scopes: List[int] = []
    sizes: List[int] = []
    with tracer.span("elimination", variables=n, boolean=boolean) as sp:
        for i, v in enumerate(order):
            # Every factor but the seed mentions ``v``.  A scan is seeded with
            # the smallest message (in a bucket without one, the first scan),
            # so it keeps only rows that can join it, and filtered by the
            # seed wherever they share a variable.
            factors = messages[i]
            if i <= last:
                held = [a.variables() for a in pending[i]] + [f.index.keys() for f in factors]
                if (i == last or keys <= set().union(*held)) and not any(keys <= h for h in held):
                    factors.append(seed)
            forward = len(factors) == 1 and not pending[i]
            factors.sort(key=len)
            for a in pending[i]:
                via = factors[0] if factors else None
                seeded = seed is not None and _shares_variable(seed, a)
                if seeded and (via is None or len(seed) <= len(via)):
                    via = seed
                rel = scan(a, db, via)
                if seeded and via is not seed:
                    rel = semijoin(rel, seed)
                account_rows(len(rel))
                if not rel.rows:
                    return None
                factors.append(rel)
            factors.sort(key=len)
            rest = frozenset().union(*[f.schema for f in factors]) - {v}
            joined, factors = factors[0], factors[1:]
            while factors:
                # The smallest factor sharing a variable with the join so far;
                # the Boolean form's last join emits the message's columns only.
                f = next((f for f in factors if joined.index.keys() & f.index.keys()),
                         factors[0])
                factors.remove(f)
                joined = hash_join(joined, f, rest if boolean and not factors else None)
                account_rows(len(joined))
            if not joined.rows:
                return None
            if tracer.enabled:
                scopes.append(len(rest) + 1)
                sizes.append(len(joined))
            if boolean:
                node = -1
            elif forward:
                (node,) = senders[i]
            else:
                node = len(relations)
                relations.append(joined)
                links.extend((sender, node) for sender in senders[i])
            if rest:
                parent = min(map(position.__getitem__, rest))
                messages[parent].append(project(joined, rest))
                senders[parent].append(node)
            elif i != n - 1:
                loose.append(node)
            else:
                root = node
        if tracer.enabled:
            sp.set(bucket_variables=scopes, bucket_rows=sizes)
    if boolean:
        return True
    links.extend((node, root) for node in loose)
    return relations, (join_tree_shape(links, len(relations)) if n else None)
