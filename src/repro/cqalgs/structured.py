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
3. the Boolean form (:func:`satisfiable_by_elimination`) stops at the
   first empty bucket, and is satisfiable when none empties;
4. for answers, each bucket's join sits below the bucket its message went
   to, so the buckets form a join tree of an acyclic instance whose join
   is the query: the semi-join program
   (:func:`~repro.cqalgs.yannakakis.semijoin_reduce`) and the join phase
   (:func:`~repro.cqalgs.yannakakis.columnar_join_phase`) finish, as for
   any acyclic query.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Tuple, Union

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
from ..relalg.relation import Relation, hash_join, project, scan, to_mappings
from ..telemetry.resources import account_rows
from ..telemetry.tracer import current_tracer
from .yannakakis import columnar_join_phase, semijoin_reduce


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
        raise ClassMembershipError(
            "query has treewidth %d > requested bound %d" % (width, k)
        )
    with collector_paused:
        buckets = _eliminate(query.atoms, order, db, False)
        if buckets is None:
            return frozenset()
        relations, tree = buckets
        if tree is None:
            # Purely ground query that passed all filters: the empty mapping.
            return frozenset([Mapping()])
        if not semijoin_reduce(relations, tree):
            return frozenset()
        return to_mappings(
            columnar_join_phase(frozenset(query.free_variables), relations, tree)
        )


def satisfiable_by_elimination(
    atoms: Sequence[Atom], order: Sequence[Variable], db: Database
) -> bool:
    """Is the Boolean CQ over ``atoms`` satisfiable?  Bucket elimination
    over ``order`` (the variables of ``atoms``), stopping at the first
    empty bucket; nothing is kept once its message is sent."""
    with collector_paused:
        return _eliminate(atoms, order, db, True) is not None


def _eliminate(
    atoms: Sequence[Atom], order: Sequence[Variable], db: Database, boolean: bool
) -> Union[None, bool, Tuple[List[Relation], Optional[JoinTree]]]:
    """Run the buckets of ``order``: ``None`` as soon as a ground atom
    fails or a bucket empties; otherwise ``True`` when ``boolean``, else
    the bucket relations and their join tree (``None`` for an empty
    ``order``)."""
    position = {v: i for i, v in enumerate(order)}
    n = len(order)
    pending: List[List[Atom]] = [[] for _ in range(n)]
    messages: List[List[Relation]] = [[] for _ in range(n)]
    for a in sorted(set(atoms)):
        variables = a.variables()
        if not variables:
            if not db.exists(a):
                return None
        else:
            pending[min(map(position.__getitem__, variables))].append(a)
    tracer = current_tracer()
    relations: List[Relation] = []
    links: List[Tuple[int, int]] = []
    scopes: List[int] = []
    sizes: List[int] = []
    with tracer.span("elimination", variables=n, boolean=boolean) as sp:
        for i, v in enumerate(order):
            # Every factor mentions ``v``.  The scans are seeded with the
            # smallest message, so they keep only rows that can join it.
            factors = sorted(messages[i], key=len)
            seed = factors[0] if factors else None
            for a in pending[i]:
                rel = scan(a, db, seed)
                account_rows(len(rel))
                if not rel.rows:
                    return None
                factors.append(rel)
            factors.sort(key=len)
            rest = frozenset().union(*[f.schema for f in factors]) - {v}
            joined = factors[0]
            for f in factors[1:-1]:
                joined = hash_join(joined, f)
                account_rows(len(joined))
            if len(factors) > 1:
                # The Boolean form emits the message's columns only.
                joined = hash_join(joined, factors[-1], rest if boolean else None)
                account_rows(len(joined))
            if not joined.rows:
                return None
            if tracer.enabled:
                scopes.append(len(rest) + 1)
                sizes.append(len(joined))
            if not boolean:
                relations.append(joined)
            if rest:
                parent = min(map(position.__getitem__, rest))
                messages[parent].append(project(joined, rest))
                links.append((i, parent))
            elif i != n - 1:
                links.append((i, n - 1))
        if tracer.enabled:
            sp.set(bucket_variables=scopes, bucket_rows=sizes)
    if boolean:
        return True
    return relations, (join_tree_shape(links, n) if n else None)
