"""Structure-exploiting CQ evaluation: bounded treewidth and hypertreewidth.

These engines realize Theorems 2 and 3 of the paper: CQs in ``TW(k)`` /
``HW(k)`` evaluate in polynomial time for fixed ``k``.  Both reduce the CQ
to an *acyclic* instance and finish with Yannakakis:

1. compute a (hyper)tree decomposition of the query hypergraph;
2. materialize one relation per decomposition node ("bag"): the join of
   the atoms assigned to / covering the bag, projected onto the bag's
   variables (cost ``|D|^{k+1}`` resp. ``|D|^k``);
3. the bag relations are an acyclic instance with the decomposition tree
   as its join tree: hand them to the semi-join program
   (:func:`~repro.cqalgs.yannakakis.semijoin_reduce`) — for a Boolean
   question (:func:`satisfiable_with_decomposition`) its bottom-up sweep
   alone decides, and the run stops there;
4. assemble the answers with the join/projection phase
   (:func:`~repro.cqalgs.yannakakis.columnar_join_phase`).

Every original atom is assigned to some bag (guaranteed by decomposition
condition (2)), so the join of the bag relations is the original query.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..collector import collector_paused
from ..core.atoms import Atom
from ..core.cq import ConjunctiveQuery
from ..core.database import Database
from ..core.mappings import Mapping
from ..core.terms import Variable
from ..exceptions import ClassMembershipError
from ..hypergraphs.gyo import join_tree_shape
from ..hypergraphs.hypergraph import hypergraph_of_cq
from ..hypergraphs.hypertree import hypertree_decomposition
from ..hypergraphs.treedecomp import TreeDecomposition
from ..hypergraphs.treewidth import tree_decomposition
from ..relalg.relation import Relation, hash_join, project, scan, to_mappings
from ..telemetry.resources import account_rows
from .yannakakis import columnar_join_phase, semijoin_reduce


def evaluate_bounded_treewidth(
    query: ConjunctiveQuery,
    db: Database,
    k: Optional[int] = None,
    decomposition: Optional[TreeDecomposition] = None,
) -> FrozenSet[Mapping]:
    """``q(D)`` via a tree decomposition (Theorem 2 engine).

    ``k`` (optional) asserts a width bound: a wider decomposition raises
    :class:`~repro.exceptions.ClassMembershipError`.
    """
    H = hypergraph_of_cq(query)
    td = decomposition if decomposition is not None else tree_decomposition(H)
    if k is not None and td.width() > k:
        raise ClassMembershipError(
            "query has treewidth %d > requested bound %d" % (td.width(), k)
        )
    return _evaluate_with_decomposition(query, db, td)


def evaluate_bounded_hypertreewidth(
    query: ConjunctiveQuery,
    db: Database,
    k: Optional[int] = None,
    decomposition: Optional[TreeDecomposition] = None,
) -> FrozenSet[Mapping]:
    """``q(D)`` via a generalized hypertree decomposition (Theorem 3 engine)."""
    H = hypergraph_of_cq(query)
    td = decomposition if decomposition is not None else hypertree_decomposition(H)
    if td.covers is None:
        raise ClassMembershipError("decomposition has no edge covers")
    if k is not None and td.hypertree_width() > k:
        raise ClassMembershipError(
            "query has hypertreewidth %d > requested bound %d"
            % (td.hypertree_width(), k)
        )
    return _evaluate_with_decomposition(query, db, td)


def satisfiable_with_decomposition(
    atoms: Sequence[Atom], td: TreeDecomposition, db: Database
) -> bool:
    """Boolean twin of the two engines above: is the Boolean CQ over
    ``atoms`` satisfiable, given a decomposition ``td`` of its hypergraph?

    After the bottom-up semi-join sweep over the bag relations the root
    bag is non-empty iff the query is satisfiable, so the top-down sweep
    and the join phase never run and nothing is assembled — the
    decomposition counterpart of
    :func:`~repro.cqalgs.yannakakis.satisfiable_with_join_tree`.
    """
    relations = _bag_relations(atoms, td, db)
    if relations is None:
        return False
    if not relations:
        return True  # purely ground, and every atom holds
    tree = join_tree_shape(_decomposition_links(td), len(relations))
    return semijoin_reduce(relations, tree, top_down=False)


def _evaluate_with_decomposition(
    query: ConjunctiveQuery, db: Database, td: TreeDecomposition
) -> FrozenSet[Mapping]:
    # Bags, sweeps, join phase and answers allocate no reference cycles:
    # the cyclic collector is paused for the whole build.
    with collector_paused:
        relations = _bag_relations(query.atoms, td, db)
        if relations is None:
            return frozenset()
        if not relations:
            # Purely ground query that passed all filters: the empty mapping.
            return frozenset([Mapping()]) if not query.free_variables else frozenset()
        tree = join_tree_shape(_decomposition_links(td), len(relations))
        if not semijoin_reduce(relations, tree):
            return frozenset()
        return to_mappings(
            columnar_join_phase(frozenset(query.free_variables), relations, tree)
        )


def _bag_relations(
    atoms: Iterable[Atom], td: TreeDecomposition, db: Database
) -> Optional[List[Relation]]:
    """One non-empty relation per bag of ``td`` — the acyclic instance
    both forms hand to the semi-join program; ``None`` as soon as a ground
    atom has no matching fact or a bag relation is empty (no answers), and
    ``[]`` when every atom is ground and all of them hold."""
    # Ground atoms (no variables) are global filters.
    variable_atoms: List[Atom] = []
    for a in sorted(set(atoms)):
        if a.variables():
            variable_atoms.append(a)
        elif not any(True for _ in db.match(a)):
            return None
    if not variable_atoms:
        return []

    assignment = _assign_atoms_to_bags(variable_atoms, td)

    # Materialize one relation per bag: its cover edges' and assigned
    # atoms' relations, then a unary domain per variable still uncovered.
    # An empty bag (a padding node of a degenerate decomposition) is the
    # Boolean *true* relation, which constrains nothing.
    relations: List[Relation] = []
    for i, bag in enumerate(td.bags):
        covering = [
            _atom_with_variables(variable_atoms, edge)
            for edge in (td.covers[i] if td.covers is not None else ())
        ]
        relation = Relation((), [()], db.codec)
        for a in covering + assignment.get(i, []):
            relation = _join(relation, scan(a, db))
        for v in sorted(bag.difference(relation.schema), key=repr):
            relation = _join(relation, _unary_domain(v, variable_atoms, db))
        relation = project(relation, bag)
        if not relation.rows:
            return None
        relations.append(relation)
    return relations


def _join(left: Relation, right: Relation) -> Relation:
    """One factor joined into a bag relation, the intermediate result
    accounted so a hard row budget stops a bag blow-up where it starts."""
    joined = hash_join(left, right)
    account_rows(len(joined))
    return joined


def _assign_atoms_to_bags(
    atoms: Sequence[Atom], td: TreeDecomposition
) -> Dict[int, List[Atom]]:
    assignment: Dict[int, List[Atom]] = {}
    for a in atoms:
        vs = a.variables()
        for i, bag in enumerate(td.bags):
            if vs <= bag:
                assignment.setdefault(i, []).append(a)
                break
        else:
            raise ClassMembershipError(
                "decomposition has no bag containing atom %r" % (a,)
            )
    return assignment


def _atom_with_variables(atoms: Sequence[Atom], variables: FrozenSet[Variable]) -> Atom:
    for a in atoms:
        if a.variables() == variables:
            return a
    raise ClassMembershipError(
        "cover edge %r corresponds to no atom" % (sorted(map(repr, variables)),)
    )


def _unary_domain(v: Variable, atoms: Sequence[Atom], db: Database) -> Relation:
    """All values ``v`` can take in any atom mentioning it (a tight unary
    relation used to pad bag variables not covered by local atoms)."""
    for a in atoms:
        if v in a.variables():
            return project(scan(a, db), [v])
    raise ClassMembershipError("variable %r occurs in no atom" % (v,))


def _decomposition_links(td: TreeDecomposition) -> List[Tuple[int, int]]:
    """The decomposition tree as child→parent links, rooted at node 0."""
    links: List[Tuple[int, int]] = []
    seen = {0}
    stack = [0]
    while stack:
        node = stack.pop()
        for neighbour in td.neighbours(node) - seen:
            seen.add(neighbour)
            links.append((neighbour, node))
            stack.append(neighbour)
    return links
