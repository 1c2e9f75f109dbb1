"""WDPT semantics and the general (exponential) evaluation algorithms.

Definition 2 of the paper: a homomorphism from ``p = (T, λ, x̄)`` to a
database ``D`` is a partial mapping that is a total homomorphism of
``q_{T'}`` for some rooted subtree ``T'``; ``p(D)`` collects the
projections ``h|_x̄`` of the *maximal* such homomorphisms, and ``p_m(D)``
(Section 3.4) keeps only the ⊑-maximal elements of ``p(D)`` — every one
of them when ``p`` is projection-free (:func:`maximal_answers`).

Two independent evaluators are provided and cross-checked in the tests:

* :func:`homomorphisms_reference` — literal subtree enumeration (the
  definition, exponential in ``|T|``);
* :func:`maximal_homomorphisms` / :func:`evaluate` — the top-down
  evaluator (the natural OPT-style algorithm; still exponential in the
  worst case, as it must be — ``EVAL`` is Σ₂ᵖ-complete for arbitrary
  WDPTs, Theorem 1).

The top-down evaluator is **set-at-a-time**: one recursion step per tree
node, over relations (:mod:`repro.relalg`), never per parent mapping.

1. *Node relation.*  The root's relation is ``λ(root)`` evaluated as a
   full CQ.  For a child ``c`` of ``t``, ``t``'s relation is projected
   onto the interface ``vars(t) ∩ vars(c)`` and ``λ(c)`` is evaluated
   **once**, *seeded* with those keys, on the label's answers plan
   (:meth:`~repro.planner.plan.NodePlan.relation`: Yannakakis when the
   label is acyclic, bucket elimination when not).  The keys filter every
   scanned atom they share a variable with, and the result holds exactly
   the homomorphisms of ``λ(c)`` that some row of ``t`` can be extended by.
2. *Product.*  ``c``'s relation is extended into its own subtree the same
   way, then grouped by interface key.  Sibling subtrees share variables
   only through ``t``, so each row ``h`` of ``t`` yields ``{h} ⨝ ∏_c
   group_c(h|interface)``: one left outer hash join per child, the rows
   keeping all of ``t``'s columns until the last one.  A key without a
   group is an OPT branch that fails: its columns are padded with
   ``None`` (unbound).
3. *Mapping boundary.*  Relations become ``Mapping`` objects once, at
   the final answer set.

A run allocates no reference cycles, so it holds one pause of the cyclic
collector (:mod:`repro.collector`) from the root's node relation
to the last answer.

:func:`evaluate` returns only ``x̄``-projections, so it projects every
node's output onto the free and interface variables as it goes, and it
skips (node ids unchanged) every node outside the keep-set of
:func:`~repro.wdpt.transform.free_branch_nodes` — step 1 of the paper's
Lemma 1, which preserves ``p(D)`` exactly.  :func:`maximal_homomorphisms`
keeps every node and every variable.

``EVAL``, the exact-membership decision problem, is solved here by full
enumeration; the polynomial algorithm for ``ℓ-C ∩ BI(c)`` lives in
:mod:`repro.wdpt.eval_tractable`.
"""

from __future__ import annotations

import time
from itertools import repeat
from operator import mul
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..collector import collector_paused
from ..core.database import Database
from ..core.mappings import Mapping, maximal_mappings
from ..core.terms import Variable
from ..cqalgs.naive import homomorphisms as cq_homomorphisms
from ..planner.profile import StructuralProfile
from ..relalg.relation import (
    Relation,
    Row,
    group_by,
    key_getter,
    project,
    to_mappings,
    tuples_at,
)
from ..telemetry.resources import account_rows, account_subquery
from ..telemetry.tracer import current_tracer
from .subtrees import interface_to_parent
from .transform import free_branch_nodes
from .tree import ROOT
from .wdpt import WDPT

if TYPE_CHECKING:  # pragma: no cover - import cycle at runtime
    from ..planner.profile import TreeProfile


# ---------------------------------------------------------------------------
# Reference semantics: literal Definition 2
# ---------------------------------------------------------------------------
def homomorphisms_reference(p: WDPT, db: Database) -> FrozenSet[Mapping]:
    """All homomorphisms from ``p`` to ``db`` (not only maximal ones),
    via rooted-subtree enumeration."""
    out: Set[Mapping] = set()
    for nodes in p.tree.rooted_subtrees():
        atoms = p.atoms_of(nodes)
        out.update(cq_homomorphisms(atoms, db))
    return frozenset(out)


def evaluate_reference(p: WDPT, db: Database) -> FrozenSet[Mapping]:
    """``p(D)`` by the book: maximal homomorphisms, projected to ``x̄``."""
    maximal = maximal_mappings(homomorphisms_reference(p, db))
    return frozenset(h.restrict(p.free_variables) for h in maximal)


# ---------------------------------------------------------------------------
# Top-down evaluator, one relation per tree node
# ---------------------------------------------------------------------------
class _TreeEvaluation:
    """One run of the set-at-a-time recursion (see the module docstring).

    ``frees is None`` keeps every variable (the maximal homomorphisms
    themselves); otherwise only ``frees`` survive and the nodes outside
    the Lemma 1 keep-set are never evaluated.
    """

    def __init__(
        self,
        p: WDPT,
        db: Database,
        profile: "Optional[TreeProfile]",
        frees: Optional[FrozenSet[Variable]],
        tracing: bool,
    ):
        self.p = p
        self.db = db
        self.profile = profile
        kept = set(p.tree.nodes()) if frees is None else free_branch_nodes(p)
        self.children: Dict[int, List[int]] = {
            node: [c for c in p.tree.children(node) if c in kept] for node in kept
        }
        #: Output columns per node: its own kept variables, then each kept
        #: child's columns that the node does not bind itself.  Static, so
        #: a failed branch can be padded without evaluating below it.
        self.own: Dict[int, Tuple[Variable, ...]] = {}
        self.schema: Dict[int, Tuple[Variable, ...]] = {}
        for node in sorted(kept, reverse=True):  # children before parents
            variables = p.node_variables(node)
            wanted = variables
            if frees is not None:
                wanted = (variables & frees) | interface_to_parent(p, node)
            self.own[node] = tuple(sorted(wanted, key=repr))
            self.schema[node] = self.own[node] + tuple(
                v
                for child in self.children[node]
                for v in self.schema[child]
                if v not in variables
            )
        #: Node relations, plan engines and per-child wall time, kept only
        #: for node_stats.
        self.relations: Optional[Dict[int, Relation]] = {} if tracing else None
        self.engines: Dict[int, str] = {}
        self.seconds: Dict[int, float] = {}

    # -- node relations ---------------------------------------------------
    def node_relation(self, node: int, keys: Optional[Relation]) -> Relation:
        """The homomorphisms of ``λ(node)`` that join with ``keys`` (the
        parent relation projected onto the interface; ``None`` at the
        root) — one CQ per tree node, on the label's answers plan: the
        planner's memoised one when a profile was supplied, so a hot query
        pays for the sort, the GYO reduction and the tree's shape once."""
        account_subquery()
        variables = self.p.node_variables(node)
        if self.profile is not None:
            analysed = self.profile.node_profile(node)
        else:
            analysed = StructuralProfile(self.p.labels[node])
        plan = analysed.answers_plan
        rel = plan.relation(analysed.sorted_atoms, self.db, variables, keys)
        account_rows(len(rel))
        if self.relations is not None:
            self.relations[node] = rel
            self.engines[node] = plan.engine
        return rel

    # -- the product decomposition ------------------------------------------
    def branch(self, node: int, rel: Relation, child: int):
        """How ``child``'s subtree extends the rows of ``rel`` (``node``'s
        relation): ``(key of a row, {key: extension rows}, padding)``."""
        start = time.perf_counter() if self.relations is not None else 0.0
        shared = [v for v in rel.schema if v in self.p.node_variables(child)]
        found = self.node_relation(child, project(rel, shared))
        groups = group_by(self.extensions(child, found), shared) if found.rows else {}
        if self.relations is not None:
            self.seconds[child] = time.perf_counter() - start
        key_of = key_getter([rel.index[v] for v in shared])
        return key_of, groups, (None,) * (len(self.schema[child]) - len(shared))

    def extensions(self, node: int, rel: Relation) -> Relation:
        """``rel`` (``node``'s relation) extended into the subtree below:
        ``{h} ⨝ ∏_c branch(c, h|shared)`` per row ``h``, as one left outer
        hash join per child (a key without a group is the failed OPT
        branch, padded), then projected onto the kept variables."""
        # Nothing to extend (only the root can be empty): no child CQs.
        children = self.children[node] if rel.rows else ()
        rows: Iterable[Row] = rel.rows
        # Every row keeps all of rel.schema in front, where each branch's
        # key_of reads its interface key as the row grows.
        for key_of, groups, padding in [self.branch(node, rel, c) for c in children]:
            found = map(groups.get, map(key_of, rows), repeat((padding,)))
            rows = [r + e for r, group in zip(rows, found) for e in group]
        own = self.own[node]
        if own != rel.schema:
            width = len(rel.schema) + len(self.schema[node]) - len(own)
            at = [rel.index[v] for v in own] + list(range(len(rel.schema), width))
            rows = tuples_at(rows, at)
        if len(own) < len(rel.schema):
            rows = set(rows)  # the projection may have merged rows
        out = Relation(self.schema[node], rows, rel.codec)
        account_rows(len(out))
        return out

    # -- node_stats ---------------------------------------------------------
    def node_stats(self) -> Dict[int, Dict[str, Any]]:
        """Per evaluated node: ``candidates`` — homomorphisms of the
        root→node path CQ, ``extensions`` — their maximal extensions into
        the node's subtree (what the mapping-at-a-time evaluator counted
        one by one), ``seconds`` — inclusive wall time, ``engines`` —
        ``{plan engine: 1}`` for the node relation's one run.  A path
        homomorphism is a chain of node-relation rows agreeing on the
        interfaces, so both counts follow from the relations alone."""
        relations = self.relations
        nodes = sorted(relations)  # parents first
        parent_of = self.p.tree.parent
        #: Per non-root node: (interface key of a parent row, of its own row).
        keys = {}
        for node in nodes[1:]:
            upper, lower = relations[parent_of(node)], relations[node]
            shared = [v for v in upper.schema if v in lower.index]
            keys[node] = (
                key_getter([upper.index[v] for v in shared]),
                key_getter([lower.index[v] for v in shared]),
            )

        def total_by_key(key_of, rel: Relation, counts: List[int]) -> Dict[Any, int]:
            totals: Dict[Any, int] = {}
            for row, count in zip(rel.rows, counts):
                key = key_of(row)
                totals[key] = totals.get(key, 0) + count
            return totals

        # Top-down: how many path homomorphisms end in each row.
        paths: Dict[int, List[int]] = {ROOT: [1] * len(relations[ROOT])}
        for node in nodes[1:]:
            parent = parent_of(node)
            above = total_by_key(keys[node][0], relations[parent], paths[parent])
            paths[node] = [above[keys[node][1](row)] for row in relations[node].rows]
        # Bottom-up: how many maximal subtree extensions each row has (a
        # child no row reaches is a failed branch: factor 1).
        below: Dict[int, List[int]] = {}
        for node in reversed(nodes):
            below[node] = [1] * len(relations[node])
            for child in self.children[node]:
                if child in relations:
                    under = total_by_key(keys[child][1], relations[child], below[child])
                    below[node] = [
                        count * under.get(keys[child][0](row), 1)
                        for count, row in zip(below[node], relations[node].rows)
                    ]
        stats: Dict[int, Dict[str, Any]] = {}
        for node in nodes:
            stats[node] = {
                "candidates": sum(paths[node]),
                "extensions": sum(map(mul, paths[node], below[node])),
                "engines": {self.engines[node]: 1},
            }
            if node in self.seconds:
                stats[node]["seconds"] = self.seconds[node]
        return stats


def _evaluate_tree(
    p: WDPT,
    db: Database,
    profile: "Optional[TreeProfile]",
    frees: Optional[FrozenSet[Variable]],
) -> FrozenSet[Mapping]:
    tracer = current_tracer()
    # The node relations, their extensions and the answers allocate no
    # reference cycles: the cyclic collector is paused for the whole run.
    with collector_paused, tracer.span("wdpt.maximal_homomorphisms") as sp:
        run = _TreeEvaluation(p, db, profile, frees, tracer.enabled)
        out = run.extensions(ROOT, run.node_relation(ROOT, None))
        if tracer.enabled:
            stats = run.node_stats()
            sp.set(node_stats=stats, maximal=stats[ROOT]["extensions"])
        # A single evaluated node has no OPT branch that could fail.
        return to_mappings(out, partial=len(run.children) > 1)


def maximal_homomorphisms(
    p: WDPT, db: Database, profile: "Optional[TreeProfile]" = None
) -> FrozenSet[Mapping]:
    """The maximal homomorphisms from ``p`` to ``db``, grown top-down.

    Well-designedness makes a node's variables a separator: two sibling
    subtrees can only share variables through their common parent.  Given a
    homomorphism of the parent, the extensions into different children are
    therefore *independent*, and the maximal homomorphisms decompose as a
    product:

        ``max(t, h) = {h} ⨝ ∏_{c child of t} branch(c, h|_{shared})``

    where ``branch(c, σ)`` is the set of maximal extensions into ``c``'s
    subtree — or the trivial ``{σ}`` when ``λ(c)`` admits no extension at
    all (the OPT branch simply fails).  A child that *is* extendable must
    be extended in every maximal homomorphism, which is exactly what the
    product encodes: one left outer hash join of the node's rows per
    child.  No a-posteriori maximality filtering is needed.

    When tracing is enabled (:mod:`repro.telemetry`) the per-node
    candidate counts, maximal-extension counts and inclusive wall times
    are attached to the ``wdpt.maximal_homomorphisms`` span as
    ``node_stats`` and joined with the static profile by
    ``Session.analyze``.
    """
    return _evaluate_tree(p, db, profile, None)


def evaluate(
    p: WDPT, db: Database, profile: "Optional[TreeProfile]" = None
) -> FrozenSet[Mapping]:
    """``p(D)`` via the top-down evaluator.

    ``profile`` (an optional planner :class:`TreeProfile`) supplies the
    memoised per-node answers plans; without it each label gets a bare
    profile of its own, so the answer never depends on whether a profile
    was passed.

    >>> from repro.core import atom, Database, Mapping
    >>> from repro.wdpt.wdpt import wdpt_from_nested
    >>> p = wdpt_from_nested(
    ...     ([atom("E", "?x", "?y")], [([atom("F", "?y", "?z")], [])]),
    ...     free_variables=["?x", "?z"],
    ... )
    >>> db = Database([atom("E", 1, 2)])
    >>> evaluate(p, db) == frozenset([Mapping({"?x": 1})])
    True
    """
    tracer = current_tracer()
    with tracer.span("wdpt.evaluate", nodes=len(p.tree)) as sp:
        answers = _evaluate_tree(p, db, profile, frozenset(p.free_variables))
        if tracer.enabled:
            sp.set(answers=len(answers))
        return answers


def maximal_answers(p: WDPT, answers: FrozenSet[Mapping]) -> FrozenSet[Mapping]:
    """``p_m(D)`` from ``answers = p(D)``: the ⊑-maximal answers (Section
    3.4).  A projection-free ``p``'s answers are its maximal
    homomorphisms, none of which another homomorphism strictly extends,
    so they are returned as they are, with no ⊑-filter."""
    return answers if p.is_projection_free() else maximal_mappings(answers)


def evaluate_max(
    p: WDPT, db: Database, profile: "Optional[TreeProfile]" = None
) -> FrozenSet[Mapping]:
    """``p_m(D)``: the ⊑-maximal answers (Section 3.4)."""
    tracer = current_tracer()
    with tracer.span("wdpt.evaluate_max") as sp:
        answers = maximal_answers(p, evaluate(p, db, profile))
        if tracer.enabled:
            sp.set(answers=len(answers), filtered=not p.is_projection_free())
        return answers


# ---------------------------------------------------------------------------
# Decision problems, by enumeration (the general, hard case)
# ---------------------------------------------------------------------------
def eval_check(p: WDPT, db: Database, h: Mapping) -> bool:
    """``EVAL``: is ``h ∈ p(D)``?  (General algorithm: full enumeration.)"""
    return h in evaluate(p, db)


def max_eval_check(p: WDPT, db: Database, h: Mapping) -> bool:
    """``MAX-EVAL``: is ``h ∈ p_m(D)``?  (General algorithm.)"""
    return h in evaluate_max(p, db)
