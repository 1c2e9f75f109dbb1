"""Well-designed pattern trees (Definition 1).

A WDPT over a schema ``σ`` is a triple ``(T, λ, x̄)``:

1. ``T`` is a tree rooted in ``r`` and ``λ`` labels each node with a set of
   relational atoms;
2. *well-designedness*: for every variable ``y``, the nodes of ``T``
   mentioning ``y`` form a connected subgraph of ``T``;
3. ``x̄`` is a tuple of distinct *free variables* mentioned in ``T``.

:class:`WDPT` is immutable.  It exposes the two derived CQs the paper works
with for a rooted subtree ``T'``:

* ``q_{T'}``  (:meth:`WDPT.subtree_cq`): all variables of ``T'`` free —
  the CQ whose homomorphisms (total mappings) define the semantics;
* ``r_{T'}``  (:meth:`WDPT.subtree_answer_cq`): projected to ``x̄`` —
  the CQ used by the ``φ_cq`` construction of Section 6.

Nodes carry *non-empty* atom sets; this matches every construction in the
paper and keeps per-node CQs well-formed.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping as TMapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.atoms import Atom, constants_of, variables_of
from ..core.canonical import freeze_atoms
from ..core.cq import ConjunctiveQuery
from ..core.terms import Constant, Variable, term
from ..exceptions import NotWellDesignedError, SchemaError
from .tree import ROOT, PatternTree

#: A nested-list description of a labelled tree: ``(atoms, [children…])``.
NestedNode = Tuple[Iterable[Atom], Sequence["NestedNode"]]


class WDPT:
    """A well-designed pattern tree ``(T, λ, x̄)``.

    Parameters
    ----------
    tree:
        The rooted tree ``T``.
    labels:
        ``λ``: one non-empty atom set per node id of ``tree``.
    free_variables:
        ``x̄``: distinct variables mentioned somewhere in the tree.

    Raises
    ------
    NotWellDesignedError
        If some variable's occurrence nodes are disconnected.
    SchemaError
        On malformed labels or free variables.
    """

    __slots__ = (
        "tree", "labels", "free_variables", "_node_vars", "_hash", "_fingerprint",
        "_top_nodes", "_frozen",
    )

    def __init__(
        self,
        tree: PatternTree,
        labels: Sequence[Iterable[Atom]],
        free_variables: Iterable[object] = (),
    ):
        if len(labels) != len(tree):
            raise SchemaError(
                "tree has %d nodes but %d labels were given" % (len(tree), len(labels))
            )
        label_sets: List[FrozenSet[Atom]] = []
        for node, atoms in enumerate(labels):
            atom_set = frozenset(atoms)
            if not atom_set:
                raise SchemaError("node %d has an empty label" % node)
            label_sets.append(atom_set)
        self.tree = tree
        self.labels: Tuple[FrozenSet[Atom], ...] = tuple(label_sets)
        self._node_vars: Tuple[FrozenSet[Variable], ...] = tuple(
            variables_of(label) for label in self.labels
        )
        frees: List[Variable] = []
        for v in free_variables:
            t = term(v)
            if not isinstance(t, Variable):
                raise SchemaError("free variable expected, got %r" % (v,))
            frees.append(t)
        if len(set(frees)) != len(frees):
            raise SchemaError("free variables must be distinct: %r" % (frees,))
        all_vars = self.variables()
        stray = [v for v in frees if v not in all_vars]
        if stray:
            raise SchemaError("free variables %r are not mentioned in the tree" % (stray,))
        self.free_variables: Tuple[Variable, ...] = tuple(frees)
        self._check_well_designed()
        self._hash = hash((self.tree, self.labels, self.free_variables))
        self._fingerprint: Optional[str] = None
        self._top_nodes: Optional[Dict[Variable, int]] = None
        self._frozen: Optional[Tuple[Tuple[Tuple[Atom, ...], ...], Dict[Variable, Constant]]] = None

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def label(self, node: int) -> FrozenSet[Atom]:
        """``λ(node)``."""
        return self.labels[node]

    def node_variables(self, node: int) -> FrozenSet[Variable]:
        """Variables mentioned in ``λ(node)``."""
        return self._node_vars[node]

    def variables(self) -> FrozenSet[Variable]:
        """All variables mentioned in the tree."""
        out: set = set()
        for vs in self._node_vars:
            out |= vs
        return frozenset(out)

    def constants(self) -> FrozenSet[Constant]:
        """All constants mentioned in the tree."""
        out: set = set()
        for label in self.labels:
            out |= constants_of(label)
        return frozenset(out)

    def existential_variables(self) -> FrozenSet[Variable]:
        return self.variables() - frozenset(self.free_variables)

    def is_projection_free(self) -> bool:
        """Does ``x̄`` contain every variable of the tree (Definition 1)?"""
        return frozenset(self.free_variables) == self.variables()

    def size(self) -> int:
        """``|p|``: size of ``q_T`` in standard relational notation."""
        return sum(a.arity for label in self.labels for a in label)

    def atom_count(self) -> int:
        return sum(len(label) for label in self.labels)

    def is_single_node(self) -> bool:
        return len(self.tree) == 1

    def structural_fingerprint(self) -> str:
        """A stable, canonical key for the tree's structure.

        Independent of object identity, per-node atom ordering, and the
        per-process hash seed; the tree shape, sorted node labels, and free
        tuple are serialized and digested.  Used as the plan-cache key by
        :mod:`repro.planner`.
        """
        if self._fingerprint is None:
            import hashlib

            parts = ["wdpt|%r" % (tuple(self.tree.parent(n) for n in self.tree.nodes() if n != 0),)]
            parts.append(",".join(repr(v) for v in self.free_variables))
            for label in self.labels:
                parts.append(";".join(repr(a) for a in sorted(label)))
            self._fingerprint = hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()
        return self._fingerprint

    def top_nodes(self) -> Dict[Variable, int]:
        """``variable → its top node``: the node mentioning it closest to
        the root (unique by well-designedness; node ids are parents-first,
        so it is the smallest id).  Computed once per tree."""
        if self._top_nodes is None:
            top: Dict[Variable, int] = {}
            for node in reversed(self.tree.nodes()):
                top.update(dict.fromkeys(self._node_vars[node], node))
            self._top_nodes = top
        return self._top_nodes

    def frozen_labels(self) -> Tuple[Tuple[Tuple[Atom, ...], ...], Dict[Variable, Constant]]:
        """``(labels, freezing)``: every node's label as ground atoms over
        frozen variables, and the ``variable → frozen constant`` map they
        share — the building blocks of the canonical databases ``D_S`` of
        Section 4.  Computed once per tree."""
        if self._frozen is None:
            freezing: Dict[Variable, Constant] = {}
            self._frozen = (
                tuple(freeze_atoms(label, freezing) for label in self.labels),
                freezing,
            )
        return self._frozen

    # ------------------------------------------------------------------
    # Derived CQs
    # ------------------------------------------------------------------
    def atoms_of(self, nodes: Iterable[int]) -> FrozenSet[Atom]:
        """Union of the labels of ``nodes``."""
        out: set = set()
        for n in nodes:
            out |= self.labels[n]
        return frozenset(out)

    def subtree_cq(self, nodes: Iterable[int]) -> ConjunctiveQuery:
        """``q_{T'}``: the CQ of a rooted subtree with *all* its variables
        free (the paper's Definition just below Definition 1)."""
        node_set = self._checked_subtree(nodes)
        atoms = self.atoms_of(node_set)
        return ConjunctiveQuery(sorted(variables_of(atoms)), atoms)

    def subtree_answer_cq(self, nodes: Iterable[int]) -> ConjunctiveQuery:
        """``r_{T'}``: like ``q_{T'}`` but projected to the free variables
        occurring in the subtree (Section 6)."""
        node_set = self._checked_subtree(nodes)
        atoms = self.atoms_of(node_set)
        vs = variables_of(atoms)
        frees = [v for v in self.free_variables if v in vs]
        return ConjunctiveQuery(frees, atoms)

    def full_cq(self) -> ConjunctiveQuery:
        """``q_T`` for the whole tree."""
        return self.subtree_cq(self.tree.nodes())

    def _checked_subtree(self, nodes: Iterable[int]) -> FrozenSet[int]:
        node_set = frozenset(nodes)
        if not self.tree.is_rooted_subtree(node_set):
            raise ValueError("%r is not a rooted subtree" % (sorted(node_set),))
        return node_set

    # ------------------------------------------------------------------
    # Well-designedness
    # ------------------------------------------------------------------
    def _check_well_designed(self) -> None:
        for v in sorted(self.variables()):
            holders = [n for n in self.tree.nodes() if v in self._node_vars[n]]
            if len(holders) <= 1:
                continue
            # The occurrence nodes must induce a connected subgraph of T.
            holder_set = set(holders)
            seen = {holders[0]}
            stack = [holders[0]]
            while stack:
                n = stack.pop()
                neighbours = list(self.tree.children(n))
                parent = self.tree.parent(n)
                if parent is not None:
                    neighbours.append(parent)
                for m in neighbours:
                    if m in holder_set and m not in seen:
                        seen.add(m)
                        stack.append(m)
            if seen != holder_set:
                raise NotWellDesignedError(
                    "variable %r occurs in disconnected nodes %r" % (v, sorted(holder_set))
                )

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_cq(cls, query: ConjunctiveQuery) -> "WDPT":
        """The single-node WDPT equivalent to ``query`` (the paper's
        embedding of CQs into WDPTs)."""
        return cls(PatternTree(), [query.atoms], query.free_variables)

    def to_cq(self) -> ConjunctiveQuery:
        """The CQ of a *single-node* WDPT (raises otherwise)."""
        if not self.is_single_node():
            raise ValueError("only single-node WDPTs convert to CQs")
        return ConjunctiveQuery(self.free_variables, self.labels[ROOT])

    def with_free_variables(self, frees: Iterable[object]) -> "WDPT":
        """Same tree and labels with a different projection tuple."""
        return WDPT(self.tree, self.labels, frees)

    def rename(self, renaming: TMapping[Variable, Variable]) -> "WDPT":
        """Apply a variable renaming to every label and the free tuple.

        May raise :class:`~repro.exceptions.NotWellDesignedError` if the
        renaming breaks connectedness (e.g. merging variables from disjoint
        branches) — callers doing quotient searches rely on this check.
        """
        new_labels = [
            frozenset(a.rename(renaming) for a in label) for label in self.labels
        ]
        new_frees = []
        seen = set()
        for v in self.free_variables:
            image = renaming.get(v, v)
            if image in seen:
                raise SchemaError("renaming merges free variables at %r" % (image,))
            seen.add(image)
            new_frees.append(image)
        return WDPT(self.tree, new_labels, new_frees)

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WDPT)
            and other._hash == self._hash
            and other.tree == self.tree
            and other.labels == self.labels
            and other.free_variables == self.free_variables
        )

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = []
        for node in self.tree.nodes():
            indent = "  " * self.tree.depth(node)
            atoms = ", ".join(repr(a) for a in sorted(self.labels[node]))
            parts.append("%s[%d] {%s}" % (indent, node, atoms))
        frees = ", ".join(repr(v) for v in self.free_variables)
        return "WDPT(free=[%s])\n%s" % (frees, "\n".join(parts))


def wdpt_from_nested(
    nested: NestedNode, free_variables: Iterable[object] = ()
) -> WDPT:
    """Build a WDPT from a nested ``(atoms, [children…])`` description.

    >>> from repro.core import atom
    >>> p = wdpt_from_nested(
    ...     ([atom("R", "?x", "?y")], [([atom("S", "?y", "?z")], [])]),
    ...     free_variables=["?x", "?z"],
    ... )
    >>> len(p.tree)
    2
    """
    labels: List[Iterable[Atom]] = []
    parents: List[int] = []

    def walk(node: NestedNode, parent: Optional[int]) -> None:
        atoms, children = node
        labels.append(list(atoms))
        my_id = len(labels) - 1
        if parent is not None:
            parents.append(parent)
        for child in children:
            walk(child, my_id)

    walk(nested, None)
    return WDPT(PatternTree(parents), labels, free_variables)
