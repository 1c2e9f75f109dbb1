"""Can a written fact change what a WDPT says about a database?

Definition 2 makes ``p(D)`` a function of the homomorphisms from the
rooted subtrees of ``p`` into ``D`` — and so are ``p_m(D)`` and the three
decision problems of Section 3, which are questions about ``p(D)``.  A
homomorphism of a rooted subtree that maps the atom ``a`` of node ``n``
to the fact ``t`` restricts to a homomorphism of the *branch* from the
root to ``n`` (a rooted subtree contains the branch of each of its
nodes) that still maps ``a`` to ``t``.  Hence the test of
:func:`can_touch`: over a database holding ``t``, some homomorphism of
some rooted subtree uses ``t`` only if, for some node ``n`` and some
``a ∈ λ(n)`` that unifies with ``t`` by ``θ``, the atoms of the branch to
``n`` are satisfiable under ``θ``.  When no ``(n, a)`` passes, every
rooted subtree has the same homomorphisms into the database with ``t``
as into the one without it, and every answer cached on one side of the
write holds on the other (docs/ALGORITHMS.md, "The touch test", has the
proof and what it means for inserts, deletes and multi-fact writes).

That question is Theorem 8's, asked of the branch, and like the Theorem
8 program everything about it but the written values is fixed by the
tree: :func:`compile_touch` builds, once per tree, one entry per
``(n, a)`` — ``a``'s unifier template and the :class:`~repro.wdpt.
partial_eval.Check` of the branch minus ``a`` planned for the bound set
``vars(a)``, which is exactly what ``θ`` binds.  A session keeps the
program on the planner's profile of the tree (:func:`touch_program`)
and runs each check through :meth:`~repro.planner.planner.Planner.check`.

The test is one-sided: a fact that reaches a branch may still leave
``p(D)`` as it was.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
    TYPE_CHECKING,
)

from ..core.atoms import Atom
from ..core.database import Database
from ..core.terms import Constant, Term, Variable
from .partial_eval import Check, program
from .wdpt import WDPT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..planner.planner import Planner
    from ..planner.profile import TreeProfile

#: The touch program depends on no candidate domain: it is kept under
#: the empty one.
_NO_DOMAIN: FrozenSet[Variable] = frozenset()


def _no_constants(args: Sequence[Term]) -> Tuple[()]:
    return ()


def _reader(positions: Tuple[int, ...]) -> Callable[[Sequence[Term]], object]:
    """Reads a fact's arguments at ``positions``: the key a fact's
    constants are looked up by (terms are hash-consed, so the lookup
    compares them by identity)."""
    return itemgetter(*positions) if positions else _no_constants


class Unifier(NamedTuple):
    """The unifier template of one atom: what ``θ`` with ``atom·θ = t``
    needs of a fact ``t`` of the atom's relation and arity."""

    #: The atom's constant positions…
    positions: Tuple[int, ...]
    #: …and its constants there, as :func:`_reader` reads them off it.
    constants: object
    #: ``(position, variable)`` for the first occurrence of each variable.
    variables: Tuple[Tuple[int, Variable], ...]
    #: ``(first position, later position)`` per repeat of a variable.
    repeats: Tuple[Tuple[int, int], ...]

    @classmethod
    def of(cls, a: Atom) -> "Unifier":
        positions = tuple(pos for pos, t in enumerate(a.args) if not isinstance(t, Variable))
        first: Dict[Variable, int] = {}
        repeats = []
        for pos, t in enumerate(a.args):
            if isinstance(t, Variable) and first.setdefault(t, pos) != pos:
                repeats.append((first[t], pos))
        variables = tuple((pos, v) for v, pos in first.items())
        return cls(positions, _reader(positions)(a.args), variables, tuple(repeats))

    def theta(self, args: Sequence[Term]) -> Optional[Dict[Variable, Constant]]:
        """``θ`` for a fact with ``args`` whose constants matched, or
        ``None`` when a repeated variable faces two values."""
        for first, later in self.repeats:
            if args[first] is not args[later]:
                return None
        return {v: args[pos] for pos, v in self.variables}  # type: ignore[misc]


class Entry(NamedTuple):
    """One ``(n, a)`` of a touch program."""

    unifier: Unifier
    #: The branch of ``n`` minus ``a``, planned for ``vars(a)``; ``None``
    #: when the branch has no other atom: unifying is touching.
    check: Optional[Check]


#: Per relation: ``(arity, constants_of, entries by constants key)``, one
#: triple per (arity, constant positions) of the relation's atoms.
_Index = Dict[str, List[Tuple[int, Callable, Dict[object, List[Entry]]]]]


class TouchProgram(NamedTuple):
    """The touch test of one tree, compiled (:func:`compile_touch`)."""

    index: _Index

    def touches(
        self, facts: Iterable[Atom], db: Database, planner: "Optional[Planner]"
    ) -> Tuple[bool, int]:
        """Can one of ``facts`` (all held by ``db``) touch the tree, and
        how many store checks did answering take?  An atom whose
        constants differ from the fact's is passed over by one dict
        lookup, before any ``θ`` is built."""
        checks = 0
        index = self.index
        for fact in facts:
            args = fact.args
            for arity, constants_of, by_constants in index.get(fact.relation, ()):
                if arity != len(args):
                    continue
                for unifier, check in by_constants.get(constants_of(args), ()):
                    theta = unifier.theta(args)
                    if theta is None:
                        continue
                    if check is None:
                        return True, checks
                    checks += 1
                    if check.run(theta, db, planner):
                        return True, checks
        return False, checks


def compile_touch(
    p: WDPT, domain: FrozenSet[Variable], tree: "Optional[TreeProfile]"
) -> TouchProgram:
    """The touch program of ``p`` (``domain`` is unused: there is one
    program per tree).  Each check binds ``vars(a)``, so its plan is the
    one for that bound set on the branch's unsubstituted shape; without
    a profile it is the search, over the atoms most-bound first so the
    point lookups run (and fail) before any wider read."""
    groups: Dict[Tuple[str, int, Tuple[int, ...]], Dict[object, List[Entry]]] = {}
    for node, label in enumerate(p.labels):
        path = p.tree.path_to_root(node)
        for a in label:
            branch = {b for n in path for b in p.labels[n]}
            branch.discard(a)  # a·θ is the fact, and the fact is there
            check = None
            if branch:
                bound = a.variables()
                atoms = sorted(branch, key=lambda b: len(b.variables() - bound))
                profile = None if tree is None else tree.profile_of(atoms)
                check = Check.of(atoms, profile, bound)
            unifier = Unifier.of(a)
            group = groups.setdefault((a.relation, len(a.args), unifier.positions), {})
            group.setdefault(unifier.constants, []).append(Entry(unifier, check))
    index: _Index = {}
    for (relation, arity, positions), by_constants in groups.items():
        index.setdefault(relation, []).append((arity, _reader(positions), by_constants))
    return TouchProgram(index)


def touch_program(p: WDPT, planner: "Optional[Planner]") -> TouchProgram:
    """The touch program of ``p``: kept on ``planner``'s profile of ``p``
    (so trees with one fingerprint share it), compiled afresh without a
    planner."""
    return program(compile_touch, p, _NO_DOMAIN, planner)  # type: ignore[return-value]


def unify(pattern: Atom, fact: Atom) -> Optional[Dict[Variable, Constant]]:
    """The assignment ``θ`` of ``pattern``'s variables with
    ``pattern·θ = fact``, or ``None`` when there is none (another
    relation or arity, a constant that differs, a repeated variable
    facing two constants): what a touch program's template decides.

    >>> from repro.core.atoms import atom
    >>> unify(atom("E", "?x", 2), atom("E", 1, 2))
    {?x: 1}
    >>> unify(atom("E", "?x", "?x"), atom("E", 1, 2)) is None
    True
    """
    if pattern.relation != fact.relation or len(pattern.args) != len(fact.args):
        return None
    unifier = Unifier.of(pattern)
    if _reader(unifier.positions)(fact.args) != unifier.constants:
        return None
    return unifier.theta(fact.args)


def can_touch(p: WDPT, db: Database, fact: Atom) -> bool:
    """Can ``fact`` — a ground atom **held by** ``db`` — be the image of
    an atom under a homomorphism from a rooted subtree of ``p`` into
    ``db``?  ``False`` means ``p`` has the same answers over ``db`` and
    over ``db`` without ``fact``.  The planner-less form: the touch
    program compiled afresh, its checks run on the backtracking search."""
    return touch_program(p, None).touches((fact,), db, None)[0]
