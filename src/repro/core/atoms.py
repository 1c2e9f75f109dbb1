"""Relational atoms and schemas.

A *relational atom* over a schema ``σ`` is an expression ``R(v̄)`` where
``R`` is a relation symbol of arity ``n > 0`` and ``v̄`` an ``n``-tuple over
``X ∪ U`` (Section 2 of the paper).  Atoms are immutable value objects.

A :class:`Schema` is an optional, lightweight arity registry.  Most of the
library infers schemas implicitly from the atoms it sees (as the paper does),
but a schema can be supplied to get eager arity checking.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Tuple

from ..exceptions import SchemaError
from .terms import Constant, Term, Variable, term


_new_atom = object.__new__


class Atom:
    """An atom ``R(t₁, …, t_n)``.

    ``relation`` is the relation name (a plain string) and ``args`` a tuple
    of :class:`~repro.core.terms.Variable` / :class:`~repro.core.terms.Constant`.
    Plain Python values in ``args`` are coerced via
    :func:`repro.core.terms.term` (``"?x"`` → variable, everything else →
    constant).

    >>> Atom("recorded_by", ("?x", "?y"))
    recorded_by(?x, ?y)
    >>> Atom("published", ("?x", "after_2010")).constants()
    frozenset({'after_2010'})
    """

    __slots__ = ("relation", "args", "_hash", "_order")

    def __init__(self, relation: str, args: Iterable[object]):
        if not isinstance(relation, str) or not relation:
            raise SchemaError("relation name must be a non-empty string, got %r" % (relation,))
        coerced = tuple(args)
        for a in coerced:  # terms pass as they are; a raw payload coerces all
            if a.__class__ is not Variable and a.__class__ is not Constant:
                coerced = tuple(map(term, coerced))
                break
        if not coerced:
            raise SchemaError("atom %s() has arity 0; arities must be positive" % relation)
        self.relation = relation
        self.args = coerced
        self._hash = hash((relation, coerced))
        #: the sort key, built by the first comparison (see ``__lt__``)
        self._order: Optional[Tuple[str, Tuple[str, ...]]] = None

    def __reduce__(self):
        # By value, so the hash is recomputed (see Variable.__reduce__).
        return (Atom, (self.relation, self.args))

    @property
    def arity(self) -> int:
        """Number of argument positions."""
        return len(self.args)

    def variables(self) -> FrozenSet[Variable]:
        """The set of variables occurring in this atom."""
        return frozenset(a for a in self.args if isinstance(a, Variable))

    def constants(self) -> FrozenSet[Constant]:
        """The set of constants occurring in this atom."""
        return frozenset(a for a in self.args if isinstance(a, Constant))

    def is_ground(self) -> bool:
        """``True`` iff the atom contains no variables (i.e. it is a fact)."""
        return all(isinstance(a, Constant) for a in self.args)

    def substitute(self, assignment: Mapping[Variable, Term]) -> "Atom":
        """Apply ``assignment`` to the variables of this atom.

        Variables outside the assignment's domain are left untouched, so the
        result may still contain variables (partial instantiation).  When
        every image is already a term the result is built directly, without
        a second pass through ``__init__``; a raw image (``{x: 3}``) goes
        through ``__init__``, which coerces it.
        """
        get = assignment.get
        args = tuple([get(a, a) if a.__class__ is Variable else a for a in self.args])
        for a in args:
            if a.__class__ is not Variable and a.__class__ is not Constant:
                return Atom(self.relation, args)
        image = _new_atom(Atom)
        image.relation = relation = self.relation
        image.args = args
        image._hash = hash((relation, args))
        image._order = None
        return image

    def rename(self, renaming: Mapping[Variable, Variable]) -> "Atom":
        """Apply a variable renaming (alias of :meth:`substitute`)."""
        return self.substitute(renaming)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Atom)
            and other._hash == self._hash
            and other.relation == self.relation
            and other.args == self.args
        )

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "%s(%s)" % (self.relation, ", ".join(repr(a) for a in self.args))

    def __lt__(self, other: "Atom") -> bool:
        # By relation, then argument by argument in ``repr`` order; each
        # atom builds that key once, so a sort reprs each argument once.
        if not isinstance(other, Atom):
            return NotImplemented
        mine, theirs = self._order, other._order
        if mine is None:
            mine = self._order = (self.relation, tuple(map(repr, self.args)))
        if theirs is None:
            theirs = other._order = (other.relation, tuple(map(repr, other.args)))
        return mine < theirs


def atom(relation: str, *args: object) -> Atom:
    """Convenience constructor: ``atom("E", "?x", "?y")``."""
    return Atom(relation, args)


class Schema:
    """A relational schema: a mapping from relation names to arities.

    Schemas are optional; when provided (e.g. to :class:`~repro.core.database.Database`)
    they enable eager arity checking via :meth:`validate_atom`.
    """

    __slots__ = ("_arities",)

    def __init__(self, arities: Optional[Mapping[str, int]] = None):
        self._arities: Dict[str, int] = {}
        if arities:
            for name, arity in arities.items():
                self.add_relation(name, arity)

    def add_relation(self, name: str, arity: int) -> None:
        """Register relation ``name`` with the given ``arity``.

        Re-registering with the same arity is a no-op; a conflicting arity
        raises :class:`~repro.exceptions.SchemaError`.
        """
        if not isinstance(arity, int) or arity < 1:
            raise SchemaError("arity of %s must be a positive integer, got %r" % (name, arity))
        existing = self._arities.get(name)
        if existing is not None and existing != arity:
            raise SchemaError(
                "relation %s already has arity %d, cannot re-register with arity %d"
                % (name, existing, arity)
            )
        self._arities[name] = arity

    def arity(self, name: str) -> int:
        """Arity of relation ``name`` (raises if unknown)."""
        try:
            return self._arities[name]
        except KeyError:
            raise SchemaError("unknown relation %s" % name) from None

    def relations(self) -> FrozenSet[str]:
        """All registered relation names."""
        return frozenset(self._arities)

    def __contains__(self, name: str) -> bool:
        return name in self._arities

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._arities))

    def __len__(self) -> int:
        return len(self._arities)

    def validate_atom(self, a: Atom) -> None:
        """Raise :class:`~repro.exceptions.SchemaError` unless ``a`` fits."""
        if a.relation not in self._arities:
            raise SchemaError("atom %r uses unknown relation %s" % (a, a.relation))
        if a.arity != self._arities[a.relation]:
            raise SchemaError(
                "atom %r has arity %d but relation %s has arity %d"
                % (a, a.arity, a.relation, self._arities[a.relation])
            )

    @classmethod
    def infer(cls, atoms: Iterable[Atom]) -> "Schema":
        """Build the schema implied by a collection of atoms."""
        schema = cls()
        for a in atoms:
            schema.add_relation(a.relation, a.arity)
        return schema

    def __repr__(self) -> str:
        inner = ", ".join("%s/%d" % (n, a) for n, a in sorted(self._arities.items()))
        return "Schema{%s}" % inner


def variables_of(atoms: Iterable[Atom]) -> FrozenSet[Variable]:
    """Union of the variable sets of ``atoms``."""
    out: set = set()
    for a in atoms:
        out.update(a.variables())
    return frozenset(out)


def constants_of(atoms: Iterable[Atom]) -> FrozenSet[Constant]:
    """Union of the constant sets of ``atoms``."""
    out: set = set()
    for a in atoms:
        out.update(a.constants())
    return frozenset(out)
