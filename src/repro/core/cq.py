"""Conjunctive queries.

A CQ over schema ``σ`` is a rule ``Ans(x̄) ← R₁(v̄₁), …, R_m(v̄_m)`` where
``x̄`` is a tuple of distinct variables among those in the body (equation (2)
of the paper).  Following the paper's (slightly non-standard) semantics, the
evaluation ``q(D)`` is the set of *mappings* ``h|_x̄`` for ``h`` a
homomorphism from ``q`` to ``D`` — answers are partial mappings keyed by
variable name, not positional tuples.

:class:`ConjunctiveQuery` is an immutable value object.  Evaluation lives in
:mod:`repro.cqalgs`; this module only carries structure (variables,
constants, free/existential split, renaming, Boolean/full restriction
helpers).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Mapping as TMapping, Optional, Tuple

from ..exceptions import SchemaError
from .atoms import Atom, constants_of, variables_of
from .terms import Constant, Term, Variable, term


class ConjunctiveQuery:
    """An immutable CQ ``Ans(x̄) ← body``.

    Parameters
    ----------
    free_variables:
        The tuple ``x̄`` of distinct free (answer) variables.  Each must
        occur in the body.  Strings like ``"?x"`` are coerced.
    atoms:
        The body atoms.  Order is irrelevant (the body is a set); duplicates
        are collapsed.

    >>> q = ConjunctiveQuery(["?x"], [Atom("E", ("?x", "?y"))])
    >>> q.free_variables
    (?x,)
    >>> q.existential_variables() == frozenset({Variable("y")})
    True
    """

    __slots__ = ("free_variables", "atoms", "_hash", "_fingerprint")

    def __init__(self, free_variables: Iterable[object], atoms: Iterable[Atom]):
        body = frozenset(atoms)
        if not body:
            raise SchemaError("a conjunctive query needs at least one body atom")
        frees: Tuple[Variable, ...] = tuple(
            _as_variable(v, "free variable") for v in free_variables
        )
        if len(set(frees)) != len(frees):
            raise SchemaError("free variables must be distinct, got %r" % (frees,))
        body_vars = variables_of(body)
        missing = [v for v in frees if v not in body_vars]
        if missing:
            raise SchemaError(
                "free variables %r do not occur in the query body" % (missing,)
            )
        self.free_variables = frees
        self.atoms = body
        self._hash = hash((frees, body))
        self._fingerprint: Optional[str] = None

    def __reduce__(self):
        # By value, so the hash is recomputed (see Variable.__reduce__).
        return (ConjunctiveQuery, (self.free_variables, self.atoms))

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def variables(self) -> FrozenSet[Variable]:
        """All variables of the body."""
        return variables_of(self.atoms)

    def existential_variables(self) -> FrozenSet[Variable]:
        """Body variables that are not free."""
        return self.variables() - frozenset(self.free_variables)

    def constants(self) -> FrozenSet[Constant]:
        """All constants of the body."""
        return constants_of(self.atoms)

    def is_boolean(self) -> bool:
        """``True`` iff there are no free variables (``Ans()``)."""
        return not self.free_variables

    def is_full(self) -> bool:
        """``True`` iff every body variable is free (no projection)."""
        return self.variables() == frozenset(self.free_variables)

    def size(self) -> int:
        """Size in standard relational notation: total number of argument
        slots over all atoms (the measure behind ``|p|`` in the paper)."""
        return sum(a.arity for a in self.atoms)

    def relations(self) -> FrozenSet[str]:
        """Relation names used by the body."""
        return frozenset(a.relation for a in self.atoms)

    def structural_fingerprint(self) -> str:
        """A stable, canonical key for this query's structure.

        Independent of object identity, atom ordering, and Python's
        per-process hash seed (the body is serialized in sorted order and
        digested), so it is usable as a plan-cache key:

        >>> a = ConjunctiveQuery(["?x"], [Atom("R", ("?x", "?y")), Atom("S", ("?y",))])
        >>> b = ConjunctiveQuery(["?x"], [Atom("S", ("?y",)), Atom("R", ("?x", "?y"))])
        >>> a.structural_fingerprint() == b.structural_fingerprint()
        True
        """
        if self._fingerprint is None:
            import hashlib

            payload = "cq|%s|%s" % (
                ",".join(repr(v) for v in self.free_variables),
                ";".join(repr(a) for a in sorted(self.atoms)),
            )
            self._fingerprint = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def boolean(self) -> "ConjunctiveQuery":
        """This query with all variables projected away (``Ans()``)."""
        return ConjunctiveQuery((), self.atoms)

    def full(self) -> "ConjunctiveQuery":
        """This query with *every* body variable free (projection removed).

        This is ``q_{T'}`` as used in the WDPT semantics, where homomorphisms
        must be total on the subtree's variables.
        """
        return ConjunctiveQuery(sorted(self.variables()), self.atoms)

    def with_free_variables(self, frees: Iterable[object]) -> "ConjunctiveQuery":
        """Same body with a different free-variable tuple."""
        return ConjunctiveQuery(frees, self.atoms)

    def rename(self, renaming: TMapping[Variable, Variable]) -> "ConjunctiveQuery":
        """Apply a variable renaming to body and head.

        The renaming must keep the free variables distinct (otherwise a
        :class:`~repro.exceptions.SchemaError` is raised).
        """
        new_atoms = [a.rename(renaming) for a in self.atoms]
        new_frees = [renaming.get(v, v) for v in self.free_variables]
        return ConjunctiveQuery(new_frees, new_atoms)

    def substitute(self, assignment: TMapping[Variable, Term]) -> "ConjunctiveQuery":
        """Instantiate variables (free variables hit by the assignment are
        dropped from the head; the body may become partially ground)."""
        new_atoms = [a.substitute(assignment) for a in self.atoms]
        new_frees = [v for v in self.free_variables if v not in assignment]
        return ConjunctiveQuery(new_frees, new_atoms)

    def freshen(self, suffix: Optional[str] = None) -> "ConjunctiveQuery":
        """Rename every variable apart (``x`` → ``x_<suffix>``)."""
        if suffix is None:
            suffix = "f"
        renaming = {v: Variable("%s_%s" % (v.name, suffix)) for v in self.variables()}
        return self.rename(renaming)

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConjunctiveQuery)
            and other._hash == self._hash
            and other.free_variables == self.free_variables
            and other.atoms == self.atoms
        )

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        head = ", ".join(repr(v) for v in self.free_variables)
        body = ", ".join(repr(a) for a in sorted(self.atoms))
        return "Ans(%s) ← %s" % (head, body)


def cq(free_variables: Iterable[object], atoms: Iterable[Atom]) -> ConjunctiveQuery:
    """Shorthand constructor for :class:`ConjunctiveQuery`."""
    return ConjunctiveQuery(free_variables, atoms)


def _as_variable(value: object, role: str) -> Variable:
    t = term(value)
    if not isinstance(t, Variable):
        raise SchemaError("%s must be a variable, got %r" % (role, value))
    return t
