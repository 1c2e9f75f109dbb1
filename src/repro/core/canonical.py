"""Canonical ("frozen") databases.

The canonical database of a CQ ``q`` freezes every variable into a fresh
constant and reads the body atoms as facts.  It is the standard tool behind
the Chandra–Merlin containment test, behind the subsumption test for WDPTs
(Section 4), and behind the approximation machinery (Section 5): a query
``q'`` is contained in ``q`` iff ``q`` has a homomorphism into the canonical
database of ``q'`` mapping frozen free variables correspondingly.

Frozen constants are :class:`FrozenVariable` payloads wrapped in
:class:`~repro.core.terms.Constant`, so freezing never collides with
constants already present in a query and can always be inverted.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from .atoms import Atom
from .database import Database
from .terms import Constant, Variable


class FrozenVariable:
    """The payload of a constant obtained by freezing ``variable``.

    Hashable, equality by wrapped variable; ``repr`` renders as ``⌊x⌋``.
    """

    __slots__ = ("variable", "_hash")

    def __init__(self, variable: Variable):
        self.variable = variable
        self._hash = hash(("FrozenVariable", variable))

    def __reduce__(self):
        # By value, so the hash is recomputed (see Variable.__reduce__).
        return (FrozenVariable, (self.variable,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FrozenVariable) and other.variable == self.variable

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "⌊%s⌋" % self.variable.name

    def __lt__(self, other: "FrozenVariable") -> bool:
        if not isinstance(other, FrozenVariable):
            return NotImplemented
        return self.variable < other.variable


def freeze_variable(v: Variable) -> Constant:
    """The frozen constant ``⌊v⌋`` of variable ``v``."""
    return Constant(FrozenVariable(v))


def freeze_atoms(
    atoms: Iterable[Atom], freezing: Optional[Dict[Variable, Constant]] = None
) -> Tuple[Atom, ...]:
    """Freeze every variable of ``atoms`` (result atoms are ground).

    Each variable is frozen once: ``freezing`` memoises ``variable →
    frozen constant`` — pass one dict to several calls to share it (and
    to read the constants back)."""
    if freezing is None:
        freezing = {}
    out = []
    for a in atoms:
        args = []
        for t in a.args:
            if isinstance(t, Variable):
                frozen = freezing.get(t)
                if frozen is None:
                    frozen = freezing[t] = freeze_variable(t)
                t = frozen
            args.append(t)
        out.append(Atom(a.relation, args))
    return tuple(out)


def canonical_database_of_atoms(atoms: Iterable[Atom]) -> Database:
    """The canonical database of a bare atom set."""
    return Database(freeze_atoms(atoms))


def is_frozen_constant(c: Constant) -> bool:
    """``True`` iff ``c`` arose from freezing a variable."""
    return isinstance(c.value, FrozenVariable)


def unfreeze_constant(c: Constant) -> Variable:
    """Invert :func:`freeze_variable` (raises on ordinary constants)."""
    if not isinstance(c.value, FrozenVariable):
        raise ValueError("%r is not a frozen variable" % (c,))
    return c.value.variable
