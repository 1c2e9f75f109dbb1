"""Terms: the variables and constants that populate relational atoms.

The paper fixes two disjoint countably infinite sets: constants ``U`` and
variables ``X`` (Section 2).  We model them as two small immutable classes.
Both are interned-friendly value objects: equality and hashing are by name,
so structurally equal terms behave identically everywhere (dict keys, set
members, mapping domains).

The convention throughout the library is:

* :class:`Variable` — written ``?name`` in ``repr`` output, mirroring SPARQL.
* :class:`Constant` — wraps an arbitrary hashable payload (strings, ints,
  frozen tuples, ...).

:func:`term` coerces plain Python values into terms using the common
shorthand that strings starting with ``"?"`` denote variables.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Tuple, Union


class Variable:
    """A query variable (an element of the set **X** of the paper)."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise ValueError("variable name must be a non-empty string, got %r" % (name,))
        if name.startswith("?"):
            name = name[1:]
        if not name:
            raise ValueError("variable name must not be just '?'")
        self.name = name
        self._hash = hash(("Variable", name))

    def __reduce__(self):
        # Pickled by value: ``_hash`` depends on the process's hash seed
        # (``PYTHONHASHSEED``), so the receiving process recomputes it.
        return (Variable, (self.name,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and other.name == self.name

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "?%s" % self.name

    def __lt__(self, other: "Variable") -> bool:
        if not isinstance(other, Variable):
            return NotImplemented
        return self.name < other.name


class Constant:
    """A constant (an element of the set **U** of the paper).

    The wrapped ``value`` may be any hashable Python object.  Two constants
    are equal iff their values are equal.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: Hashable):
        if isinstance(value, (Variable, Constant)):
            raise ValueError("constant payload must be a plain value, got %r" % (value,))
        self.value = value
        self._hash = hash(("Constant", value))

    def __reduce__(self):
        # By value, so the hash is recomputed (see Variable.__reduce__).
        return (Constant, (self.value,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Constant) and other.value == self.value

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return repr(self.value)

    def __lt__(self, other: "Constant") -> bool:
        if not isinstance(other, Constant):
            return NotImplemented
        try:
            return self.value < other.value  # type: ignore[operator]
        except TypeError:
            return str(self.value) < str(other.value)


Term = Union[Variable, Constant]


def term(value: object) -> Term:
    """Coerce ``value`` into a :class:`Variable` or :class:`Constant`.

    Strings starting with ``"?"`` become variables (``"?x"`` → ``?x``);
    every other hashable value becomes a constant.  Existing terms pass
    through unchanged.

    >>> term("?x")
    ?x
    >>> term("Caribou")
    'Caribou'
    >>> term(3)
    3
    """
    if isinstance(value, (Variable, Constant)):
        return value
    if isinstance(value, str) and value.startswith("?"):
        return Variable(value)
    return Constant(value)  # type: ignore[arg-type]


def terms(values: Iterable[object]) -> Tuple[Term, ...]:
    """Coerce an iterable of plain values into a tuple of terms."""
    return tuple(term(v) for v in values)


def is_variable(t: object) -> bool:
    """Return ``True`` iff ``t`` is a :class:`Variable`."""
    return isinstance(t, Variable)


def is_constant(t: object) -> bool:
    """Return ``True`` iff ``t`` is a :class:`Constant`."""
    return isinstance(t, Constant)
