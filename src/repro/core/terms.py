"""Terms: the variables and constants that populate relational atoms.

The paper fixes two disjoint countably infinite sets: constants ``U`` and
variables ``X`` (Section 2).  We model them as two small immutable classes.

Both are **hash-consed**: ``Variable(name)`` and ``Constant(payload)``
return the one live object for that name or payload, so two terms are
equal iff they are the same object.  Neither class defines a hash or an
equality method: both inherit ``object``'s, which run in C, so every dict
keyed by terms, every set of terms, every ``(variable, constant)`` pair
of a :class:`~repro.core.mappings.Mapping` and every ``Atom`` hash is
built without a Python frame.

Payloads are keyed by type and value, so a constant's payload is
exactly the one it was built from, whatever else the process holds:
``1``, ``1.0`` and ``True`` are three constants (as they are three
stored texts on SQLite and three JSON values on the wire); so are
``0.0`` and ``-0.0``, and ``(1,)`` and ``(True,)`` (tuples and
frozensets are keyed through their items).  Any other payload type
whose equal values print differently (``Decimal("1")`` and
``Decimal("1.0")``) is the exception: such values are one constant,
shown as the first one built.

The tables that find a term by its key hold it *weakly*: a term lives
exactly as long as something else refers to it, so query text never
grows a long-running process's tables.  A hit is one dict lookup and one
dereference, with no lock; a miss takes one lock, re-checks, and files
the new term.  Each table entry is a weak reference that knows its key
and table, and its callback removes the entry only while it is still
that dead reference, so a term re-created concurrently is never dropped.
Hashes are therefore addresses and differ from process to process; terms
pickle (and copy) by value, and the receiver re-interns what it reads.

The convention throughout the library is:

* :class:`Variable` — written ``?name`` in ``repr`` output, mirroring SPARQL.
* :class:`Constant` — wraps an arbitrary hashable payload (strings, ints,
  frozen tuples, ...).

:func:`term` coerces plain Python values into terms using the common
shorthand that strings starting with ``"?"`` denote variables.
"""

from __future__ import annotations

import threading
from _weakref import _remove_dead_weakref
from typing import Dict, Hashable, Iterable, Tuple, Union
from weakref import ref


class _Entry(ref):
    """A table's weak reference to a live term, knowing where it is filed."""

    __slots__ = ("key", "table")


def _forget(entry: _Entry, remove=_remove_dead_weakref) -> None:
    # The term died: drop its entry, unless the key already holds a newer
    # term's entry (``remove`` deletes only a dead reference, atomically).
    remove(entry.table, entry.key)


_variables: Dict[str, _Entry] = {}
_constants: Dict[Hashable, _Entry] = {}
# Taken by a miss only, through its bound methods: ``with`` would add two
# special-method calls, as much again as the rest of the lock's cost.
_filing = threading.Lock()
_acquire, _release = _filing.acquire, _filing.release
_new = object.__new__


def _file(table: Dict[Hashable, _Entry], key: Hashable, term: object):
    """The miss: file the new ``term`` under ``key``, unless a live term
    was filed there first (re-checked under the lock); return the filed
    one.  A term that lost the race has no entry and simply dies."""
    _acquire()
    try:
        entry = table.get(key)
        found = None if entry is None else entry()
        if found is None:
            entry = table[key] = _Entry(term, _forget)
            entry.key, entry.table = key, table
            found = term
        return found
    finally:
        _release()


def _key(value: Hashable) -> Hashable:
    """The table key of a constant payload: equal keys mean one type.

    An exact ``str`` or ``int`` is its own key (``Constant.__new__``
    takes that case inline); a float is keyed by its value, or a zero by
    its spelling (``0.0`` and ``-0.0`` are equal); tuples and frozensets
    by their items' keys; anything else by its type and value.
    """
    kind = value.__class__
    if kind is str or kind is int:
        return value
    if kind is float:
        return (float, value) if value else (float, repr(value))
    if kind is tuple:
        return (tuple, *map(_key, value))
    if kind is frozenset:
        return (frozenset, frozenset(map(_key, value)))
    return (kind, value)


class Variable:
    """A query variable (an element of the set **X** of the paper)."""

    __slots__ = ("name", "__weakref__")

    def __new__(cls, name: str) -> "Variable":
        entry = _variables.get(name)
        if entry is not None:
            found = entry()
            if found is not None:
                return found
        if not isinstance(name, str) or not name:
            raise ValueError("variable name must be a non-empty string, got %r" % (name,))
        # Filed under its name, or, for a name that itself starts with "?"
        # (spelt "??x"), under that spelling: no key is "?" + a plain name.
        key = name
        if name[0] == "?":
            name = name[1:]
            entry = _variables.get(name)
            found = None if entry is None else entry()
            if found is not None:
                return found
            if not name:
                raise ValueError("variable name must not be just '?'")
            if name[0] != "?":
                key = name
        found = _new(cls)
        found.name = name
        return _file(_variables, key, found)

    def __reduce__(self):
        # By value: the receiver re-interns the name (a hash is an address).
        # Spelt with its "?", which re-strips to this name ("??x" included).
        return (Variable, ("?" + self.name,))

    def __repr__(self) -> str:
        return "?%s" % self.name

    def __lt__(self, other: "Variable") -> bool:
        if not isinstance(other, Variable):
            return NotImplemented
        return self.name < other.name


class Constant:
    """A constant (an element of the set **U** of the paper).

    The wrapped ``value`` may be any hashable Python object.  Equal
    values of one type give the same constant (see the module docstring).
    """

    __slots__ = ("value", "__weakref__")

    def __new__(cls, value: Hashable) -> "Constant":
        kind = value.__class__
        key = value if kind is str or kind is int else _key(value)
        entry = _constants.get(key)
        if entry is not None:
            found = entry()
            if found is not None:
                return found
        if isinstance(value, _TERMS):
            raise ValueError("constant payload must be a plain value, got %r" % (value,))
        found = _new(cls)
        found.value = value
        return _file(_constants, key, found)

    def __reduce__(self):
        # By value (see Variable.__reduce__).
        return (Constant, (self.value,))

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
_TERMS = (Variable, Constant)


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
    if isinstance(value, _TERMS):
        return value
    if isinstance(value, str) and value.startswith("?"):
        return Variable(value)
    return Constant(value)  # type: ignore[arg-type]


def terms(values: Iterable[object]) -> Tuple[Term, ...]:
    """Coerce an iterable of plain values into a tuple of terms."""
    return tuple(term(v) for v in values)
