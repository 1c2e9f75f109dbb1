"""Partial mappings and the subsumption order ``⊑``.

The answers of CQs and WDPTs in this paper are *partial mappings*
``h : X → U`` — assignments of constants to a finite subset of the
variables.  Two orders structure the answer space (Section 2):

* ``h ⊑ h'`` (*h is subsumed by h'*): ``dom(h) ⊆ dom(h')`` and the two agree
  on ``dom(h)``;
* ``h ⊏ h'``: ``h ⊑ h'`` and not ``h' ⊑ h`` (with ``h ⊑ h'`` this reduces to
  ``dom(h) ⊊ dom(h')``).

Both are inclusions of *graphs*: ``h ⊑ h'`` iff ``{(x, h(x))} ⊆ {(x,
h'(x))}``.  So a :class:`Mapping` is its graph — a ``frozenset`` of
``(Variable, Constant)`` pairs — and ``h <= h'`` / ``h < h'`` on two
Mappings *are* ``⊑`` / ``⊏``.  Hashing, equality and both orders are
frozenset's own, in C, and a Mapping equals (and hashes like) the plain
frozenset of its pairs.  The boundaries that turn relation rows into
answers build Mappings from pairs with C iterators
(:func:`repro.relalg.relation.to_mappings`).

On top of the set sits the read API of a dict: iterating a Mapping and
``in`` see its variables, ``m[x]`` / :meth:`Mapping.get` look one up,
:meth:`Mapping.items` yields the pairs.  ``set(m)`` and ``frozenset(m)``
copy the set's own elements, the pairs; :meth:`Mapping.domain` is the set
of variables.  Around them: restriction, compatible union, and the
selection of the maximal elements of a set of mappings — the operation at
the heart of WDPT semantics (Definition 2).
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping as TMapping,
    Optional,
    Tuple,
)

from .terms import Constant, Term, Variable, term

_pairs = frozenset.__iter__
_variable_of = itemgetter(0)


def _binds_once(pairs: FrozenSet[Tuple[Variable, Constant]]) -> bool:
    """Does no variable occur in two of ``pairs``?"""
    return len(pairs) == len(frozenset(map(_variable_of, pairs)))


def _variable(key: object) -> Variable:
    var = term(key)
    if not isinstance(var, Variable):
        raise TypeError("mapping keys must be variables, got %r" % (key,))
    return var


class Mapping(frozenset):
    """An immutable partial mapping from variables to constants: the
    frozenset of its ``(variable, constant)`` pairs.

    Construction accepts any mapping-like of variable → constant; plain
    Python values are coerced with :func:`repro.core.terms.term` (so keys
    may be ``"?x"`` strings and values plain constants payloads).

    >>> h = Mapping({"?x": "Swim", "?y": "Caribou"})
    >>> h["?x"]
    'Swim'
    >>> h.restrict([Variable("x")]).domain() == frozenset({Variable("x")})
    True
    >>> Mapping({"?x": "Swim"}) <= h
    True
    """

    __slots__ = ()

    def __new__(cls, assignment: Optional[TMapping] = None) -> "Mapping":
        coerced: Dict[Variable, Constant] = {}
        if assignment:
            for key, value in assignment.items():
                val = term(value)
                if not isinstance(val, Constant):
                    raise TypeError("mapping values must be constants, got %r" % (value,))
                coerced[_variable(key)] = val
        return frozenset.__new__(cls, coerced.items())

    @classmethod
    def from_trusted(cls, assignment: Dict[Variable, Constant]) -> "Mapping":
        """The mapping of an already-validated ``Variable → Constant``
        dict, without per-item coercion."""
        return frozenset.__new__(cls, assignment.items())

    def __reduce__(self):
        # frozenset's own reduce would list ``iter(self)``: the variables.
        # Rebuilt from its pairs, the receiver hashes them afresh.
        return (Mapping.from_trusted, (self.as_dict(),))

    # ------------------------------------------------------------------
    # Dict-like reads over the pairs
    # ------------------------------------------------------------------
    def domain(self) -> FrozenSet[Variable]:
        """The set of variables on which the mapping is defined."""
        return frozenset(map(_variable_of, _pairs(self)))

    def items(self) -> Iterator[Tuple[Variable, Constant]]:
        """The ``(variable, constant)`` pairs."""
        return _pairs(self)

    def as_dict(self) -> Dict[Variable, Constant]:
        """A fresh plain-dict copy of the assignment."""
        return dict(_pairs(self))

    def get(self, var: object, default: Optional[Constant] = None) -> Optional[Constant]:
        return self.as_dict().get(_variable(var), default)

    def __getitem__(self, var: object) -> Constant:
        return self.as_dict()[_variable(var)]

    def __contains__(self, var: object) -> bool:
        key = term(var)
        return isinstance(key, Variable) and key in self.domain()

    def __iter__(self) -> Iterator[Variable]:
        return map(_variable_of, _pairs(self))

    def __repr__(self) -> str:
        inner = ", ".join(
            "%r↦%r" % (v, c) for v, c in sorted(_pairs(self), key=lambda kv: kv[0].name)
        )
        return "{%s}" % inner

    # ------------------------------------------------------------------
    # Order and algebra
    # ------------------------------------------------------------------
    #: ``self ⊑ other``: the graph of ``self`` is a subset of ``other``'s.
    subsumed_by = frozenset.__le__
    #: ``self ⊏ other``: a proper subset.
    properly_subsumed_by = frozenset.__lt__

    def compatible(self, other: "Mapping") -> bool:
        """Do the two mappings agree on their common domain?  (Their
        graphs' union binds no variable twice.)"""
        return _binds_once(self | other)

    def union(self, other: "Mapping") -> "Mapping":
        """Union of two *compatible* mappings.

        Raises ``ValueError`` on conflicting assignments.
        """
        merged = self | other
        if not _binds_once(merged):
            raise ValueError("cannot union incompatible mappings %r and %r" % (self, other))
        return frozenset.__new__(Mapping, merged)

    def restrict(self, variables: Iterable[object]) -> "Mapping":
        """Restriction ``h|_V`` to the given variables (missing ones dropped)."""
        wanted = {term(v) for v in variables}
        return frozenset.__new__(Mapping, [p for p in _pairs(self) if p[0] in wanted])

    def extend(self, var: object, value: object) -> "Mapping":
        """A new mapping additionally sending ``var ↦ value``.

        Overwriting an existing binding with a *different* value raises
        ``ValueError`` (use plain construction for that).
        """
        key = term(var)
        val = term(value)
        if not isinstance(key, Variable) or not isinstance(val, Constant):
            raise TypeError("extend() needs a variable and a constant")
        existing = self.get(key)
        if existing is not None and existing != val:
            raise ValueError("extend() would overwrite %r↦%r with %r" % (key, existing, val))
        return frozenset.__new__(Mapping, chain(_pairs(self), ((key, val),)))

    def apply(self, t: Term) -> Term:
        """Image of a term: variables map through ``self`` (if defined),
        constants map to themselves (footnote 3 of the paper)."""
        if isinstance(t, Variable):
            return self.get(t, t)
        return t


def maximal_mappings(mappings: Iterable[Mapping]) -> FrozenSet[Mapping]:
    """The ``⊑``-maximal elements of a set of mappings.

    Used both for Definition 2 (maximal homomorphisms) and for the
    maximal-mapping semantics ``p_m(D)`` of Section 3.4.

    ``h ⊑ h'`` is inclusion of graphs, so this is the classical "maximal
    sets" problem, solved with set operations that run in C.  The input
    is grouped by domain.  A group no other group's domain strictly
    contains — the largest mappings among them — is maximal without a
    test.  For any other group ``G`` with domain ``D`` and pairs ``P =
    ⋃G``, a mapping ``h'`` over a strictly larger domain meets ``P`` in
    exactly ``h`` when it extends a member ``h`` (``h'|_D = h``, and
    ``h ⊆ P``), and in no member otherwise; so ``G`` minus the sets
    ``h' ∩ P`` is ``G``'s maximal part.  The work is one C intersection
    per mapping and group below its domain: linear in the input for the
    few domains a WDPT's answers have (one per set of matched OPT
    branches).
    """
    by_domain: Dict[FrozenSet[Variable], List[Mapping]] = {}
    for m in set(mappings):
        by_domain.setdefault(m.domain(), []).append(m)
    maximal: List[Mapping] = []
    for domain, group in by_domain.items():
        pairs = frozenset().union(*group)
        above = (h for larger, hs in by_domain.items() if domain < larger for h in hs)
        maximal.extend(set(group).difference(map(pairs.intersection, above)))
    return frozenset(maximal)
