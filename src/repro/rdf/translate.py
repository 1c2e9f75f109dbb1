"""Translation between well-designed {AND, OPT} patterns and WDPTs.

The construction of [17]: a well-designed pattern is first rewritten into
*OPT normal form* using the equivalence (valid for well-designed patterns)

    ``(P₁ OPT P₂) AND P₃  ≡  (P₁ AND P₃) OPT P₂``

after which the pattern has the shape ``(…((B OPT Q₁) OPT Q₂)… OPT Q_m)``
with ``B`` a conjunction of triple patterns; the WDPT then has a node
labelled ``B`` with the (recursively translated) ``Qᵢ`` as children.

``SELECT``-style projection is modelled by the WDPT's free-variable tuple;
translating with no explicit projection yields a projection-free WDPT,
matching the semantics of [18].
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..core.atoms import Atom
from ..core.terms import Variable
from ..exceptions import NotWellDesignedError
from ..wdpt.tree import PatternTree
from ..wdpt.wdpt import WDPT
from .algebra import And, Opt, Pattern, TriplePattern, is_well_designed
from .graph import TRIPLE_RELATION

#: (basic graph pattern, translated children) — OPT normal form node.
_NormalNode = Tuple[List[TriplePattern], List["_NormalNode"]]


def pattern_to_wdpt(
    pattern: Pattern, projection: Optional[Iterable[object]] = None
) -> WDPT:
    """Translate a well-designed {AND, OPT} pattern into a WDPT.

    ``projection`` selects the free variables (``None`` = all variables,
    i.e. a projection-free WDPT).

    >>> from repro.rdf.algebra import TriplePattern, Opt
    >>> p = pattern_to_wdpt(Opt(TriplePattern("?x", "a", "?y"),
    ...                         TriplePattern("?x", "b", "?z")))
    >>> len(p.tree)
    2
    """
    if not is_well_designed(pattern):
        raise NotWellDesignedError(
            "pattern %r is not well-designed; only well-designed {AND,OPT} "
            "patterns translate to WDPTs" % (pattern,)
        )
    normal = _normalize(pattern)
    labels: List[List[Atom]] = []
    parents: List[int] = []

    def emit(node: _NormalNode, parent: Optional[int]) -> None:
        bgp, children = node
        labels.append([_triple_atom(t) for t in bgp])
        my_id = len(labels) - 1
        if parent is not None:
            parents.append(parent)
        for child in children:
            emit(child, my_id)

    emit(normal, None)
    if projection is None:
        all_vars: Set[Variable] = set()
        for label in labels:
            for a in label:
                all_vars |= a.variables()
        frees: Sequence[object] = sorted(all_vars)
    else:
        frees = list(projection)
    return WDPT(PatternTree(parents), labels, frees)


def _normalize(pattern: Pattern) -> _NormalNode:
    """Rewrite into OPT normal form (see module docstring)."""
    if isinstance(pattern, TriplePattern):
        return ([pattern], [])
    if isinstance(pattern, And):
        left_bgp, left_children = _normalize(pattern.left)
        right_bgp, right_children = _normalize(pattern.right)
        # ((B₁ OPT …) AND (B₂ OPT …))  ≡  (B₁ AND B₂) OPT … OPT …
        return (left_bgp + right_bgp, left_children + right_children)
    if isinstance(pattern, Opt):
        left_bgp, left_children = _normalize(pattern.left)
        return (left_bgp, left_children + [_normalize(pattern.right)])
    raise TypeError("not a pattern: %r" % (pattern,))


def _triple_atom(t: TriplePattern) -> Atom:
    return Atom(TRIPLE_RELATION, t.terms())
