"""The paper's explicit constructions, as executable families.

* :func:`figure1_wdpt` / :func:`example2_graph` — the running example
  (Figure 1, Examples 1–3, 7).
* :func:`figure2_family` — the pair ``(p₁⁽ⁿ⁾, p₂⁽ⁿ⁾)`` of Figure 2 behind
  Theorem 15's exponential lower bound on approximation size.
* :func:`prop2_family` — trees in ``g-TW(1)`` with unbounded interface
  (Proposition 2(2): global tractability does not imply bounded
  interface).
* :func:`three_colorability_instance` — Proposition 3's reduction showing
  ``EVAL(g-TW(1))`` NP-hard: the answer check encodes graph
  3-colorability.
* :func:`example5_theta` — the CQs ``θ_n`` (acyclic yet of unbounded
  treewidth, Example 5).
"""

from __future__ import annotations

import itertools
from typing import List, Sequence, Tuple

from ..core.atoms import Atom
from ..core.cq import ConjunctiveQuery
from ..core.database import Database
from ..core.mappings import Mapping
from ..rdf.graph import RDFGraph
from ..rdf.parser import parse_query
from ..wdpt.tree import PatternTree
from ..wdpt.wdpt import WDPT

#: The paper's query (1), in the algebraic syntax accepted by the parser.
FIGURE1_QUERY_TEXT = (
    '(((?x, recorded_by, ?y) AND (?x, published, "after_2010"))'
    " OPT (?x, NME_rating, ?z)) OPT (?y, formed_in, ?z2)"
)


def figure1_wdpt(projection: Sequence[str] = ("?x", "?y", "?z", "?z2")) -> WDPT:
    """The WDPT of Figure 1 (query (1) of Example 1), over the triple
    relation.  ``projection`` defaults to all variables; Example 3 uses
    ``("?y", "?z", "?z2")`` and Example 7 uses ``("?y", "?z")``."""
    text = "SELECT %s WHERE %s" % (" ".join(projection), FIGURE1_QUERY_TEXT)
    return parse_query(text)


def example2_graph() -> RDFGraph:
    """The database of Example 2."""
    return RDFGraph(
        [
            ("Our_love", "recorded_by", "Caribou"),
            ("Our_love", "published", "after_2010"),
            ("Swim", "recorded_by", "Caribou"),
            ("Swim", "published", "after_2010"),
            ("Swim", "NME_rating", "2"),
        ]
    )


# ---------------------------------------------------------------------------
# Figure 2 / Theorem 15
# ---------------------------------------------------------------------------
def figure2_family(n: int, k: int = 2) -> Tuple[WDPT, WDPT]:
    """The pair ``(p₁⁽ⁿ⁾, p₂⁽ⁿ⁾)`` of Figure 2.

    ``p₂ ⊑ p₁``, ``p₂ ∈ WB(k)`` while ``p₁ ∉ WB(k)``, and
    ``|p₁| = O(n²)`` vs ``|p₂| = Ω(2ⁿ)`` — every ``WB(k)`` tree between
    them is at least as large as ``p₂`` (Theorem 15).
    """
    if n < 1 or k < 1:
        raise ValueError("need n ≥ 1 and k ≥ 1")
    alphas = ["?alpha%d" % i for i in range(k + 1)]
    zs = ["?z%d" % i for i in range(1, n + 1)]

    # --- p1 ---------------------------------------------------------------
    root1: List[Atom] = [Atom("a", ("?x",))]
    root1 += [Atom("b%d" % i, (alphas[i],)) for i in range(k + 1)]
    root1 += [Atom("c%d" % i, (alphas[0],)) for i in range(1, n + 1)]
    root1 += [Atom("c%d" % i, ("?z%d" % i,)) for i in range(1, n + 1)]
    clique1 = alphas + zs
    root1 += [
        Atom("d", (u, v)) for u in clique1 for v in clique1 if u != v
    ]
    root1 += [Atom("d", (alphas[0], alphas[0])), Atom("d", (alphas[1], alphas[1]))]
    # Leaf i carries b₁(z_i): in p₂'s canonical databases the only b₁ fact
    # is b₁(α₁), which is what forces z_i ↦ α₁ exactly when leaf i is part
    # of the chosen subtree (see the Theorem 15 proof sketch).
    leaves1: List[List[Atom]] = [[Atom("a0", ("?x0",)), Atom("e", tuple(zs))]]
    for i in range(1, n + 1):
        leaves1.append(
            [
                Atom("a%d" % i, ("?x%d" % i,)),
                Atom("b1", ("?z%d" % i,)),
                Atom("c%d" % i, (alphas[1],)),
            ]
        )
    frees = ["?x"] + ["?x%d" % i for i in range(n + 1)]
    p1 = WDPT(
        PatternTree([0] * (n + 1)),
        [root1] + leaves1,
        frees,
    )

    # --- p2 ---------------------------------------------------------------
    root2: List[Atom] = [Atom("a", ("?x",))]
    root2 += [Atom("b%d" % i, (alphas[i],)) for i in range(k + 1)]
    root2 += [Atom("c%d" % i, (alphas[0],)) for i in range(1, n + 1)]
    root2 += [Atom("d", (u, v)) for u in alphas for v in alphas if u != v]
    root2 += [Atom("d", (alphas[0], alphas[0])), Atom("d", (alphas[1], alphas[1]))]
    leaf2_0: List[Atom] = [Atom("a0", ("?x0",))]
    for combo in itertools.product([alphas[0], alphas[1]], repeat=n):
        leaf2_0.append(Atom("e", tuple(combo)))
    leaves2: List[List[Atom]] = [leaf2_0]
    for i in range(1, n + 1):
        leaves2.append([Atom("a%d" % i, ("?x%d" % i,)), Atom("c%d" % i, (alphas[1],))])
    p2 = WDPT(
        PatternTree([0] * (n + 1)),
        [root2] + leaves2,
        frees,
    )
    return p1, p2


# ---------------------------------------------------------------------------
# Proposition 2(2): global tractability without bounded interface
# ---------------------------------------------------------------------------
def prop2_family(n: int, k: int = 1) -> WDPT:
    """A WDPT in ``g-TW(k)`` (indeed ``g-TW(1)``) whose interface width is
    ``n`` — so no ``BI(c)`` contains the family as ``n`` grows."""
    if n < 1:
        raise ValueError("need n ≥ 1")
    ys = ["?y%d" % i for i in range(n)]
    root = [Atom("E", ("?x", y)) for y in ys]
    child = [Atom("G", (y,)) for y in ys]
    return WDPT(PatternTree([0]), [root, child], ["?x"])


# ---------------------------------------------------------------------------
# Proposition 3: EVAL(g-TW(1)) is NP-hard, via 3-colorability
# ---------------------------------------------------------------------------
def three_colorability_instance(
    n_vertices: int, edges: Sequence[Tuple[int, int]]
) -> Tuple[Database, WDPT, Mapping]:
    """The reduction of Proposition 3's proof.

    Returns ``(D, p, h)`` with ``D = {c(1,1), c(2,2), c(3,3)}`` and ``p``
    globally tractable (``g-TW(1)`` and ``g-HW(1)``) such that the input
    graph is 3-colorable iff ``h ∈ p(D)``.
    """
    db = Database([Atom("c", (v, v)) for v in (1, 2, 3)])
    root = [Atom("c", ("?u%d" % i, "?u%d" % i)) for i in range(n_vertices)]
    root.append(Atom("c", ("?x", "?x")))
    labels: List[List[Atom]] = [root]
    parents: List[int] = []
    frees = ["?x"]
    for j, (v1, v2) in enumerate(edges):
        if not (0 <= v1 < n_vertices and 0 <= v2 < n_vertices):
            raise ValueError("edge (%d, %d) out of range" % (v1, v2))
        for colour in (1, 2, 3):
            xj = "?xx%d_%d" % (j, colour)
            labels.append(
                [
                    Atom("c", ("?u%d" % v1, colour)),
                    Atom("c", ("?u%d" % v2, colour)),
                    Atom("c", (xj, xj)),
                ]
            )
            parents.append(0)
            frees.append(xj)
    p = WDPT(PatternTree(parents), labels, frees)
    h = Mapping({"?x": 1})
    return db, p, h


# ---------------------------------------------------------------------------
# Example 5: acyclic CQs of unbounded treewidth
# ---------------------------------------------------------------------------
def example5_theta(n: int) -> ConjunctiveQuery:
    """``θ_n := Ans() ← ⋀_{i<j} E(x_i, x_j), T_n(x₁, …, x_n)`` — in
    ``HW(1) = AC`` but of treewidth ``n − 1``."""
    if n < 2:
        raise ValueError("need n ≥ 2")
    xs = ["?x%d" % i for i in range(1, n + 1)]
    atoms = [Atom("E", (xs[i], xs[j])) for i in range(n) for j in range(i + 1, n)]
    atoms.append(Atom("T%d" % n, tuple(xs)))
    return ConjunctiveQuery((), atoms)
