"""Unit tests for the backtracking CQ engine."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import Atom, atom, variables_of
from repro.core.cq import cq
from repro.core.database import Database
from repro.core.mappings import Mapping
from repro.cqalgs.homomorphism import query_homomorphisms
from repro.cqalgs.naive import evaluate_naive, homomorphisms, satisfiable
from repro.storage import MemoryBackend, to_backend
from tests.harness.oracles import count_homomorphisms


@pytest.fixture
def db():
    return Database([atom("E", 1, 2), atom("E", 2, 3), atom("E", 3, 1), atom("E", 2, 2)])


class TestEvaluate:
    def test_single_atom(self, db):
        q = cq(["?x", "?y"], [atom("E", "?x", "?y")])
        assert len(evaluate_naive(q, db)) == 4

    def test_projection(self, db):
        q = cq(["?x"], [atom("E", "?x", "?y")])
        assert evaluate_naive(q, db) == {
            Mapping({"?x": 1}),
            Mapping({"?x": 2}),
            Mapping({"?x": 3}),
        }

    def test_join(self, db):
        q = cq(["?x", "?z"], [atom("E", "?x", "?y"), atom("E", "?y", "?z")])
        answers = evaluate_naive(q, db)
        assert Mapping({"?x": 1, "?z": 3}) in answers
        assert Mapping({"?x": 1, "?z": 2}) in answers  # through the loop at 2

    def test_boolean(self, db):
        q = cq([], [atom("E", "?x", "?x")])
        assert evaluate_naive(q, db) == {Mapping({})}

    def test_boolean_false(self, db):
        q = cq([], [atom("E", 1, 1)])
        assert evaluate_naive(q, db) == frozenset()

    def test_constants_in_atoms(self, db):
        q = cq(["?y"], [atom("E", 2, "?y")])
        assert evaluate_naive(q, db) == {Mapping({"?y": 3}), Mapping({"?y": 2})}

    def test_repeated_variable(self, db):
        q = cq(["?x"], [atom("E", "?x", "?x")])
        assert evaluate_naive(q, db) == {Mapping({"?x": 2})}


class TestHomomorphisms:
    def test_total_on_variables(self, db):
        homs = list(homomorphisms([atom("E", "?x", "?y")], db))
        assert all(len(h) == 2 for h in homs)
        assert len(homs) == 4

    def test_no_duplicates(self, db):
        homs = list(homomorphisms([atom("E", "?x", "?y"), atom("E", "?x", "?y")], db))
        assert len(homs) == len(set(homs))

    def test_pre_assignment(self, db):
        pre = Mapping({"?x": 2})
        homs = set(homomorphisms([atom("E", "?x", "?y")], db, pre))
        assert homs == {Mapping({"?x": 2, "?y": 3}), Mapping({"?x": 2, "?y": 2})}

    def test_pre_assignment_with_foreign_variable(self, db):
        pre = Mapping({"?q": 7})
        homs = list(homomorphisms([atom("E", "?x", "?x")], db, pre))
        assert homs == [Mapping({"?q": 7, "?x": 2})]

    def test_limit(self, db):
        homs = list(homomorphisms([atom("E", "?x", "?y")], db, limit=2))
        assert len(homs) == 2

    def test_count(self, db):
        assert count_homomorphisms([atom("E", "?x", "?y")], db) == 4

    def test_cartesian_product(self, db):
        homs = list(homomorphisms([atom("E", "?a", "?b"), atom("E", "?c", "?d")], db))
        assert len(homs) == 16


class TestDecision:
    def test_satisfiable(self, db):
        assert satisfiable([atom("E", "?x", "?x")], db)
        assert not satisfiable([atom("E", 1, 1)], db)

    def test_satisfiable_with_pre(self, db):
        assert satisfiable([atom("E", "?x", "?y")], db, Mapping({"?x": 1}))
        assert not satisfiable([atom("E", "?x", "?y")], db, Mapping({"?x": 99}))

    def test_is_answer_exact_domain(self, db):
        q = cq(["?x"], [atom("E", "?x", "?y")])
        answers = evaluate_naive(q, db)
        assert Mapping({"?x": 1}) in answers
        assert Mapping({"?x": 1, "?y": 2}) not in answers  # wrong domain
        assert Mapping({"?x": 99}) not in answers


class TestLimit:
    def test_zero_means_zero(self, db):
        assert list(homomorphisms([atom("E", "?x", "?y")], db, limit=0)) == []
        assert list(homomorphisms([], db, limit=0)) == []
        source, target = [atom("E", "?x", "?y")], [atom("E", "?a", "?b")]
        assert list(query_homomorphisms(source, target, limit=0)) == []
        assert len(list(query_homomorphisms(source, target, limit=1))) == 1


# ---------------------------------------------------------------------------
# The oracle's oracle: every assignment of the variables over the active
# domain, kept when every atom lands on a fact.
# ---------------------------------------------------------------------------
FACT_POOL = [
    atom(relation, *args)
    for relation, arity in (("E", 2), ("T", 3), ("U", 1))
    for args in itertools.product((0, 1, "a"), repeat=arity)
]
_FACTS = st.lists(st.sampled_from(FACT_POOL), max_size=24)
#: "ghost" is a constant no store of this test ever holds.
_TERMS = st.sampled_from([0, 1, "a", "ghost", "?x", "?x", "?y", "?y", "?z", "?w"])
_ATOMS = st.lists(
    st.one_of(
        st.builds(lambda a, b: atom("E", a, b), _TERMS, _TERMS),
        st.builds(lambda a, b, c: atom("T", a, b, c), _TERMS, _TERMS, _TERMS),
        st.builds(lambda a: atom("U", a), _TERMS),
        st.builds(lambda a: atom("Z", a), _TERMS),  # unknown relation
        st.builds(lambda a: atom("E", a), _TERMS),  # wrong arity
    ),
    max_size=5,
)
#: ``?q`` occurs in no atom: a foreign variable the results must keep.
_PRE = st.dictionaries(
    st.sampled_from(["?x", "?y", "?q"]), st.sampled_from([0, 1, "a", "ghost"]), max_size=3
)


def brute_force(atoms, db, pre):
    facts = frozenset(db)
    variables = sorted(variables_of(atoms) - pre.domain())
    out = set()
    for values in itertools.product(sorted(db.active_domain()), repeat=len(variables)):
        h = dict(pre.items())
        h.update(zip(variables, values))
        if all(a.substitute(h) in facts for a in atoms):
            out.add(Mapping(h))
    return out


def check_against_brute_force(kind, facts, atoms, pre, limit):
    db = to_backend(facts, kind)
    try:
        pre = Mapping(pre)
        terms = None if db.codec is None else len(db.codec)
        expected = brute_force(atoms, db, pre)
        found = list(homomorphisms(atoms, db, pre))
        assert len(found) == len(set(found))  # no duplicates
        assert set(found) == expected
        wanted = variables_of(atoms) | pre.domain()
        assert all(h.domain() == wanted and pre.subsumed_by(h) for h in found)
        assert satisfiable(atoms, db, pre) == bool(expected)
        capped = list(homomorphisms(atoms, db, pre, limit=limit))
        assert len(capped) == min(limit, len(expected)) and set(capped) <= expected
        if not pre:
            assert count_homomorphisms(atoms, db) == len(expected)
        assert terms is None or len(db.codec) == terms  # reading never writes
    finally:
        getattr(db, "close", lambda: None)()


@pytest.mark.parametrize(
    "kind,examples", [("memory", 400), ("sqlite", 100)]
)
def test_search_agrees_with_brute_force(kind, examples):
    @settings(max_examples=examples, deadline=None)
    @given(facts=_FACTS, atoms=_ATOMS, pre=_PRE, limit=st.integers(0, 3))
    def run(facts, atoms, pre, limit):
        check_against_brute_force(kind, facts, atoms, pre, limit)

    run()


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
@pytest.mark.parametrize(
    "facts,atoms,pre",
    [
        # the empty atom list: exactly one homomorphism, the pre-assignment
        ([atom("E", 0, 1)], [], {}),
        ([], [], {"?q": "ghost"}),
        # a repeated variable whose two positions are bound at once
        (
            [atom("E", 0, 1), atom("E", 1, 1), atom("T", 0, 1, 0), atom("T", 1, 1, 1),
             atom("T", 1, 1, 0)],
            [atom("E", "?x", "?y"), atom("T", "?x", "?y", "?x")],
            {},
        ),
        # one (atom, position) asked for from two branches that narrowed the
        # atom differently: the index must come from the full row list
        (
            [atom("U", 0), atom("U", 1), atom("E", 0, 0), atom("E", 1, 1), atom("E", 0, 1),
             atom("T", 0, 0, 1), atom("T", 1, 1, 0), atom("T", 0, 1, 1), atom("T", 1, 0, 0)],
            [atom("U", "?x"), atom("E", "?x", "?y"), atom("T", "?x", "?y", "?z"),
             atom("E", "?z", "?z")],
            {},
        ),
        # ... and an index entry that what else is bound must still filter
        (
            [atom("U", 0), atom("W", 1), atom("W", "a"), atom("E", 0, 0), atom("E", 0, 1),
             atom("E", 1, "a")],
            [atom("U", "?x"), atom("W", "?y"), atom("E", "?x", "?y")],
            {},
        ),
        # pattern constants, a pre-assigned value and a constant never stored
        ([atom("E", 0, 1), atom("E", "a", 1)], [atom("E", "?x", 1), atom("E", "a", "?y")], {"?x": "a"}),
        ([atom("E", 0, 1)], [atom("E", "?x", "ghost")], {}),
        ([atom("E", 0, 1)], [atom("E", "?x", "?y")], {"?x": "ghost", "?q": 0}),
        # unknown relation, wrong arity
        ([atom("E", 0, 1)], [atom("E", "?x", "?y"), atom("Z", "?x")], {}),
        ([atom("E", 0, 1)], [atom("E", "?x")], {}),
    ],
)
def test_search_pinned_cases(kind, facts, atoms, pre):
    for limit in (0, 1, 5):
        check_against_brute_force(kind, facts, atoms, pre, limit)


def test_identity_codec_cells_are_constants():
    """On a backend without a codec the compiled search runs on the
    ``Constant`` objects themselves (the pinned SQLite CI step runs this)."""
    db = to_backend([atom("E", 0, 1), atom("E", 1, 0)], "sqlite")
    try:
        assert db.codec is None
        atoms = [atom("E", "?x", "?y"), atom("E", "?y", "?x")]
        assert set(homomorphisms(atoms, db)) == {
            Mapping({"?x": 0, "?y": 1}), Mapping({"?x": 1, "?y": 0})
        }
    finally:
        db.close()


# ---------------------------------------------------------------------------
# The mechanism, counted (no wall clock)
# ---------------------------------------------------------------------------
def test_one_search_builds_and_compiles_once_per_atom(monkeypatch):
    """A search reads every atom once: the atoms built and the patterns
    compiled by one ``satisfiable`` call are bounded by the number of
    query atoms, however many steps the search takes."""
    k, width = 6, 4
    # A layered graph with a dead end in the last layer: every path is
    # walked before the search can say no.
    facts = [
        atom("E", (layer, i), (layer + 1, j))
        for layer in range(k) for i in range(width) for j in range(width)
    ]
    db = Database(facts)
    query = [atom("E", "?v%d" % i, "?v%d" % (i + 1)) for i in range(k)]
    query.append(atom("E", "?v%d" % k, "?v0"))  # closes no cycle: unsatisfiable
    built, compiled = [], []
    init, compile_ = Atom.__init__, MemoryBackend._compile
    monkeypatch.setattr(
        Atom, "__init__", lambda self, *a: (built.append(1), init(self, *a))[1]
    )
    monkeypatch.setattr(
        MemoryBackend, "_compile",
        lambda self, pattern: (compiled.append(1), compile_(self, pattern))[1],
    )
    assert not satisfiable(query, db)
    assert len(built) <= len(query) and len(compiled) == len(query)
    del built[:], compiled[:]
    assert not satisfiable(query, db, Mapping({"?v0": (0, 0)}))
    assert len(built) <= len(query) and len(compiled) == len(query)


def test_row_lists_are_walked_twice_at_most_and_a_first_branch_hashes_nothing():
    """Narrowing an atom's full row list costs one comparison pass on the
    first request for a position and one index build on the second — never
    more, however many steps the search takes — and a search that ends on
    its first branch hashes no cell at all."""
    walks, hashed = [], []

    class Cell(int):
        def __hash__(self):
            hashed.append(1)
            return int.__hash__(self)

    class Rows(list):
        def __iter__(self):
            walks.append(1)
            return list.__iter__(self)

    class Store:  # all the search asks of a store: the cell seam
        def rows(self, pattern):
            return Rows(edges)

    k, width = 6, 4
    edges = [
        (Cell(layer * width + i), Cell((layer + 1) * width + j))
        for layer in range(k) for i in range(width) for j in range(width)
    ]
    path = [atom("E", "?v%d" % i, "?v%d" % (i + 1)) for i in range(k)]
    assert satisfiable(path, Store())  # the first edge of layer 0 leads through
    assert not hashed and len(walks) == len(path)  # one pass each (the first: the loop)
    del walks[:]
    # Closing a cycle the layers do not have: every path is walked first.
    dead_end = path + [atom("E", "?v%d" % k, "?v0")]
    assert not satisfiable(dead_end, Store())
    assert hashed and len(walks) <= 1 + 2 * 2 * len(dead_end)  # the loop; a pass and a build per position
