"""Unit tests for Yannakakis' algorithm (cross-checked against naive)."""

from functools import reduce

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.atoms import atom
from repro.core.canonical import FrozenVariable
from repro.core.cq import ConjunctiveQuery, cq
from repro.core.database import Database
from repro.core.mappings import Mapping
from repro.core.terms import Variable
from repro.cqalgs.enumeration import enumerate_answers
from repro.cqalgs.structured import relation_by_elimination
from repro.cqalgs.naive import evaluate_naive, homomorphisms
from repro.cqalgs import yannakakis
from repro.cqalgs.yannakakis import (
    columnar_join_phase,
    evaluate_acyclic,
    relation_with_join_tree,
    satisfiable_with_join_tree,
    scan_schedule,
    semijoin_reduce,
)
from repro.engine import Session
from repro.exceptions import ClassMembershipError
from repro.hypergraphs.gyo import join_tree_of_atoms, join_tree_shape
from repro.relalg.relation import (
    from_mappings,
    hash_join,
    project,
    scan,
    semijoin,
    to_mappings,
)
from repro.storage import MemoryBackend, SQLiteBackend
from repro.telemetry.tracer import tracing
from repro.workloads.datasets import music_catalog
from repro.workloads.generators import path_cq, random_graph_database, star_cq


@pytest.fixture
def db():
    return random_graph_database(8, 25, seed=42)


@pytest.mark.parametrize("length", [1, 2, 3, 5])
def test_path_queries_agree_with_naive(db, length):
    q = path_cq(length)
    assert evaluate_acyclic(q, db) == evaluate_naive(q, db)


def test_star_query(db):
    q = star_cq(3)
    assert evaluate_acyclic(q, db) == evaluate_naive(q, db)


def test_boolean_query(db):
    q = path_cq(4, frees=[])
    assert evaluate_acyclic(q, db) == evaluate_naive(q, db)


def test_full_query(db):
    q = path_cq(3)
    q_full = q.full()
    assert evaluate_acyclic(q_full, db) == evaluate_naive(q_full, db)


def test_cyclic_rejected(db):
    tri = cq([], [atom("E", "?x", "?y"), atom("E", "?y", "?z"), atom("E", "?z", "?x")])
    with pytest.raises(ClassMembershipError):
        evaluate_acyclic(tri, db)


def test_dangling_tuples_removed():
    """The classic case semi-joins exist for: tuples that join locally but
    not globally must not survive."""
    db = Database([atom("R", 1, 2), atom("S", 2, 3), atom("T", 3, 4), atom("S", 2, 9)])
    q = cq(["?a"], [atom("R", "?a", "?b"), atom("S", "?b", "?c"), atom("T", "?c", "?d")])
    assert evaluate_acyclic(q, db) == evaluate_naive(q, db)


def test_empty_relation_short_circuits():
    db = Database([atom("R", 1, 2)])
    q = cq([], [atom("R", "?x", "?y"), atom("Z", "?y", "?w")])
    assert evaluate_acyclic(q, db) == frozenset()


def test_constants_in_query(db):
    q = cq(["?y"], [atom("E", 0, "?x"), atom("E", "?x", "?y")])
    assert evaluate_acyclic(q, db) == evaluate_naive(q, db)


def test_disconnected_query(db):
    q = cq(["?x", "?u"], [atom("E", "?x", "?y"), atom("E", "?u", "?v")])
    assert evaluate_acyclic(q, db) == evaluate_naive(q, db)


def test_theta_family_is_acyclic_and_agrees():
    from repro.workloads.families import example5_theta

    q = example5_theta(3)
    db = Database(
        [atom("E", i, j) for i in range(3) for j in range(3)]
        + [atom("T3", 0, 1, 2), atom("T3", 1, 1, 1)]
    )
    assert evaluate_acyclic(q, db) == evaluate_naive(q, db)


# ---------------------------------------------------------------------------
# The scan schedule: bound order, seeds passed along the join tree
# ---------------------------------------------------------------------------
#: relation -> (arity, most facts drawn); ``Z`` never gets one (the empty
#: relation), ``T`` gets enough for an index probe to beat a full scan.
RELATIONS = {"E": (2, 9), "F": (2, 9), "T": (3, 27), "U": (1, 3), "Z": (2, 0)}
VALUES = (0, 1, 2)
#: Payloads equal across types: ``1``, ``1.0`` and ``True`` are three
#: constants (keyed by type and value), ``"1"`` is a fourth, and
#: ``None``, a tuple and a frozen variable are constants like any other.
PAYLOADS = (1, 1.0, True, "1", None, (1, 2), FrozenVariable(Variable("x")))


@st.composite
def acyclic_cq_and_facts(draw, values=VALUES):
    """An acyclic CQ grown ear by ear — every new atom takes its old
    variables from one earlier atom (possibly none: a join-tree edge with
    no shared variable) — with constants at any position (ground atoms,
    multi-constant ``T`` patterns), repeated variables, now and then the
    empty relation; a database; free variables; maybe a seed over some:
    ``(schema, mappings)``, packed per backend by :func:`_packed`."""
    atoms, fresh = [], 0
    for _ in range(draw(st.integers(1, 4))):
        relation = draw(st.sampled_from("EEEFFFTTTTUZ"))
        old = sorted(draw(st.sampled_from(atoms)).variables()) if atoms else []
        args = []
        for _ in range(RELATIONS[relation][0]):
            kind = draw(st.sampled_from(["old"] * 3 + ["new", "new", "constant", "constant", "repeat"]))
            mine = [a for a in args if isinstance(a, str) and a.startswith("?")]
            if kind == "old" and old:
                args.append("?" + draw(st.sampled_from(old)).name)
            elif kind == "repeat" and mine:
                args.append(draw(st.sampled_from(mine)))
            elif kind == "constant":
                args.append(draw(st.sampled_from(values)))
            else:
                fresh += 1
                args.append("?v%d" % fresh)
        atoms.append(atom(relation, *args))
    atoms = sorted(set(atoms))
    facts = {
        atom(relation, *[draw(st.sampled_from(values)) for _ in range(arity)])
        for relation, (arity, most) in RELATIONS.items()
        for _ in range(draw(st.integers(most // 3, most)))
    }
    variables = sorted({v for a in atoms for v in a.variables()})
    frees = draw(st.sets(st.sampled_from(variables), min_size=1)) if variables else set()
    seed = None
    if frees and draw(st.integers(0, 2)):
        schema = sorted(draw(st.sets(st.sampled_from(sorted(frees)), min_size=1)))
        seed = schema, [
            Mapping({v: draw(st.sampled_from(values)) for v in schema})
            for _ in range(draw(st.integers(1, 6)))
        ]
    return atoms, sorted(facts), frozenset(frees), seed


def _joins(h, seed):
    return seed is None or any(
        all(h[v] == key[v] for v in seed[0]) for key in seed[1]
    )


def _packed(seed, db):
    """The drawn seed as a relation over ``db``'s cells."""
    return None if seed is None else from_mappings(seed[1], seed[0], db)


CONFIGURATIONS = (MemoryBackend, SQLiteBackend)


_ACYCLIC = settings(
    max_examples=150, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@_ACYCLIC
@given(acyclic_cq_and_facts())
@example((
    # R's scan is seeded by the one-row S, not by the larger seed — which
    # must still filter it: R holds every seed variable, so nothing later will.
    [atom("R", "?x", "?y"), atom("S", "?y", "c")],
    [atom("R", x, 10) for x in range(1, 5)] + [atom("S", 10, "c")],
    frozenset({Variable("x")}),
    ([Variable("x")], [Mapping({"?x": value}) for value in (1, 2, 9)]),
))
def test_scan_schedule_stays_between_full_reduction_and_plain_scan(case):
    atoms, facts, frees, seed = case
    links = join_tree_of_atoms(atoms)
    assert links is not None
    oracle = MemoryBackend(facts)
    homs = [h for h in homomorphisms(atoms, oracle) if _joins(h, seed)]
    expected = frozenset(h.restrict(frees) for h in homs)
    for backend in CONFIGURATIONS:
        db, config = backend(facts), backend.__name__
        tree = join_tree_shape(links, len(atoms))
        relations = scan_schedule(atoms, tree, db, _packed(seed, db))
        if relations is None:
            assert not homs, config
        else:
            for a, rel in zip(atoms, relations):
                plain = scan(a, db)
                assert rel.schema == plain.schema, config
                assert set(rel.rows) <= set(plain.rows), config
                assert len(set(rel.rows)) == len(rel.rows), config
                reduced = from_mappings(homs, rel.schema, db)
                assert set(reduced.rows) <= set(rel.rows), config
        answers = relation_with_join_tree(
            atoms, tree, db, frees, seed=_packed(seed, db)
        )
        assert to_mappings(answers) == expected, config
        if seed is None:
            assert satisfiable_with_join_tree(atoms, tree, db) is bool(homs), config


@st.composite
def cq_order_and_facts(draw):
    """:func:`acyclic_cq_and_facts` with, now and then, an ``E`` atom over
    two of its variables (closing a cycle, or a self-loop), and any order
    of the variables to eliminate in."""
    atoms, facts, frees, seed = draw(acyclic_cq_and_facts())
    variables = sorted({v for a in atoms for v in a.variables()})
    if variables and draw(st.booleans()):
        pair = [draw(st.sampled_from(variables)) for _ in range(2)]
        atoms = sorted(set(atoms) | {atom("E", *["?" + v.name for v in pair])})
    return atoms, draw(st.permutations(variables)), facts, frees, seed


@_ACYCLIC
@given(cq_order_and_facts())
@example((
    # No atom holds both seed variables: each seeded scan lets (1, 4) and
    # (3, 2) through, and only the seed joined as a factor drops them.
    [atom("R", "?x", "?u"), atom("S", "?u", "?y")],
    [Variable("u"), Variable("x"), Variable("y")],
    [atom("R", 1, "a"), atom("R", 3, "a"), atom("S", "a", 2), atom("S", "a", 4)],
    frozenset({Variable("x"), Variable("u"), Variable("y")}),
    ([Variable("x"), Variable("y")], [Mapping({"?x": 1, "?y": 2}), Mapping({"?x": 3, "?y": 4})]),
))
def test_seeded_elimination_is_the_semijoin_of_the_unseeded_answers(case):
    """The seeded contract of the Theorem 2 answers form, as for
    ``relation_with_join_tree`` above: over any order, the seeded run's
    answers are the unseeded ones that join the seed, which are the
    search's answers that do — memory and SQLite."""
    atoms, order, facts, frees, seed = case
    homs = [h for h in homomorphisms(atoms, MemoryBackend(facts)) if _joins(h, seed)]
    expected = frozenset(h.restrict(frees) for h in homs)
    for backend in CONFIGURATIONS:
        db, config = backend(facts), backend.__name__
        seeded = relation_by_elimination(atoms, order, db, frees, seed=_packed(seed, db))
        assert to_mappings(seeded) == expected, config
        if seed is not None:
            full = relation_by_elimination(atoms, order, db, frees)
            assert to_mappings(seeded) == to_mappings(semijoin(full, _packed(seed, db)))


@_ACYCLIC
@given(acyclic_cq_and_facts())
def test_semijoin_program_ends_in_the_full_reduction(case):
    """Per atom, exactly the rows some homomorphism uses."""
    atoms, facts, _, _ = case
    links = join_tree_of_atoms(atoms)
    homs = list(homomorphisms(atoms, MemoryBackend(facts)))
    for backend in CONFIGURATIONS:
        db, config = backend(facts), backend.__name__
        relations = scan_schedule(atoms, join_tree_shape(links, len(atoms)), db)
        alive = relations is not None and semijoin_reduce(
            relations, join_tree_shape(links, len(atoms))
        )
        assert alive is bool(homs), config
        for rel in relations if alive else ():
            used = set(from_mappings(homs, rel.schema, db).rows)
            assert len(rel.rows) == len(used) and set(rel.rows) == used, config


@_ACYCLIC
@given(acyclic_cq_and_facts(PAYLOADS))
def test_payload_equality_classes_survive_the_term_dictionary(case):
    """Cells are codes of equality classes of payloads, as the index keys
    of the store always were: answers (seeded or not, set or stream)
    equal the backtracking search's over every kind of payload."""
    atoms, facts, frees, seed = case
    db = MemoryBackend(facts)
    homs = [h for h in homomorphisms(atoms, db) if _joins(h, seed)]
    answers = relation_with_join_tree(
        atoms,
        join_tree_shape(join_tree_of_atoms(atoms), len(atoms)),
        db,
        frees,
        seed=_packed(seed, db),
    )
    assert to_mappings(answers) == frozenset(h.restrict(frees) for h in homs)
    query = ConjunctiveQuery(sorted(frees), atoms)
    assert frozenset(enumerate_answers(query, db)) == evaluate_naive(query, db)


@_ACYCLIC
@given(acyclic_cq_and_facts())
def test_enumeration_emits_every_answer_once(case):
    atoms, facts, frees, _ = case
    query = ConjunctiveQuery(sorted(frees), atoms)
    expected = evaluate_naive(query, MemoryBackend(facts))
    for backend in CONFIGURATIONS:
        db, config = backend(facts), backend.__name__
        emitted = list(enumerate_answers(query, db))
        assert len(emitted) == len(expected), config
        assert frozenset(emitted) == expected, config
        assert list(enumerate_answers(query, db, limit=2)) == emitted[:2], config


@_ACYCLIC
@given(acyclic_cq_and_facts())
def test_join_phase_is_join_then_project(case):
    """On plain scans — private columns, zero-column relations, edges
    without a shared variable and all: the pass needs a join tree, not a
    reduction."""
    atoms, facts, frees, _ = case
    db = MemoryBackend(facts)
    relations = [scan(a, db) for a in atoms]
    tree = join_tree_shape(join_tree_of_atoms(atoms), len(atoms))
    wide = project(reduce(hash_join, relations), frees)
    assert to_mappings(columnar_join_phase(frees, relations, tree)) == to_mappings(wide)


def test_join_phase_drops_private_columns_before_joining(monkeypatch):
    """Structural, not wall-clock: a node's relation enters its joins
    without the columns that are neither kept above it nor shared with a
    child — here the root's ``?d``, 400 values per ``?c``, which would
    multiply every row pair of the root's joins."""
    facts = (
        [atom("R", a, a % 5) for a in range(20)]
        + [atom("S", b, c) for b in range(5) for c in range(3)]
        + [atom("V", c, c + 10) for c in range(3)]
        + [atom("T", c, d) for c in range(3) for d in range(400)]
    )
    atoms = [atom("R", "?a", "?b"), atom("S", "?b", "?c"), atom("V", "?c", "?e"),
             atom("T", "?c", "?d")]
    db = MemoryBackend(facts)
    tree = join_tree_shape([(0, 1), (1, 3), (2, 3)], 4)  # rooted at T(c, d)
    frees = frozenset({Variable("a"), Variable("e")})
    calls = []

    def recording(left, right, keep=None):
        calls.append((left, right, keep))
        return hash_join(left, right, keep)

    monkeypatch.setattr(yannakakis, "hash_join", recording)
    answers = columnar_join_phase(frees, [scan(a, db) for a in atoms], tree)
    assert to_mappings(answers) == evaluate_naive(ConjunctiveQuery(sorted(frees), atoms), db)
    # A node's joins end with the one that is handed the kept columns.
    ends = [i + 1 for i, call in enumerate(calls) if call[2] is not None]
    nodes = [calls[start:end] for start, end in zip([0] + ends, ends)]
    assert [len(node) for node in nodes] == [1, 2]  # S with R; T with S, then V
    for node in nodes:
        allowed = set(node[-1][2]).union(*(right.schema for _, right, _ in node))
        assert set(node[0][0].schema) <= allowed
    root = nodes[-1][0][0]
    assert root.schema == (Variable("c"),) and len(root) == 3


def test_band_query_root_label_reads_a_handful_of_facts():
    """Structural, not wall-clock: the selective ``recorded_by`` atom is
    scanned first and turns the scan of the 1 000-fact ``published``
    posting list into one index probe per record of the band."""
    graph = music_catalog(200, 5, seed=1)
    text = (
        'SELECT ?x ?z WHERE { ?x recorded_by band_7 . ?x published "after_2010" '
        "OPTIONAL { ?x NME_rating ?z } }"
    )
    with Session(graph, backend="memory", cache=False) as session:
        with tracing() as tracer:
            answers = session.query(text).answers
        db = session.database
        root = next(run for run in tracer.find("yannakakis") if run.attrs["atoms"] == 2)
        (span,) = [child for child in root.children if child.name == "yannakakis.scan"]
        published, recorded_by = sorted(session.parse(text).labels[0])
        assert db.match_bound(published) > 400 and db.match_bound(recorded_by) == 5
        assert span.attrs["scan_order"] == [1, 0]
        assert span.attrs["seeded_by"] == [1, None]
        assert sum(span.attrs["facts_read"]) <= 50
        assert span.attrs["relation_sizes"][0] == len(answers) <= 5


def test_schedule_asks_for_one_bound_per_atom():
    """On SQLite a bound is a ``COUNT`` query: the schedule takes one per
    atom and hands it to the seeded scan instead of letting it ask again."""

    class Counting(MemoryBackend):
        __slots__ = ("bounds",)

        def match_bound(self, pattern):
            self.bounds = getattr(self, "bounds", 0) + 1
            return super().match_bound(pattern)

    facts = [atom("R", x, x % 3) for x in range(40)] + [atom("S", 1, "c")]
    atoms = [atom("R", "?x", "?y"), atom("S", "?y", "c")]
    x = Variable("x")
    db = Counting(facts)
    seed = from_mappings([Mapping({x: value}) for value in (1, 4, 5)], [x], db)
    rel = relation_with_join_tree(
        atoms, join_tree_shape([(1, 0)], len(atoms)), db, {x}, seed=seed
    )
    assert to_mappings(rel) == {Mapping({x: 1}), Mapping({x: 4})}
    assert db.bounds == 2
    # A lone atom is ordered against nobody: only a seeded scan wants its bound.
    db.bounds = 0
    relation_with_join_tree(atoms[:1], join_tree_shape([], 1), db, {x})
    assert db.bounds == 0
    relation_with_join_tree(atoms[:1], join_tree_shape([], 1), db, {x}, seed=seed)
    assert db.bounds == 1
