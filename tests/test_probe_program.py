"""The ``probe`` route's compiled program.

A Boolean check whose atoms pairwise share no open variable runs on the
plan's probe program: per atom its relation, its argument template,
whether the bound set makes it ground and, when it does not, its fixed
positions and repeated open variables, built once per (shape, bound set)
and handed with the binding to one ``exists_substituted`` read.  These
tests hold that read to ``db.exists`` of the substituted atoms and to the
search, on memory and SQLite; check that a check on memory, ground or
open, builds no atom and compiles no pattern; and check that the one histogram update
per run keeps the selection counters and the engine time exact.
"""

import sys
import threading
from itertools import product

import pytest

from repro.core.atoms import Atom, atom
from repro.core.cq import ConjunctiveQuery
from repro.core.mappings import Mapping
from repro.core.terms import Constant, Variable
from repro.cqalgs.naive import satisfiable
from repro.engine import Session
from repro.planner import ENGINE_PROBE, Planner
from repro.storage import MemoryBackend, SQLiteBackend
from repro.storage.base import ProbeAtom
from repro.wdpt.wdpt import wdpt_from_nested
from repro.workloads.datasets import company_directory

BACKENDS = [MemoryBackend, SQLiteBackend]

X, Y, Z = Variable("?x"), Variable("?y"), Variable("?z")

#: Shapes whose atoms share no variable a binding of ``?x`` (or of
#: nothing) leaves open: every check below is a probe.
SHAPES = {
    "edge": [atom("E", "?x", "?y")],
    "loop": [atom("E", "?x", "?x")],
    "constant": [atom("E", "?x", 2), atom("L", "?x", "b")],
    "star": [atom("E", "?x", "?y"), atom("L", "?x", "?z")],
    "unknown relation": [atom("F", "?x")],
    "wrong arity": [atom("E", "?x", "?y", "?z")],
    "typed": [atom("T", "?x", "?y")],
}

FACTS = [
    atom("E", 1, 2), atom("E", 2, 2), atom("E", 3, 1),
    atom("L", 1, "b"), atom("L", 3, "a"),
    # 1, 1.0 and True are three constants.
    atom("T", 1, "int"), atom("T", 1.0, "float"),
]

VALUES = [Constant(v) for v in (1, 2, 3, 1.0, True, "never")]


def _bindings(atoms):
    """Every binding of ``?x`` alone and of all the shape's variables to
    the values above (stored or not, of every type), and the empty one
    when no two atoms share a variable."""
    variables = sorted({v for a in atoms for v in a.variables()}, key=repr)
    out = [{}] if sum(len(a.variables()) for a in atoms) == len(variables) else []
    out += [{X: c} for c in VALUES if X in variables]
    out += [dict(zip(variables, cs)) for cs in product(VALUES, repeat=len(variables))]
    return out


def _probe_plan(atoms, binding):
    profile = Planner().profile_cq(ConjunctiveQuery([], atoms))
    plan = profile.boolean_plan(binding)
    assert plan.engine == ENGINE_PROBE, (atoms, binding)
    return profile, plan


def _assert_agrees(db, atoms, binding):
    profile, plan = _probe_plan(atoms, binding)
    substituted = [a.substitute(binding) for a in profile.sorted_atoms]
    expected = all(db.exists(a) for a in substituted)
    assert satisfiable(substituted, db) is expected, binding
    assert db.exists_substituted(plan.structure, binding) is expected, binding
    assert Planner().satisfiable_substituted(profile, binding, db) is expected, binding
    return expected


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_program_read_equals_the_substituted_atoms(backend, shape):
    db = backend(FACTS)
    verdicts = {_assert_agrees(db, SHAPES[shape], b) for b in _bindings(SHAPES[shape])}
    if shape in ("unknown relation", "wrong arity"):
        assert verdicts == {False}
    else:
        assert verdicts == {True, False}, shape


def test_the_program_is_the_shape_s_atoms_under_the_bound_set():
    """One entry per atom: its relation, its arguments as the template,
    ground exactly when the bound set covers its variables."""
    atoms = SHAPES["star"]
    _, plan = _probe_plan(atoms, {X: Constant(1)})
    assert plan.structure == (
        ProbeAtom("E", (X, Y), False, ((0, X),)),
        ProbeAtom("L", (X, Z), False, ((0, X),)),
    )
    _, plan = _probe_plan(OPEN_SHAPE, {X: Constant(1)})
    assert plan.structure == (
        ProbeAtom("W", (X, Y, Y, Constant("k"), Y), False,
                  ((0, X), (3, Constant("k"))), ((1, 2), (1, 4))),
    )
    _, plan = _probe_plan(atoms, {X: Constant(1), Y: Constant(2), Z: Constant("a")})
    assert [entry.ground for entry in plan.structure] == [True, True]


@pytest.mark.parametrize("backend", BACKENDS)
def test_checks_follow_add_and_discard(backend):
    """After each write the read sees the store as it is now — also once
    a relation's last fact is gone and after it returns."""
    db = backend(FACTS)
    shape = SHAPES["constant"]
    binding = {X: Constant(1)}
    assert _assert_agrees(db, shape, binding) is True
    db.discard(atom("L", 1, "a"))  # absent: no change
    assert _assert_agrees(db, shape, binding) is True
    db.discard(atom("E", 1, 2))
    assert _assert_agrees(db, shape, binding) is False
    db.add(atom("E", 1, 2))
    assert _assert_agrees(db, shape, binding) is True
    for fact in db.facts("L"):
        db.discard(fact)
    assert "L" not in db.relations()
    assert _assert_agrees(db, shape, binding) is False
    assert _assert_agrees(db, [atom("L", "?x", "?y")], {}) is False
    db.add(atom("L", 1, "b"))
    assert _assert_agrees(db, shape, binding) is True
    assert _assert_agrees(db, [atom("L", "?x", "?y")], {}) is True
    assert _assert_agrees(db, [atom("L", "?x", "b", "?y")], binding) is False


@pytest.mark.parametrize("backend", BACKENDS)
def test_type_distinct_constants_stay_distinct(backend):
    db = backend(FACTS)
    shape = [atom("T", "?x", "?y")]
    bound = {(c.value, type(c.value)) for c in VALUES
             if _assert_agrees(db, shape, {X: c, Y: Constant("int")})}
    assert bound == {(1, int)}
    bound = {(c.value, type(c.value)) for c in VALUES
             if _assert_agrees(db, shape, {X: c})}
    assert bound == {(1, int), (1.0, float)}


#: One atom a binding of ``?x`` leaves open: a label constant, a repeated
#: open variable, and facts whose ``?x`` values are 1, 1.0 and True.
OPEN_SHAPE = [atom("W", "?x", "?y", "?y", "k", "?y")]
OPEN_FACTS = [
    atom("W", 1, 5, 5, "k", 5), atom("W", 1.0, 2, 3, "k", 2),
    atom("W", True, 4, 4, "j", 4), atom("W", "a", 6, 6, "k", 6),
    atom("W", "a", 7, 7, "k", 8),
]


@pytest.mark.parametrize("backend", BACKENDS)
def test_open_atoms_read_as_the_substituted_atom(backend):
    """An open atom's read — its fixed positions and its repeats — gives
    ``exists`` of the substituted atom: a constant in the label, a
    repeated open variable, and bound values ``1``, ``1.0`` and ``True``
    that are three constants."""
    db = backend(OPEN_FACTS)
    values = [Constant(v) for v in (1, 1.0, True, "a", "never")]
    verdicts = [_assert_agrees(db, OPEN_SHAPE, {X: c}) for c in values]
    assert verdicts == [True, False, False, True, False]
    assert _assert_agrees(db, OPEN_SHAPE, {}) is True
    assert _assert_agrees(db, [atom("W", "?x", "?y", "?y", "j", "?x")], {}) is False


def test_an_open_check_on_memory_builds_no_atom_and_compiles_nothing(monkeypatch):
    """Atoms the binding leaves open are read from the postings of their
    fixed positions: no ``Atom`` built, no pattern compiled, and a
    constant the store never saw adds nothing to its dictionary."""
    db = MemoryBackend(OPEN_FACTS)
    planner = Planner()
    profile = planner.profile_cq(ConjunctiveQuery([], OPEN_SHAPE))
    bindings = [{X: Constant(v)} for v in (1, 1.0, True, "a", "never")]
    planner.satisfiable_substituted(profile, bindings[0], db)  # builds the plan
    terms = len(db.codec)
    counts = {"__init__": 0, "_compile": 0, "exists": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(Atom, "__init__")
    counting(MemoryBackend, "_compile")
    counting(MemoryBackend, "exists")
    verdicts = [planner.satisfiable_substituted(profile, b, db) for b in bindings]
    assert verdicts == [True, False, False, True, False]
    assert counts == {"__init__": 0, "_compile": 0, "exists": 0}
    assert len(db.codec) == terms


def test_a_ground_check_on_memory_builds_no_atom_and_compiles_nothing(monkeypatch):
    """Every atom bound: each read is one lookup of the filled argument
    tuple — no ``Atom`` constructed or substituted, no pattern compiled,
    no ``exists`` call."""
    db = MemoryBackend(FACTS)
    planner = Planner()
    atoms = SHAPES["star"]
    profile = planner.profile_cq(ConjunctiveQuery([], atoms))
    bindings = [
        {X: Constant(x), Y: Constant(y), Z: Constant(z)}
        for x, y, z in [(1, 2, "b"), (3, 1, "a"), (1, 2, "a"), (2, 2, "a"), (9, 9, "z")]
    ]
    expected = [satisfiable([a.substitute(b) for a in atoms], db) for b in bindings]
    assert expected == [True, True, False, False, False]
    planner.satisfiable_substituted(profile, bindings[0], db)  # builds the plan
    counts = {"__init__": 0, "substitute": 0, "_compile": 0, "exists": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(Atom, "__init__")
    counting(Atom, "substitute")
    counting(MemoryBackend, "_compile")
    counting(MemoryBackend, "exists")
    verdicts = [planner.satisfiable_substituted(profile, b, db) for b in bindings]
    assert verdicts == expected
    assert counts == {"__init__": 0, "substitute": 0, "_compile": 0, "exists": 0}
    assert planner.engine_selections == {ENGINE_PROBE: 1 + len(bindings)}


def test_sqlite_prepares_one_statement_per_probe_atom_layout(monkeypatch):
    """SQLite's read builds no ``Atom`` and keeps one statement text per
    (relation, arity, fixed positions, repeats): new values, bound or
    constant, add none."""
    db = SQLiteBackend(OPEN_FACTS + FACTS)
    planner = Planner()
    shapes = [OPEN_SHAPE, SHAPES["star"], SHAPES["constant"]]
    profiles = [planner.profile_cq(ConjunctiveQuery([], shape)) for shape in shapes]
    for profile in profiles:
        planner.satisfiable_substituted(profile, {X: Constant(1)}, db)
    statements = dict(db._probe_sql)
    built = []
    monkeypatch.setattr(Atom, "__init__", lambda *args: built.append(args))
    for value in (1, 1.0, True, "a", "never", 2, 3):
        for profile in profiles:
            planner.satisfiable_substituted(profile, {X: Constant(value)}, db)
    assert db._probe_sql == statements
    assert len(statements) == 5  # W, E and L open (star); E and L ground (constant)
    assert built == []


def test_sqlite_probe_of_a_relation_without_a_table_keeps_no_statement():
    """A relation with no table yet answers ``False`` and memos nothing,
    so its first fact is seen; ``1``, ``1.0`` and ``True`` stay three
    values."""
    db = SQLiteBackend()
    one, real, true = Constant(1), Constant(1.0), Constant(True)
    ground = ProbeAtom("R", (X, Constant("k")), True)
    open_ = ProbeAtom("R", (X, Y), False, ((0, X),))
    for entry in (ground, open_):
        assert db.exists_substituted([entry], {X: one}) is False
    assert db.exists_substituted([ProbeAtom("R", (one,), True)], {}) is False
    assert db._probe_sql == {}
    db.add(atom("R", 1, "k"))
    for entry in (ground, open_):
        assert [db.exists_substituted([entry], {X: c}) for c in (one, real, true)] == [
            True, False, False,
        ]
    assert db.exists_substituted([ProbeAtom("R", (one,), True)], {}) is False  # arity 1


def _company():
    query = wdpt_from_nested(
        (
            [atom("works_in", "?e", "?d")],
            [
                ([atom("phone", "?e", "?p")], []),
                ([atom("reports_to", "?e", "?m")], [([atom("office", "?m", "?o")], [])]),
            ],
        ),
        free_variables=["?e", "?d", "?p", "?m", "?o"],
    )
    return query, company_directory(n_departments=3, employees_per_department=8, seed=1)


def test_one_update_per_run_keeps_the_three_instruments_exact(monkeypatch):
    """Over a stream of decisions: ``engine_selections["probe"]`` is the
    number of probe checks made and the probe histogram's ``count``;
    every engine's selections are its histogram's count; the engine time
    is the sum of the per-engine histogram sums; ``/metrics`` shows the
    same numbers under the same names."""
    query, facts = _company()
    session = Session(facts, cache=False)
    answers = sorted(session.query(query).answers, key=repr)
    session.reset_stats()
    probes = []
    original = MemoryBackend.exists_substituted

    def counted(self, program, binding):
        probes.append(program)
        return original(self, program, binding)

    monkeypatch.setattr(MemoryBackend, "exists_substituted", counted)
    e = Variable("e")
    for i, answer in enumerate(answers[:40]):
        session.ask(query, answer)
        session.is_partial(query, answer.restrict([e]))
        session.is_maximal(query, answer)
        if i % 2:
            session.ask(query, Mapping({**answer.as_dict(), e: Constant("nobody")}))
    stats = session.stats()
    latency = stats["engine_latency"]
    assert probes and stats["engine_selections"][ENGINE_PROBE] == len(probes)
    assert latency[ENGINE_PROBE]["count"] == len(probes)
    assert set(latency) == set(stats["engine_selections"])
    for engine, selected in stats["engine_selections"].items():
        assert latency[engine]["count"] == selected
    assert stats["engine_seconds"] == sum(h["sum"] for h in latency.values())
    assert stats["engine_seconds"] > 0
    snapshot = session.planner.metrics.snapshot()
    assert snapshot["counters"]['planner.engine.selected{engine="probe"}'] == len(probes)
    assert snapshot["counters"]["planner.engine_seconds"] == stats["engine_seconds"]
    exposition = session.planner.metrics.to_prometheus()
    assert 'repro_planner_engine_selected{engine="probe"} %r' % float(len(probes)) in exposition
    assert "repro_planner_engine_seconds %r" % stats["engine_seconds"] in exposition
    session.reset_stats()
    assert session.stats()["engine_selections"] == {}
    assert session.stats()["engine_seconds"] == 0.0


def test_concurrent_checks_lose_no_record():
    """Six threads share one planner and make probe checks with a short
    switch interval: every check is one selection, one observation, and
    the engine time stays the histograms' summed time."""
    db = MemoryBackend(FACTS)
    planner = Planner()
    profile = planner.profile_cq(ConjunctiveQuery([], SHAPES["star"]))
    binding = {X: Constant(1), Y: Constant(2), Z: Constant("b")}
    per_thread, errors = 400, []

    def work():
        try:
            for _ in range(per_thread):
                assert planner.satisfiable_substituted(profile, binding, db) is True
        except Exception as exc:  # reported below, not swallowed
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)
    stats = planner.stats()
    assert stats["engine_selections"] == {ENGINE_PROBE: 6 * per_thread}
    assert stats["engine_latency"][ENGINE_PROBE]["count"] == 6 * per_thread
    assert stats["engine_seconds"] == stats["engine_latency"][ENGINE_PROBE]["sum"]
