"""Unit tests for repro.core.terms, the interning contract included."""

import copy
import gc
import importlib
import operator
import pickle
import sys
import threading
import uuid
import weakref

import pytest

from repro.core.atoms import atom
from repro.core.terms import Constant, Variable, term, terms
from repro.engine import Session

# The module itself: ``repro.core`` exports a ``terms`` function.
_terms = importlib.import_module("repro.core.terms")


class TestVariable:
    def test_name(self):
        assert Variable("x").name == "x"

    def test_question_mark_stripped(self):
        assert Variable("?x") == Variable("x")

    def test_equality_by_name(self):
        assert Variable("x") == Variable("x")
        assert Variable("x") != Variable("y")

    def test_hashable(self):
        assert len({Variable("x"), Variable("?x"), Variable("y")}) == 2

    def test_repr(self):
        assert repr(Variable("abc")) == "?abc"

    def test_ordering(self):
        assert Variable("a") < Variable("b")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Variable("")
        with pytest.raises(ValueError):
            Variable("?")

    def test_non_string_rejected(self):
        with pytest.raises(ValueError):
            Variable(3)  # type: ignore[arg-type]


class TestConstant:
    def test_value(self):
        assert Constant(42).value == 42

    def test_equality_by_value(self):
        assert Constant("a") == Constant("a")
        assert Constant("a") != Constant("b")
        assert Constant(1) != Constant("1")

    def test_not_equal_to_variable(self):
        assert Constant("x") != Variable("x")

    def test_nested_terms_rejected(self):
        with pytest.raises(ValueError):
            Constant(Variable("x"))
        with pytest.raises(ValueError):
            Constant(Constant(1))

    def test_ordering_mixed_types_falls_back_to_str(self):
        # Must not raise even for unorderable payload mixes.
        assert isinstance(Constant(1) < Constant("a"), bool)


class TestCoercion:
    def test_question_string_is_variable(self):
        assert term("?x") == Variable("x")

    def test_plain_string_is_constant(self):
        assert term("Caribou") == Constant("Caribou")

    def test_int_is_constant(self):
        assert term(7) == Constant(7)

    def test_terms_pass_through(self):
        v = Variable("v")
        c = Constant(1)
        assert term(v) is v
        assert term(c) is c

    def test_terms_tuple(self):
        result = terms(["?x", 1])
        assert result == (Variable("x"), Constant(1))


class TestInterning:
    """One live object per variable name and per constant payload."""

    def test_equal_terms_are_one_object(self):
        assert Constant("a") is Constant("a")
        assert Constant(("t", 1)) is Constant(("t", 1))
        assert Variable("?x") is Variable("x")
        assert Variable("??x") is not Variable("?x")
        assert (Variable("??x").name, Variable("?x").name) == ("?x", "x")
        assert term("?x") is Variable("x") and term(7) is Constant(7)

    def test_equal_payloads_of_one_type_share_one_constant(self):
        big = 10 ** 30
        assert Constant(int("1" + "0" * 30)) is Constant(big)
        assert Constant("".join(["ab", "c"])) is Constant("abc")
        assert Constant(float("2.5")) is Constant(2.5)
        assert Constant((1, ("a", 2.5))) is Constant((1, ("a", 2.5)))
        assert Constant(frozenset({1, "a"})) is Constant(frozenset({"a", 1}))
        assert Constant(None) is Constant(None)

    def test_a_payload_keeps_its_type_whatever_else_lives(self):
        """``1``, ``1.0`` and ``True`` are equal but spelt (and stored)
        differently: each is its own constant, so what one caller built
        never changes what another gets back."""
        first = [Constant(True), Constant(98765.0), Constant(-0.0), Constant((True,))]
        assert Constant(1) is not first[0] and Constant(1.0) is not first[0]
        assert Constant(1) is not Constant(1.0)
        assert repr(Constant(1)) == "1" and type(Constant(1).value) is int
        assert repr(Constant(98765)) == "98765" and repr(first[1]) == "98765.0"
        assert repr(Constant(0.0)) == "0.0" and repr(first[2]) == "-0.0"
        assert repr(Constant((1,))) == "(1,)" and repr(first[3]) == "(True,)"
        assert len({Constant(1), Constant(1.0), Constant(True), Constant("1")}) == 4

    @pytest.mark.parametrize(
        "copier", [lambda t: pickle.loads(pickle.dumps(t)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_copies_are_the_same_object(self, copier):
        for t in (
            Variable("x"), Variable("??x"), Constant("a"), Constant(True),
            Constant(-0.0), Constant(("nested", (1, "b", True))),
        ):
            assert copier(t) is t

    def test_unhashable_payload_raises_type_error(self):
        with pytest.raises(TypeError):
            Constant([1, 2])
        with pytest.raises(TypeError):
            Constant({"a": 1})

    @pytest.mark.parametrize("round_", range(5))
    def test_racing_threads_get_one_object_per_payload(self, round_):
        run = uuid.uuid4().hex
        payloads = [("race", run, i) for i in range(1000)]
        names = ["race_%s_%d" % (run, i) for i in range(1000)]
        barrier = threading.Barrier(8)
        built = [None] * 8

        def build(k):
            barrier.wait(timeout=30)
            built[k] = ([Constant(p) for p in payloads], [Variable(n) for n in names])

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        constants, variables = built[0]
        for other_constants, other_variables in built[1:]:
            assert all(map(operator.is_, constants, other_constants))
            assert all(map(operator.is_, variables, other_variables))
        assert len(set(map(id, constants))) == len(set(map(id, variables))) == 1000
        assert all(_terms._constants[_terms._key(p)]() is c for p, c in zip(payloads, constants))
        assert all(_terms._variables[n]() is v for n, v in zip(names, variables))

    @pytest.mark.parametrize("kind", ["memory", "sqlite"])
    def test_constants_of_request_text_are_released(self, kind):
        """The tables hold terms weakly: 1 000 constants that only ever
        appeared in request text die with the last thing that held them
        (here the session's caches), and leave no table entry behind."""
        def session():
            return Session([atom("knows", "ann", "bob")], backend=kind)

        with session() as warm:  # first-use imports and their constants
            warm.query("SELECT ?x WHERE { ?x knows bob }")
        gc.collect()
        baseline = len(_terms._constants)
        live = session()
        refs = []
        for i in range(1000):
            answers = live.query("SELECT ?x WHERE { ?x knows fresh_%d }" % i).answers
            assert not answers
            refs.append(weakref.ref(Constant("fresh_%d" % i)))
        assert any(ref() is not None for ref in refs)  # held by the caches
        live.close()
        del live
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []
        assert len(_terms._constants) <= baseline


class TestStoredSpelling:
    """What a store reads and writes depends on its own payloads only,
    never on which equal payloads of other types the process holds."""

    def test_sqlite_asks_and_adds_an_int_beside_live_bool_and_float(self):
        from repro.core.mappings import Mapping
        from repro.storage.sqlite import SQLiteBackend, encode_value

        alive = (Constant(True), Constant(1.0))  # e.g. another tenant's facts
        db = SQLiteBackend([atom("R", 1)])
        assert atom("R", 1) in db and atom("R", True) not in db
        assert encode_value(atom("R", 1).args[0].value) == "i1"
        assert db.add(atom("R", 1)) is False
        assert db.add(atom("S", 1)) is True
        (fact,) = db.facts("S")
        assert type(fact.args[0].value) is int and fact.args[0] is not alive[0]
        with Session([atom("triple", "ann", "R", 1)], backend="sqlite") as session:
            query = "SELECT ?y WHERE { ann R ?y }"
            y = Variable("y")
            assert session.ask(query, Mapping({y: Constant(1)}))
            assert not session.ask(query, Mapping({y: alive[0]}))
            assert not session.ask(query, Mapping({y: alive[1]}))
        db.close()

    @pytest.mark.parametrize("kind", ["memory", "sqlite"])
    def test_two_sessions_show_their_own_spellings(self, kind):
        query, y = "SELECT ?y WHERE { ann R ?y }", Variable("y")
        with Session([atom("triple", "ann", "R", 1.0)], backend=kind) as floats, Session(
            [atom("triple", "ann", "R", 1)], backend=kind
        ) as ints:
            (shown_float,) = [m[y] for m in floats.query(query).answers]
            (shown_int,) = [m[y] for m in ints.query(query).answers]
        assert (repr(shown_float), repr(shown_int)) == ("1.0", "1")
        assert type(shown_int.value) is int
