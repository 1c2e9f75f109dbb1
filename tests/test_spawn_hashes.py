"""Pickled values carry no hash seed and no address.

``Variable`` and ``Constant`` are hash-consed: their hash is the address
of the one live object per name or payload, so they cache no ``hash()``
and re-intern on arrival.  ``Atom``, ``FrozenVariable``,
``ConjunctiveQuery``, ``WDPT`` and ``Hypergraph`` cache ``hash()`` in a
slot, and a ``Mapping`` is a frozenset of pairs whose hashes depend on
the terms'.  Another interpreter (one started by ``spawn`` or
``forkserver`` included) runs under its own ``PYTHONHASHSEED`` and
heap, so each of them pickles by value and the receiver re-interns and
hashes afresh: a value that crossed a process boundary is found in the
receiver's sets and dicts, and a database pickled (memory) or reopened
(SQLite file) under another seed answers every ``ask`` as the sender
did.
"""

import os
import subprocess
import sys

import pytest

import repro


def _python(code, *args, seed=None, **kwargs):
    """A child interpreter importing this checkout's ``repro``, with hash
    seed ``seed`` (``None``: a random one per process)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONHASHSEED", None)
    if seed is not None:
        env["PYTHONHASHSEED"] = str(seed)
    return subprocess.run(
        [sys.executable, "-c", code] + [str(a) for a in args],
        env=env, stdout=subprocess.PIPE, universal_newlines=True, timeout=300,
        check=True, **kwargs
    ).stdout


# One value of each kind that hashes by seed or address; run in both
# interpreters.
VALUES = r"""
from repro.core.atoms import atom
from repro.core.canonical import FrozenVariable
from repro.core.cq import cq
from repro.core.mappings import Mapping
from repro.core.terms import Constant, Variable
from repro.hypergraphs.hypergraph import Hypergraph
from repro.wdpt.wdpt import wdpt_from_nested

def values():
    return {
        "Variable": Variable("x"),
        "Constant": Constant("Caribou"),
        "Atom": atom("recorded_by", "?x", "Caribou"),
        "FrozenVariable": FrozenVariable(Variable("x")),
        "ConjunctiveQuery": cq(["?x"], [atom("E", "?x", "?y"), atom("F", "?y", "z")]),
        "WDPT": wdpt_from_nested(
            ([atom("E", "?x", "?y")], [([atom("F", "?y", "?z")], [])]),
            free_variables=["?x", "?z"],
        ),
        "Hypergraph": Hypergraph([{"a", "b"}, {"b", "c"}]),
        "Mapping": Mapping({"?x": "Swim", "?y": "Caribou"}),
    }
"""

DUMP = VALUES + r"""
import pickle, sys
with open(sys.argv[1], "wb") as handle:
    pickle.dump(values(), handle)
print(hash(atom("recorded_by", "?x", "Caribou")))
"""

LOAD = VALUES + r"""
import pickle, sys
with open(sys.argv[1], "rb") as handle:
    loaded = pickle.load(handle)
fresh = values()
for name in sorted(fresh):
    a, b = loaded[name], fresh[name]
    ok = type(a) is type(b) and a == b and hash(a) == hash(b)
    ok = ok and a in {b} and b in {a} and {a: 1}.get(b) == 1
    print(name, "ok" if ok else "STALE")
print(hash(atom("recorded_by", "?x", "Caribou")))
"""


def test_hashes_and_membership_survive_a_change_of_hash_seed(tmp_path):
    path = tmp_path / "values.pickle"
    sent = _python(DUMP, path, seed=1).split()
    report = _python(LOAD, path, seed=2).split("\n")
    # The seed did change the hash, so the drill can tell stale from fresh.
    assert sent[-1] != report[-2]
    assert report[:-2] == [
        "%s ok" % name for name in sorted([
            "Atom", "ConjunctiveQuery", "Constant", "FrozenVariable",
            "Hypergraph", "Mapping", "Variable", "WDPT",
        ])
    ]


# One interpreter builds the database and decides every pair; a second,
# under another hash seed, unpickles the database (memory) or reopens its
# file (SQLite) and must decide the same.  Queries as text and as a
# pickled WDPT, candidates true and perturbed.
SEND = r"""
import pickle, sys
from repro.core.mappings import Mapping
from repro.engine import Session
from repro.workloads.families import example2_graph

out, path = sys.argv[1], sys.argv[2] if len(sys.argv) > 2 else None
session = Session(example2_graph(), path=path) if path else Session(
    example2_graph(), backend="memory")
text = "SELECT ?x ?z WHERE { ?x recorded_by ?y OPTIONAL { ?x NME_rating ?z } }"
answers = sorted(session.query(text).answers, key=repr)
perturbed = [Mapping({"?x": "Swim"}), Mapping({"?x": "Our_love", "?z": "7"})]
pairs = [(q, h) for q in (text, session.parse(text)) for h in answers + perturbed]
with open(out, "wb") as handle:
    pickle.dump((None if path else session.database, pairs), handle)
print(" ".join(str(int(session.ask(q, h))) for q, h in pairs))
if path:
    session.database.close()
"""

RECEIVE = r"""
import pickle, sys
from repro.engine import Session

with open(sys.argv[1], "rb") as handle:
    database, pairs = pickle.load(handle)
session = Session(database) if database is not None else Session(path=sys.argv[2])
print(" ".join(str(int(session.ask(q, h))) for q, h in pairs))
"""


@pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "sqlite-file"])
def test_verdicts_survive_a_change_of_hash_seed(tmp_path, on_disk):
    args = [tmp_path / "pairs.pickle"] + ([tmp_path / "facts.db"] if on_disk else [])
    sent = _python(SEND, *args, seed=1).split()
    received = _python(RECEIVE, *args, seed=2).split()
    assert 0 < sent.count("1") < len(sent)
    assert received == sent
