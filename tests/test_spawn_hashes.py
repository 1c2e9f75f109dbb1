"""Pickled values carry no hash seed.

``Variable``, ``Constant``, ``Atom``, ``FrozenVariable``,
``ConjunctiveQuery``, ``WDPT`` and ``Hypergraph`` cache ``hash()`` in a
slot, and a ``Mapping`` is a frozenset of pairs whose hashes depend on
them.  A process started with ``spawn`` or ``forkserver`` runs under its
own ``PYTHONHASHSEED``, so each of them pickles by value and the
receiver hashes afresh: a value that crossed a process boundary is
found in the receiver's sets and dicts, and ``run_batch`` under
``spawn`` answers what the sequential loop answers.
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


# One value of each hash-caching kind; run in both interpreters.
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
print(hash(Variable("x")))
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
print(hash(Variable("x")))
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


# The sequential loop against run_batch in worker processes started with
# spawn, whose hash seeds differ from the parent's; queries as text and
# as a pickled WDPT, candidates true and perturbed.
SPAWN_BATCH = r"""
import multiprocessing, sys
from repro.core.mappings import Mapping
from repro.engine import Session
from repro.workloads.families import example2_graph

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    path = sys.argv[1] if len(sys.argv) > 1 else None
    session = Session(example2_graph(), path=path) if path else Session(
        example2_graph(), backend="memory")
    text = "SELECT ?x ?z WHERE { ?x recorded_by ?y OPTIONAL { ?x NME_rating ?z } }"
    answers = sorted(session.query(text).answers, key=repr)
    perturbed = [Mapping({"?x": "Swim"}), Mapping({"?x": "Our_love", "?z": "7"})]
    pairs = [(q, h) for q in (text, session.parse(text)) for h in answers + perturbed]
    loop = [session.ask(q, h) for q, h in pairs]
    batch = session.run_batch(pairs, jobs=2)
    session.close()
    print(sum(loop), len(loop), "same" if batch == loop else "DIFFERENT %r" % batch)
"""


@pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "sqlite-file"])
def test_run_batch_under_spawn_equals_the_loop(tmp_path, on_disk):
    args = [tmp_path / "spawn.db"] if on_disk else []
    trues, total, verdict = _python(SPAWN_BATCH, *args).split(None, 2)
    assert 0 < int(trues) < int(total)
    assert verdict.strip() == "same"
