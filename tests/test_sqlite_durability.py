"""Durability and connection settings of the on-disk SQLite backend.

A file is journaled to a write-ahead log with ``synchronous=FULL``: an
acknowledged write survives a SIGKILL without ``close()``; the last
``close()`` leaves one self-contained file; ``save()`` replaces its
target whole and never next to a stale log; a backend pickled into
another process reopens the path and sees later commits; a file written
with a rollback journal converts on open.
"""

import os
import pickle
import shutil
import sqlite3
import subprocess
import sys
from contextlib import closing

import pytest

import repro
from repro.core.atoms import Atom, atom
from repro.engine import Session
from repro.exceptions import ReproError
from repro.rdf.graph import TRIPLE_RELATION
from repro.storage import SQLiteBackend
from repro.workloads.datasets import music_catalog

FACTS = [atom("E", i, (i * 7) % 11) for i in range(30)] + [atom("U", 1)]

posix_only = pytest.mark.skipif(os.name != "posix", reason="SIGKILL and symlinks")


def _pragma(db, name):
    return db._conn.execute("PRAGMA %s" % name).fetchone()[0]


def _sidecars(path):
    return [s for s in ("-shm", "-wal", "-journal") if os.path.exists(str(path) + s)]


def _python(code, *args, **kwargs):
    """A child interpreter that imports this checkout's ``repro``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-c", code] + [str(a) for a in args], env=env, **kwargs
    )


# Acknowledges each write on stdout once the session call has returned,
# then waits to be killed: it never closes the session or the backend.
WRITER = r"""
import sys
from repro.core.atoms import Atom
from repro.engine import Session
from repro.rdf.graph import TRIPLE_RELATION
from repro.workloads.datasets import music_catalog

path, n = sys.argv[1], int(sys.argv[2])
session = Session(music_catalog(4, 2, seed=1), backend="sqlite", path=path)
print("loaded", session.database.data_version, flush=True)
for i in range(n):
    if i % 3 == 2:
        triple = ("w%d" % (i - 1), "rated", "o%d" % (i - 1))
        session.remove(Atom(TRIPLE_RELATION, triple))
        print("remove", *triple, flush=True)
    else:
        triple = ("w%d" % i, "rated", "o%d" % i)
        assert session.add_triples([triple]) == 1
        print("add", *triple, flush=True)
print("waiting", flush=True)
sys.stdin.read()
"""


@posix_only
def test_acknowledged_writes_survive_sigkill_without_close(tmp_path):
    path = str(tmp_path / "drill.sqlite")
    writer = _python(
        WRITER, path, 40,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, universal_newlines=True,
    )
    try:
        word, loaded = writer.stdout.readline().split()
        assert word == "loaded"
        expected = set(music_catalog(4, 2, seed=1).to_database().facts())
        acked = 0
        for line in writer.stdout:
            kind, *triple = line.split()
            if kind == "waiting":
                break
            fact = Atom(TRIPLE_RELATION, tuple(triple))
            if kind == "add":
                expected.add(fact)
            else:
                expected.remove(fact)
            acked += 1
        assert acked == 40
        # The commits sit in the log, not yet checkpointed into the file.
        assert _sidecars(path) == ["-shm", "-wal"]
    finally:
        writer.kill()  # SIGKILL: no close(), no checkpoint, no atexit
        writer.wait(timeout=30)
        writer.stdin.close()
        writer.stdout.close()
    reopened = SQLiteBackend.open(path)
    try:
        assert set(reopened) == expected
        assert reopened.data_version == int(loaded) + acked
    finally:
        reopened.close()


def test_every_connection_has_the_fixed_settings(tmp_path):
    path = str(tmp_path / "db.sqlite")
    on_disk = SQLiteBackend(FACTS, path=path)
    reopened = SQLiteBackend.open(path)
    unpickled = pickle.loads(pickle.dumps(on_disk))
    for db in (on_disk, reopened, unpickled):
        assert _pragma(db, "journal_mode") == "wal"
        assert _pragma(db, "synchronous") == 2  # FULL
        assert _pragma(db, "temp_store") == 2  # MEMORY
        db.close()
    in_memory = SQLiteBackend(FACTS)
    for db in (in_memory, pickle.loads(pickle.dumps(in_memory))):
        assert _pragma(db, "temp_store") == 2
        assert _pragma(db, "journal_mode") == "memory"
        db.close()


def test_close_leaves_one_self_contained_file(tmp_path):
    path = str(tmp_path / "music.sqlite")
    session = Session(music_catalog(6, 3, seed=2), backend="sqlite", path=path)
    query = "SELECT ?r ?b ?v WHERE { ?r recorded_by ?b OPTIONAL { ?r NME_rating ?v } }"
    before = session.query(query).answers
    session.add_triples([("r_new", "recorded_by", "b_new")])
    session.remove(Atom(TRIPLE_RELATION, ("r_new", "recorded_by", "b_new")))
    session.add_triples([("r_new", "NME_rating", "7")])
    assert session.query(query).answers == before
    facts, version = set(session.database), session.database.data_version
    assert _sidecars(path) == ["-shm", "-wal"]
    session.close()
    session.database.close()
    assert _sidecars(path) == []
    # The main file alone, moved away from anything that was beside it.
    os.mkdir(str(tmp_path / "copy"))
    copy = str(tmp_path / "copy" / "music.sqlite")
    shutil.copyfile(path, copy)
    alone = SQLiteBackend.open(copy)
    try:
        assert set(alone) == facts and alone.data_version == version
    finally:
        alone.close()


# Unpickles a backend from stdin and reports what it sees.
READER = r"""
import pickle, sys
db = pickle.loads(sys.stdin.buffer.read())
print(db.data_version, len(db), int(pickle.loads(bytes.fromhex(sys.argv[1])) in db))
db.close()
"""


def test_a_pickled_backend_sees_writes_committed_after_the_pickle(tmp_path):
    path = str(tmp_path / "shared.sqlite")
    db = SQLiteBackend(FACTS, path=path)
    blob = pickle.dumps(db)
    late = atom("E", 100, 101)
    db.add(late)
    db.discard(atom("U", 1))
    assert _sidecars(path) == ["-shm", "-wal"]  # the writes are in the log
    reader = _python(
        READER, pickle.dumps(late).hex(),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    out, _ = reader.communicate(blob, timeout=60)
    assert reader.returncode == 0
    assert out.split() == [str(db.data_version).encode(), str(len(db)).encode(), b"1"]
    db.close()


def test_a_rollback_journal_file_converts_on_open(tmp_path):
    path = str(tmp_path / "old.sqlite")
    SQLiteBackend(FACTS, path=path).close()
    # What a file written without write-ahead logging looks like.
    with closing(sqlite3.connect(path)) as raw:
        assert raw.execute("PRAGMA journal_mode=DELETE").fetchone()[0] == "delete"
    with open(path, "rb") as handle:
        assert handle.read(20)[18:20] == b"\x01\x01"  # rollback-journal format
    db = SQLiteBackend.open(path)
    assert _pragma(db, "journal_mode") == "wal"
    assert db.backend_id == "sqlite:%s" % path
    assert db.data_version == len(FACTS) and set(db) == set(FACTS)
    assert db.add(atom("U", 2))
    db.close()
    with open(path, "rb") as handle:
        assert handle.read(20)[18:20] == b"\x02\x02"  # WAL format
    reopened = SQLiteBackend.open(path)
    assert reopened.data_version == len(FACTS) + 1
    reopened.close()


def test_save_of_an_open_database_holds_its_uncheckpointed_commits(tmp_path):
    source = str(tmp_path / "live.sqlite")
    db = SQLiteBackend(FACTS, path=source)
    for i in range(20):
        db.add(atom("W", i))
    db.discard(atom("U", 1))
    assert _sidecars(source) == ["-shm", "-wal"]
    target = str(tmp_path / "snapshot.sqlite")
    db.save(target)
    assert _sidecars(target) == []
    assert sorted(os.listdir(str(tmp_path))) == [
        "live.sqlite", "live.sqlite-shm", "live.sqlite-wal", "snapshot.sqlite",
    ]
    saved = SQLiteBackend.open(target)
    try:
        assert set(saved) == set(db) and saved.data_version == db.data_version
    finally:
        saved.close()
        db.close()


def test_save_over_a_path_with_a_stale_log_opens_clean(tmp_path):
    target = str(tmp_path / "target.sqlite")
    crashed = SQLiteBackend([atom("Old", i) for i in range(50)], path=target)
    # The sidecars a killed writer leaves behind, log frames included.
    stale = {}
    for suffix in ("-wal", "-shm"):
        with open(target + suffix, "rb") as handle:
            stale[suffix] = handle.read()
    crashed.close()
    for suffix, data in stale.items():
        with open(target + suffix, "wb") as handle:
            handle.write(data)
    SQLiteBackend(FACTS).save(target)
    assert _sidecars(target) == []
    saved = SQLiteBackend.open(target)
    try:
        assert set(saved) == set(FACTS) and "Old" not in saved.schema
    finally:
        saved.close()


@posix_only
def test_save_over_its_own_file_raises(tmp_path):
    path = str(tmp_path / "self.sqlite")
    db = SQLiteBackend(FACTS, path=path)
    os.symlink(path, str(tmp_path / "alias.sqlite"))
    for spelling in (path, str(tmp_path / "." / "self.sqlite"), str(tmp_path / "alias.sqlite")):
        with pytest.raises(ReproError):
            db.save(spelling)
    # Nothing was unlinked: the database is live and keeps its writes.
    assert db.add(atom("U", 2))
    db.close()
    reopened = SQLiteBackend.open(path)
    assert set(reopened) == set(FACTS) | {atom("U", 2)}
    reopened.close()
