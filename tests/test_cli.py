"""Tests for the ``python -m repro`` command-line interface."""

import ast
import importlib.util
import inspect
import os
import re

import pytest

import repro.__main__ as cli
from repro.__main__ import main
from repro.engine import BACKEND_ENV, Session
from repro.service import ServiceServer
from repro.storage import BACKEND_KINDS, to_backend

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Spelled in two halves, like every deleted name below, so that this
#: file passes its own search.
FLEET = "sh" "ard"

OBSERVABILITY_MD = os.path.join(REPO_ROOT, "docs", "OBSERVABILITY.md")


class TestProfile:
    def test_surface_query(self, capsys):
        assert main(["profile", "SELECT ?x WHERE { ?x knows ?y }"]) == 0
        out = capsys.readouterr().out
        assert "WDPT profile" in out and "EVAL route" in out

    def test_algebraic_fallback(self, capsys):
        assert main(["profile", "(?x, knows, ?y) OPT (?x, age, ?a)"]) == 0
        out = capsys.readouterr().out
        assert "tree nodes" in out

    def test_unparseable(self, capsys):
        assert main(["profile", "((("]) == 1
        assert "error:" in capsys.readouterr().err


class TestRun:
    @pytest.fixture
    def triples_file(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("# comment\na knows b\nb knows c\na age 30\n")
        return str(path)

    def test_run(self, capsys, triples_file):
        code = main(
            ["run", "SELECT ?x ?a WHERE { ?x knows ?y OPTIONAL { ?x age ?a } }",
             triples_file]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 answer(s)" in out
        assert "'30'" in out

    def test_bad_triples_line(self, capsys, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("only two\n")
        assert main(["run", "{ ?x knows ?y }", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["run", "{ ?x knows ?y }", "/nonexistent/file.tsv"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "/nonexistent/file.tsv" in err

    def test_unparseable_query(self, capsys):
        assert main(["run", "(((", "/nonexistent/file.tsv"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_trace_out_unwritable(self, capsys, triples_file):
        code = main(
            ["run", "{ ?x knows ?y }", triples_file,
             "--trace-out", "/nonexistent/dir/trace.json"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "cannot write trace" in err

    def test_query_log_and_slow_capture(self, capsys, triples_file, tmp_path):
        import json

        log_path = tmp_path / "queries.jsonl"
        code = main(
            ["run", "{ ?x knows ?y }", triples_file,
             "--log-queries", str(log_path), "--slow-ms", "0"]
        )
        assert code == 0
        assert "wrote query log" in capsys.readouterr().out
        events = [
            json.loads(line) for line in log_path.read_text().splitlines()
        ]
        names = [e["event"] for e in events]
        assert "query.plan" in names and "query.slow" in names
        (slow,) = [e for e in events if e["event"] == "query.slow"]
        assert slow["profile"]["nodes"]

    def test_query_log_unwritable(self, capsys, triples_file):
        code = main(
            ["run", "{ ?x knows ?y }", triples_file,
             "--log-queries", "/nonexistent/dir/q.jsonl"]
        )
        assert code == 1
        assert "cannot open query log" in capsys.readouterr().err


class TestAnalyzeErrors:
    def test_missing_triples_file(self, capsys):
        assert main(["analyze", "{ ?x knows ?y }", "/nonexistent/f.tsv"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unparseable_query(self, capsys):
        assert main(["analyze", "((("]) == 1
        assert "error:" in capsys.readouterr().err


class TestMetrics:
    def test_metrics_prints_exposition(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_planner_engine_selected counter" in out
        assert 'engine="wdpt-topdown"' in out
        assert 'quantile="0.99"' in out

    def test_serve_metrics_self_check(self, capsys):
        assert main(["serve-metrics", "--self-check"]) == 0
        out = capsys.readouterr().out
        assert "serving http://127.0.0.1:" in out
        assert '"status": "ok"' in out
        assert "repro_planner_engine_selected" in out


class TestDemo:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Our_love" in out and "Theorem 7" in out


def test_cli_matches_its_docs():
    """The parser, the module's usage docstring and the flag table of
    docs/OBSERVABILITY.md name the same subcommands and flags."""
    parser = cli.build_parser()
    commands = parser._subparsers._group_actions[0].choices
    usage = re.findall(r"^    python -m repro (\S+)", cli.__doc__, re.M)
    assert set(usage) == set(commands)

    with open(OBSERVABILITY_MD) as handle:
        text = handle.read()
    table = text[text.index("| flag | subcommands | effect |"):].splitlines()
    rows = 0
    for line in table[2:]:
        if not line.startswith("|"):
            break
        flags_cell, commands_cell = line.split("|")[1:3]
        flags = re.findall(r"--[a-z-]+", flags_cell)
        listed = [name.strip() for name in commands_cell.split(",")]
        assert flags and set(listed) <= set(commands), line
        for flag in flags:
            for name in listed:
                assert flag in commands[name]._option_string_actions, (flag, name)
            if "analyze" not in listed:
                assert flag not in commands["analyze"]._option_string_actions, flag
        rows += 1
    assert rows >= 10  # the table was found and read, not skipped

    # Deleted with what they selected: the old harness, the thread fan-out.
    for gone in (["bench"], ["run", "{ ?x knows ?y }", "--jobs", "2"],
                 ["serve", "--jobs", "2"]):
        with pytest.raises(SystemExit) as exit_info:
            main(gone)
        assert exit_info.value.code == 2


@pytest.mark.parametrize("kind", [FLEET + "ed", "bogus"])
def test_unknown_env_backend_is_a_usage_error(monkeypatch, capsys, kind):
    monkeypatch.setenv(BACKEND_ENV, kind)
    with pytest.raises(SystemExit) as exit_info:
        main(["demo"])
    assert exit_info.value.code == 2
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.endswith(
        "%s: unknown storage backend %r (expected one of memory, sqlite)"
        % (BACKEND_ENV, kind)
    )


def test_one_process_runs_a_query(tmp_path):
    """The multi-process executor is gone, and with it everything that
    selected it: the package, the keyword, the flags, the backend kind,
    the kernel — and the word, outside ``bench/`` and the history files."""
    assert importlib.util.find_spec("repro.dist") is None
    for function in (Session.__init__, ServiceServer.__init__, to_backend):
        assert FLEET + "s" not in inspect.signature(function).parameters
    assert BACKEND_KINDS == ("memory", "sqlite")
    triples = tmp_path / "data.tsv"
    triples.write_text("a knows b\n")
    run = ["run", "{ ?x knows ?y }", str(triples)]
    for gone in (["--%ss" % FLEET, "2"], ["--backend", FLEET + "ed"]):
        for command in (run, ["serve", "--self-check"]):
            with pytest.raises(SystemExit) as exit_info:
                main(command + gone)
            assert exit_info.value.code == 2

    words = re.compile("|".join([FLEET, "KERNEL_" "DIST", "dist_" "yannakakis"]), re.I)
    tops = ("src", "tests", "docs", "README.md", "DESIGN.md", ".github", ".claude")
    read = 0
    for top in tops:
        top = os.path.join(REPO_ROOT, top)
        walked = os.walk(top) if os.path.isdir(top) else [(REPO_ROOT, [], [top])]
        for directory, subdirs, names in walked:
            subdirs[:] = [d for d in subdirs if d != "__pycache__"]
            for name in names:
                path = os.path.join(directory, name)
                try:
                    with open(path, encoding="utf-8") as handle:
                        text = handle.read()
                except (OSError, UnicodeDecodeError):
                    continue
                read += 1
                hits = [n for n, line in enumerate(text.splitlines(), 1) if words.search(line)]
                assert not hits, (path, hits)
    assert read >= 150  # the trees were found and read, not skipped


def test_evaluators_and_telemetry_do_not_reach_for_the_parallel_layer():
    """Dependency direction: ``repro.parallel`` drives the evaluators from
    outside (batches); nothing it drives, and nothing telemetry
    does, imports it back or fishes it out of ``sys.modules``."""
    root = os.path.dirname(cli.__file__)
    below = ("cqalgs", "wdpt", "relalg", "planner", "hypergraphs", "storage",
             "core", "rdf", "telemetry")
    checked = 0
    for package in below:
        for name in sorted(os.listdir(os.path.join(root, package))):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, package, name)
            with open(path) as handle:
                source = handle.read()
            for node in ast.walk(ast.parse(source, path)):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [alias.name for alias in node.names]
                    names.append(getattr(node, "module", None) or "")
                    assert not any("parallel" in n.split(".") for n in names), (
                        path, node.lineno)
            assert package != "telemetry" or "sys.modules" not in source, path
            checked += 1
    assert checked >= 60  # the packages were found and read, not skipped


def _source_trees(*relative):
    """``(path, parsed module)`` of every ``.py`` file under the given
    files/directories of the ``repro`` package."""
    root = os.path.dirname(cli.__file__)
    for entry in relative:
        top = os.path.join(root, entry)
        walked = os.walk(top) if os.path.isdir(top) else [(root, [], [entry])]
        for directory, _, names in walked:
            for name in sorted(names):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    with open(path) as handle:
                        yield path, ast.parse(handle.read(), path)


def test_no_routing_knob_between_a_decision_procedure_and_its_engine():
    """A ``planner`` argument is what routes a Section 3 procedure; there
    is no ``method=`` beside it and no tunable cutoff behind it."""
    checked = 0
    for path, tree in _source_trees("wdpt", "planner", "engine.py"):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                assert not {"method", "tw_cutoff"} & set(names), (path, node.name)
                checked += 1
    assert checked >= 150  # the modules were found and read, not skipped


def test_the_planner_is_the_only_way_to_an_engine():
    """Outside ``repro.cqalgs`` the engines' entry points are imported by
    ``planner/planner.py`` alone, and used there by ``Planner._run`` alone
    (the top-down evaluator keeps ``relation_with_join_tree`` and the
    backtracking ``homomorphisms``; planner-less procedures keep
    ``naive.satisfiable``)."""
    engines = {
        "evaluate_with_join_tree", "satisfiable_with_join_tree", "evaluate_acyclic",
        "evaluate_bounded_treewidth", "evaluate_bounded_hypertreewidth",
        "satisfiable_with_decomposition", "evaluate_naive",
    }
    root = os.path.dirname(cli.__file__)
    importers = set()
    for path, tree in _source_trees("."):
        relative = os.path.relpath(path, root)
        if relative.startswith("cqalgs" + os.sep):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if engines & {alias.name for alias in node.names}:
                    importers.add(relative)
        if relative == os.path.join("planner", "planner.py"):
            users = {
                function.name
                for function in ast.walk(tree)
                if isinstance(function, ast.FunctionDef)
                for node in ast.walk(function)
                if isinstance(node, ast.Name) and node.id in engines
            }
            assert users == {"_run"}
    assert importers == {os.path.join("planner", "planner.py")}


def test_the_data_version_is_a_stamp_and_only_the_session_advances_it():
    """``ResultCache`` slots do not mention the data version (it is the
    stamp *on* an entry, so a write can carry the entry), and the one
    caller of the stamp-advancing method is the session's write funnel."""
    root = os.path.dirname(cli.__file__)
    key_functions = key_calls = 0
    advancers = set()
    for path, tree in _source_trees("."):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "ResultCache":
                (key,) = [
                    f for f in node.body
                    if isinstance(f, ast.FunctionDef) and f.name == "key"
                ]
                names = {a.arg for a in key.args.args + key.args.kwonlyargs}
                names |= {n.id for n in ast.walk(key) if isinstance(n, ast.Name)}
                assert not {"version", "data_version", "stamp"} & names, path
                key_functions += 1
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr == "key" and getattr(node.func.value, "id", "") == "ResultCache":
                mentioned = {
                    getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(node)
                }
                assert "data_version" not in mentioned, (path, node.lineno)
                key_calls += 1
            if node.func.attr == "advance":
                advancers.add(os.path.relpath(path, root))
    assert key_functions == 1 and key_calls >= 1
    assert advancers == {"engine.py"}

