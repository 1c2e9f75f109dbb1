"""Tests for the ``python -m repro`` command-line interface."""

import ast
import glob
import importlib.util
import inspect
import json
import os
import re
import signal
import subprocess
import sys
import threading
import urllib.request

import pytest

import repro.__main__ as cli
from repro.__main__ import main
from repro.engine import Session
from repro.service import ServiceServer
from repro.storage import BACKEND_ENV, BACKEND_KINDS, to_backend

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Spelled in two halves, like every deleted name below, so that this
#: file passes its own search.
FLEET = "sh" "ard"

OBSERVABILITY_MD = os.path.join(REPO_ROOT, "docs", "OBSERVABILITY.md")
#: The paper's query (1), as the CI jobs spell it.
QUERY = "(?x, recorded_by, ?y) OPT (?x, NME_rating, ?z)"


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

    def test_sampling_moved_to_run(self):
        for flags in (["--hz", "100"], ["--speedscope", "x.json"],
                      ["--folded", "x.folded"], ["--duration", "1"]):
            with pytest.raises(SystemExit) as exit_info:
                main(["profile", "{ ?x knows ?y }"] + flags)
            assert exit_info.value.code == 2


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

    def test_serve_debug_leaves_no_server_or_profiler(self, capsys, triples_file):
        from repro.telemetry.profiler import current_profiler

        before = set(threading.enumerate())
        code = main(["run", "{ ?x knows ?y }", triples_file, "--serve-debug", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert re.search(r"serving http://127\.0\.0\.1:\d+/metrics", out)
        assert set(threading.enumerate()) <= before
        assert current_profiler() is None

    def test_query_log_unwritable(self, capsys, triples_file):
        code = main(
            ["run", "{ ?x knows ?y }", triples_file,
             "--log-queries", "/nonexistent/dir/q.jsonl"]
        )
        assert code == 1
        assert "cannot open query log" in capsys.readouterr().err

    def test_no_data_runs_over_example_2(self, capsys, tmp_path):
        """Without TRIPLES or ``--store`` the data is the paper's Example 2
        database; with ``--store`` alone it is the store's, and nothing of
        Example 2 is written there."""
        assert main(["run", QUERY]) == 0
        assert "over 5 facts" in capsys.readouterr().out
        store = str(tmp_path / "empty.sqlite")
        assert main(["run", QUERY, "--store", store]) == 0
        assert "0 answer(s) over 0 facts" in capsys.readouterr().out

    def test_profile_outputs_one_run(self, capsys, tmp_path, triples_file):
        """``--profile-hz`` samples the run; each ``--profile-out`` picks
        its format by name; the answers are printed once."""
        from repro.telemetry.profiler import validate_folded, validate_speedscope

        speedscope = tmp_path / "x.speedscope.json"
        folded = tmp_path / "x.folded"
        code = main([
            "run", "SELECT ?x ?a WHERE { ?x knows ?y OPTIONAL { ?x age ?a } }",
            triples_file, "--profile-hz", "500", "--duration", "0.3",
            "--profile-out", str(speedscope), "--profile-out", str(folded),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("answer(s) over") == 1
        assert re.search(r"profiled \d+ run\(s\) in [\d.]+s: [1-9]\d* sample", out)
        assert validate_speedscope(json.loads(speedscope.read_text())) == []
        text = folded.read_text()
        assert validate_folded(text) == []
        # Folded by phase (the default): the sampled runs record spans, so
        # samples land under a plan phase, not all under "(no span)".
        roots = {line.split(";", 1)[0] for line in text.splitlines()}
        assert roots - {"phase:(no span)"}, roots
        assert all(root.startswith("phase:") for root in roots)

    def test_repeat_evaluates_each_time_under_the_profiler(self, capsys, triples_file):
        code = main([
            "run", "{ ?x knows ?y }", triples_file, "--profile-hz", "100",
            "--repeat", "3", "--top", "0", "--by", "frames",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "profiled 3 run(s)" in out and "hottest stacks" not in out

    def test_profile_out_unwritable(self, capsys, triples_file):
        code = main([
            "run", "{ ?x knows ?y }", triples_file, "--profile-hz", "100",
            "--profile-out", "/nonexistent/dir/p.folded",
        ])
        assert code == 1
        assert "cannot write profile" in capsys.readouterr().err


class TestAnalyzeErrors:
    """EXPLAIN ANALYZE is ``run --analyze``; its errors are ``run``'s."""

    def test_missing_triples_file(self, capsys):
        assert main(
            ["run", "{ ?x knows ?y }", "/nonexistent/f.tsv", "--analyze"]
        ) == 1
        assert "error:" in capsys.readouterr().err

    def test_unparseable_query(self, capsys):
        assert main(["run", "(((", "--analyze"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_analyze_over_example_2_writes_a_trace(self, capsys, tmp_path):
        from repro.telemetry.export import validate_chrome_trace

        trace = tmp_path / "trace.json"
        assert main(["run", QUERY, "--analyze", "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE" in out and "wrote" in out
        assert validate_chrome_trace(json.loads(trace.read_text())) == []


class TestMetrics:
    def test_metrics_prints_exposition(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_planner_engine_selected counter" in out
        assert 'engine="wdpt-topdown"' in out
        assert 'quantile="0.99"' in out

    def test_serve_metrics_self_check(self, capsys):
        """``serve --self-check`` covers the metrics daemon's old probe:
        ``/healthz``, ``/debug/queries`` after a query, and a ``/metrics``
        exposition that counts the engine the query ran."""
        assert main(["serve", "--self-check"]) == 0
        out = capsys.readouterr().out
        assert '"status": "ok"' in out
        assert re.search(r'^query: .*"rows": 2', out, re.M)
        assert re.search(r'^debug/queries: .*"op": "query"', out, re.M)
        assert 'repro_planner_engine_selected{engine="wdpt-topdown"}' in out

    def test_serve_store_alone_adds_no_example_data(self, capsys, tmp_path):
        store = str(tmp_path / "empty.sqlite")
        assert main(["serve", "--store", store, "--self-check"]) == 0
        assert '"rows": 0' in capsys.readouterr().out
        with Session(path=store) as session:
            assert session.size == 0


@pytest.mark.parametrize("command", ["serve"])
def test_daemon_answers_and_exits_0_on_sigterm(command):
    """The daemon runs the one front's ``serve_forever``: it prints its
    URL, answers ``/healthz``, and drains and exits 0 on SIGTERM."""
    env = dict(
        os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"),
        PYTHONUNBUFFERED="1",
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", command, "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    hang = threading.Timer(120, proc.kill)  # a hang fails, it never blocks
    hang.start()
    try:
        banner = proc.stdout.readline()
        url = re.match(r"serving (http://127\.0\.0\.1:\d+)/", banner)
        assert url, (banner, proc.stderr.read())
        with urllib.request.urlopen(url.group(1) + "/healthz", timeout=30) as r:
            assert json.loads(r.read())["status"] == "ok"
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
    finally:
        hang.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


class TestDemo:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Our_love" in out and "Theorem 7" in out


def _documented_commands():
    """``(file, subcommand, flags)`` for every ``python -m repro …``
    command in README.md and docs/*.md: backslash continuations joined,
    the command cut at a comment, a pipe, ``&``, ``;`` or the end of
    inline code."""
    docs = [os.path.join(REPO_ROOT, "README.md")]
    docs += sorted(glob.glob(os.path.join(REPO_ROOT, "docs", "*.md")))
    for path in docs:
        with open(path) as handle:
            text = handle.read().replace("\\\n", " ")
        for match in re.finditer(r"python -m repro ([a-z][a-z-]*)([^`|&;#\n]*)", text):
            command, rest = match.groups()
            yield path, command, re.findall(r"(?<![\w-])--[a-z][a-z-]*", rest)


def test_cli_matches_its_docs():
    """The parser, the module's usage docstring, the flag table of
    docs/OBSERVABILITY.md and every command line of the README and docs
    name the same subcommands and flags."""
    parser = cli.build_parser()
    commands = parser._subparsers._group_actions[0].choices

    def options(name):
        return {o for o in commands[name]._option_string_actions if o.startswith("--")} - {"--help"}

    # The usage docstring: one block per subcommand, naming every option.
    usage = cli.__doc__[: cli.__doc__.index("\n\n", cli.__doc__.index("Usage::") + 9)]
    blocks = re.findall(r"^    python -m repro (\S+)(.*?)(?=^    python -m repro|\Z)", usage, re.M | re.S)
    assert sorted(name for name, _ in blocks) == sorted(commands)
    for name, block in blocks:
        assert set(re.findall(r"--[a-z][a-z-]*", block)) == options(name), name

    with open(OBSERVABILITY_MD) as handle:
        text = handle.read()
    table = text[text.index("| flag | subcommands | effect |"):].splitlines()
    rows = 0
    for line in table[2:]:
        if not line.startswith("|"):
            break
        flags_cell, commands_cell = line.split("|")[1:3]
        flags = re.findall(r"--[a-z-]+", flags_cell)
        listed = {name.strip() for name in commands_cell.split(",")}
        assert flags, line
        for flag in flags:
            # Exactly the subcommands that accept the flag are listed.
            assert listed == {name for name in commands if flag in options(name)}, (flag, line)
        rows += 1
    assert rows >= 10  # the table was found and read, not skipped

    documented = 0
    for path, name, flags in _documented_commands():
        assert name in commands, (path, name)
        for flag in flags:
            assert flag in options(name), (path, name, flag)
        documented += 1
    assert documented >= 20  # the docs were found and read, not skipped

    # Deleted with what they selected: the old harness, the thread fan-out,
    # and the duplicates of `run --analyze`, `run --profile-hz` and `serve`.
    for gone in (["bench"], ["run", "{ ?x knows ?y }", "--jobs", "2"],
                 ["serve", "--jobs", "2"], ["analyze", "{ ?x knows ?y }"],
                 ["serve-metrics"], ["profile", "{ ?x knows ?y }", "t.tsv"]):
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

    _assert_unmentioned([FLEET, "KERNEL_" "DIST", "dist_" "yannakakis"], re.I)


def _assert_unmentioned(words, flags=0):
    """No line of the code, tests, docs or CI config names any of
    ``words`` (the history files, CHANGES.md and ROADMAP.md, may)."""
    pattern = re.compile("|".join(words), flags)
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
                hits = [n for n, line in enumerate(text.splitlines(), 1) if pattern.search(line)]
                assert not hits, (path, hits)
    assert read >= 150  # the trees were found and read, not skipped


def test_import_loads_no_numerical_stack():
    """``import repro`` pulls in neither scipy nor numpy.  The fractional
    cover LP that imported scipy fed only the cardinality estimator, and
    both are gone.  (Where scipy is not installed this holds either way;
    the module checks below hold everywhere.)"""
    import subprocess
    import sys

    script = (
        "import sys, repro, repro.engine, repro.service; "
        "print(sorted(m for m in ('scipy', 'numpy') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"
    for gone in ("repro.telemetry.insight", "repro.hypergraphs.fractional"):
        assert importlib.util.find_spec(gone) is None, gone


def test_no_batch_path_and_no_estimator(tmp_path):
    """What no request ran is gone: the cardinality estimator with its
    stats store and q-error event, and every batch path — no process
    pool, no executor or op choice, no thread pool, and none of the
    telemetry that carried a worker's records, samples and metrics home.
    Many verdicts are a loop of ``ask``."""
    assert importlib.util.find_spec("repro.parallel") is None
    assert not hasattr(Session, "run_" "batch")
    assert not {"executor", "op", "stats_store", "jobs"} & set(
        inspect.signature(Session.__init__).parameters
    )
    assert not hasattr(Session, "map")
    triples = tmp_path / "data.tsv"
    triples.write_text("a knows b\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "{ ?x knows ?y }", str(triples), "--stats-store", "s.json"])
    assert exit_info.value.code == 2
    _assert_unmentioned([
        "QueryStats" "Store", "estimate_for" "_profile", "mis" "estimate",
        "Worker" "Pool", "fractional" "_cover",
        "run_" "batch", "merge" "_dump", "absorb" "_dump", "ensure" "_profiler",
        "set_worker" "_id", "ProcessPool" "Executor",
    ])


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


def test_one_width_search_and_one_elimination_walk():
    """Treewidth and ghw are one elimination-order search with two bag
    costs, and every order width, greedy bound and decomposition is read
    off one elimination walk: the per-measure copies stay gone."""
    gone = {
        "_decide_ghw", "_ghw_order", "_exact_order", "_order_hypertree_width",
        "_order_exact_width_at_most", "_cover_witness",
    }
    defined = []
    checked = 0
    for path, tree in _source_trees("."):
        for node in ast.walk(tree):
            for name in (getattr(node, "name", None), getattr(node, "id", None),
                         getattr(node, "attr", None)):
                assert name not in gone, (path, getattr(node, "lineno", None), name)
            if isinstance(node, ast.FunctionDef):
                defined.append(node.name)
        checked += 1
    assert checked >= 90  # the package was found and read, not skipped
    assert defined.count("_order_within") == 1
    assert defined.count("_elimination_bags") == 1


def test_one_answer_executor_and_no_kernel_mode():
    """Answers run on the columnar kernels over every backend and SQLite's
    SQL pushdown decides Boolean runs only, selected by the call and the
    backend: no ``relalg/config.py``, no kernel-mode variable, override or
    chooser anywhere under ``src/``, and ``sql_yannakakis`` takes neither
    a seed nor output variables."""
    root = os.path.dirname(cli.__file__)
    assert not os.path.exists(os.path.join(root, "relalg", "config.py"))
    gone = ("REPRO_" "KERNELS", "force_" "kernels", "choose_" "kernel", "kernel_" "mode")
    pushdowns = []
    checked = 0
    for path, tree in _source_trees("."):
        for node in ast.walk(tree):
            for name in (getattr(node, "name", None), getattr(node, "id", None),
                         getattr(node, "attr", None), getattr(node, "arg", None)):
                assert name not in gone, (path, getattr(node, "lineno", None), name)
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert not [w for w in gone if w in node.value], (path, node.lineno)
            if isinstance(node, ast.FunctionDef) and node.name == "sql_yannakakis":
                args = node.args
                pushdowns.append([a.arg for a in args.args + args.kwonlyargs])
        checked += 1
    assert checked >= 90  # the package was found and read, not skipped
    assert pushdowns == [["self", "atoms", "links"]]


def test_one_structural_engine():
    """Theorem 2 is one bucket-elimination engine: the bag-building
    helpers, the Theorem 3 engine, the decomposition Boolean form and the
    profile's hypertree decomposition stay gone, and neither
    ``cqalgs.evaluate`` nor ``evaluate_bounded_treewidth`` takes an engine
    or decomposition argument."""
    from repro.cqalgs.dispatch import evaluate
    from repro.cqalgs.structured import evaluate_bounded_treewidth
    from repro.planner.profile import StructuralProfile

    gone = {
        "_bag_relations", "_assign_atoms_to_bags", "_atom_with_variables",
        "_unary_domain", "_decomposition_links", "_evaluate_with_decomposition",
        "evaluate_bounded_hypertreewidth", "satisfiable_with_decomposition",
        "_hypertree_decomp",
    }
    checked = 0
    for path, tree in _source_trees("."):
        for node in ast.walk(tree):
            for name in (getattr(node, "name", None), getattr(node, "id", None),
                         getattr(node, "attr", None)):
                assert name not in gone, (path, getattr(node, "lineno", None), name)
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert node.value not in gone, (path, node.lineno)
        checked += 1
    assert checked >= 90  # the package was found and read, not skipped
    assert not hasattr(StructuralProfile, "hypertree_decomposition")
    assert list(inspect.signature(evaluate).parameters) == ["query", "db", "planner"]
    assert list(inspect.signature(evaluate_bounded_treewidth).parameters) == [
        "query", "db", "k",
    ]


def test_one_answers_route_per_label_class():
    """An answers plan is Yannakakis (acyclic) or bucket elimination
    (cyclic, at any width), reached through ``NodePlan.relation``: the
    top-down evaluator calls no search, ``Planner._run`` has no
    ``evaluate_naive`` branch, and no answers plan is the search's."""
    from repro.core.atoms import atom
    from repro.planner import ENGINE_TREEWIDTH, StructuralProfile
    from repro.planner.plan import TW_CUTOFF

    search = {"homomorphisms", "cq_homomorphisms", "evaluate_naive", "from_mappings"}
    found = set()
    for path, tree in _source_trees(os.path.join("wdpt", "evaluation.py"),
                                    os.path.join("planner", "planner.py")):
        for scope in ast.walk(tree):
            if getattr(scope, "name", None) in ("_TreeEvaluation", "_run"):
                names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(scope)}
                assert not names & search, (path, scope.name, names & search)
                assert "relation" in names, (path, scope.name)
                found.add(scope.name)
    assert found == {"_TreeEvaluation", "_run"}
    clique = [atom("E", "?v%d" % i, "?v%d" % j) for i in range(6) for j in range(i)]
    profile = StructuralProfile(clique)
    assert profile.treewidth_upper > TW_CUTOFF
    plan = profile.answers_plan
    assert plan.engine == ENGINE_TREEWIDTH and plan.structure == tuple(profile.elimination_order)


def test_the_planner_is_the_only_way_to_an_engine():
    """Outside ``repro.cqalgs`` the engines' entry points are imported by
    the planner alone: ``planner/planner.py``, where ``Planner._run`` alone
    uses them, and ``planner/plan.py``, where ``NodePlan.relation`` alone
    runs an answers plan (the top-down evaluator reaches an engine through
    it; planner-less procedures keep ``naive.satisfiable``)."""
    engines = {
        "evaluate_with_join_tree", "satisfiable_with_join_tree", "evaluate_acyclic",
        "evaluate_bounded_treewidth", "satisfiable_by_elimination", "evaluate_naive",
        "relation_with_join_tree", "relation_by_elimination",
    }
    users_allowed = {
        os.path.join("planner", "planner.py"): {"_run"},
        os.path.join("planner", "plan.py"): {"relation"},
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
        if relative in users_allowed:
            users = {
                function.name
                for function in ast.walk(tree)
                if isinstance(function, ast.FunctionDef)
                for node in ast.walk(function)
                if isinstance(node, ast.Name) and node.id in engines
            }
            assert users == users_allowed[relative], relative
    assert importers == set(users_allowed)


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


def test_sqlite_settings_are_issued_in_one_place_and_synchronous_stays_full():
    """Every ``PRAGMA`` of the package is in ``SQLiteBackend.__init__``,
    where each connection gets its fixed settings, and nothing sets
    ``synchronous`` below FULL: below it, a WAL commit that returned can
    be lost on a power loss."""
    pragma = re.compile(r"\s*PRAGMA\b", re.IGNORECASE)
    synchronous = re.compile(r"synchronous\s*=\s*['\"]?(\w+)", re.IGNORECASE)
    issued, levels = [], []
    for path, tree in _source_trees("."):
        in_init = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "SQLiteBackend"
            for f in cls.body
            if isinstance(f, ast.FunctionDef) and f.name == "__init__"
            for node in ast.walk(f)
        }
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
                continue
            if pragma.match(node.value):
                assert id(node) in in_init, (path, node.lineno, node.value)
                issued.append(node.value)
            levels += [m.group(1).upper() for m in synchronous.finditer(node.value)]
    assert sorted(issued) == [
        "PRAGMA journal_mode=WAL", "PRAGMA synchronous=FULL", "PRAGMA temp_store=MEMORY",
    ]
    assert "FULL" in levels and set(levels) <= {"FULL", "EXTRA", "2", "3"}


def test_a_mapping_is_its_graph_and_nothing_reads_a_stored_dict():
    """``Mapping`` is a frozenset of pairs: its hash, equality and
    construction are frozenset's own, in C (no Python ``__hash__``,
    ``__eq__`` or ``__init__``), and no per-mapping dict is stored for
    anything under ``src/`` to read back.  Its pairs' terms are
    hash-consed: ``Variable`` and ``Constant`` hash and compare with
    ``object``'s C slots, and keep no ``_hash`` slot."""
    found = set()
    for path, tree in _source_trees("."):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in ("Mapping", "Variable", "Constant"):
                if node.name == "Mapping":
                    assert [ast.unparse(b) for b in node.bases] == ["frozenset"], path
                defined = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
                assert not {"__hash__", "__eq__", "__ne__", "__init__"} & defined, node.name
                slots = [
                    ast.literal_eval(s.value) for s in node.body
                    if isinstance(s, ast.Assign) and ast.unparse(s.targets[0]) == "__slots__"
                ]
                assert slots and "_hash" not in slots[0], node.name
                found.add(node.name)
            if isinstance(node, ast.Attribute):
                assert node.attr != "_assignment", (path, node.lineno)
    assert found == {"Mapping", "Variable", "Constant"}  # found and read, not skipped


def test_one_http_transport():
    """The service's socket edge is the only HTTP server in the package:
    nothing imports ``http.server`` or ``socketserver``, one class handles
    a connection (reads a socket or is an ``asyncio`` protocol), and
    every listening socket is made in ``service/server.py``."""
    readers, listens = [], []
    for path, tree in _source_trees("."):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["%s.%s" % (node.module, alias.name) for alias in node.names]
            else:
                names = []
            for name in names:
                assert not name.startswith(("http.server", "socketserver")), (path, name)
            if isinstance(node, ast.ClassDef):
                if any(re.fullmatch(r"asyncio\.\w*Protocol", ast.unparse(base))
                       for base in node.bases) or any(
                    isinstance(inner, ast.Attribute)
                    and inner.attr in ("recv", "recv_into")
                    for inner in ast.walk(node)
                ):
                    readers.append(node.name)
            if isinstance(node, ast.Attribute) and node.attr in (
                "create_server", "start_server", "start_unix_server", "listen"
            ):
                listens.append(path)
    assert readers == ["_Exchange"]
    assert [os.path.relpath(p, os.path.dirname(cli.__file__)) for p in listens] == [
        os.path.join("service", "server.py")
    ]
