"""The package's public surface: one rule for what each ``__init__`` exports.

A name stays in a package's ``__all__`` only if

(i) non-test code outside its defining module references it: another
    ``src/repro`` module, ``bench/``, ``benchmarks/``, ``examples/``,
    ``scripts/``, or a ``from repro… import`` line in README.md or
    docs/*.md; or
(ii) its module's row in DESIGN.md's module tables names it, in backticks,
    in the same ``;``-separated clause as the numbered result of the paper
    it realises (Theorem, Proposition, Lemma, Corollary, Definition or
    Example N).

Dunder names such as ``__version__`` are exempt.  References are found by
a ``\\b`` word scan of the source text, so a mention counts wherever it
is; re-export lines (an ``__init__``'s imports and ``__all__``) do not.
Code that only tests need lives in ``tests/harness/``.
"""

import ast
import glob
import importlib
import importlib.util
import os
import re

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "repro")
CALLER_TREES = ("bench", "benchmarks", "examples", "scripts")
DOCS = [os.path.join(REPO_ROOT, "README.md")] + sorted(glob.glob(os.path.join(REPO_ROOT, "docs", "*.md")))
NUMBERED_RESULT = re.compile(r"\b(Theorem|Proposition|Lemma|Corollary|Definition|Example)s? \d+")
DOC_IMPORT = re.compile(r"^[ \t]*from (repro[\w.]*) import (\([^)]*\)|[^\n]*)", re.M)


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _package_names():
    names = []
    for init in sorted(glob.glob(os.path.join(PACKAGE_DIR, "**", "__init__.py"), recursive=True)):
        parts = os.path.relpath(os.path.dirname(init), SRC).split(os.sep)
        names.append(".".join(parts))
    return names


PACKAGES = _package_names()


def _init_path(package):
    return importlib.util.find_spec(package).origin


def _public_all(package):
    return [n for n in importlib.import_module(package).__all__ if not n.startswith("__")]


def _binding(tree, name):
    """The top-level statement of ``tree`` that binds ``name``."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and any((a.asname or a.name) == name for a in node.names):
            return node
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return node
    return None


def _defining_file(package, name):
    """The file that defines ``package.name``, following re-exports."""
    path = _init_path(package)
    while True:
        node = _binding(ast.parse(_read(path)), name)
        if not isinstance(node, ast.ImportFrom):
            return path
        source = node.module or ""
        if node.level:
            anchor = package if path.endswith("__init__.py") else package.rsplit(".", 1)[0]
            base = anchor.rsplit(".", node.level - 1)[0] if node.level > 1 else anchor
            source = base + ("." + source if source else "")
        name = next(a.name for a in node.names if (a.asname or a.name) == name)
        package = source
        path = importlib.util.find_spec(source).origin


def _without_reexports(text):
    """An ``__init__``'s text with its import statements and ``__all__``
    blanked out: re-exporting a name is not using it."""
    lines = text.splitlines()
    for node in ast.parse(text).body:
        reexport = isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        )
        if reexport:
            for i in range(node.lineno - 1, node.end_lineno):
                lines[i] = ""
    return "\n".join(lines)


def _doc_import_lines():
    """``(file, module, names)`` for every ``from repro… import …``
    statement in README.md and docs/*.md."""
    for path in DOCS:
        for match in DOC_IMPORT.finditer(_read(path)):
            names = re.findall(r"\w+", match.group(2).split("#")[0])
            yield path, match.group(1), [n for n in names if n != "as"]


def _callers():
    """``{path: text}`` of every non-test caller, re-exports removed."""
    texts = {}
    for path in glob.glob(os.path.join(PACKAGE_DIR, "**", "*.py"), recursive=True):
        text = _read(path)
        texts[path] = _without_reexports(text) if path.endswith("__init__.py") else text
    for tree in CALLER_TREES:
        for path in glob.glob(os.path.join(REPO_ROOT, tree, "**", "*.py"), recursive=True):
            texts[path] = _read(path)
    for path, module, names in _doc_import_lines():
        texts[path] = texts.get(path, "") + "\n%s %s" % (module, " ".join(names))
    return texts


def _design_rows():
    """``(paths, contents)`` for every module-table row of DESIGN.md, its
    first cell's backticked paths resolved relative to ``src/repro``."""
    packages = []
    for line in _read(os.path.join(REPO_ROOT, "DESIGN.md")).splitlines():
        if line.startswith("#"):
            packages = [p.replace(".", "/") for p in re.findall(r"`repro\.([\w.]+)`", line)]
            continue
        cells = line.split("|")
        if len(cells) < 4 or not cells[1].strip().startswith("`"):
            continue
        paths = []
        for path in re.findall(r"`([\w/]+(?:\.py|/))`", cells[1]):
            if "/" in path or not packages:
                paths.append(path)
            else:
                paths.extend("%s/%s" % (p, path) for p in packages)
        yield paths, "|".join(cells[2:])


def _realised_results(path, name, rows):
    """The numbered results DESIGN.md names ``name`` with, in the row of
    the module at ``path``."""
    rel = os.path.relpath(path, PACKAGE_DIR).replace(os.sep, "/")
    named = re.compile(r"`[^`]*\b%s\b[^`]*`" % re.escape(name))
    found = []
    for paths, contents in rows:
        if not any(rel == p or (p.endswith("/") and rel.startswith(p)) for p in paths):
            continue
        for clause in contents.split(";"):
            if named.search(clause):
                found.extend(m.group(0) for m in NUMBERED_RESULT.finditer(clause))
    return found


@pytest.mark.parametrize("package", PACKAGES)
def test_all_resolves_without_duplicates(package):
    module = importlib.import_module(package)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    repeated = sorted({n for n in module.__all__ if module.__all__.count(n) > 1})
    assert not missing and not repeated, "%s: unresolved %s, repeated %s" % (package, missing, repeated)


@pytest.mark.parametrize("package", PACKAGES)
def test_init_binds_nothing_public_outside_all(package):
    """Every public name the ``__init__`` defines, or imports from inside
    the package, is in ``__all__`` (submodules aside)."""
    module = importlib.import_module(package)
    bound = set()
    for node in ast.parse(_read(_init_path(package))).body:
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("repro")):
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(t.id for t in targets if isinstance(t, ast.Name))
    extra = sorted(n for n in bound if not n.startswith("_") and n not in module.__all__)
    assert not extra, "%s binds public names outside __all__: %s" % (package, extra)


def test_every_export_has_a_caller_or_a_numbered_result():
    callers = _callers()
    rows = list(_design_rows())
    exported = 0
    offenders = []
    for package in PACKAGES:
        for name in _public_all(package):
            exported += 1
            home = _defining_file(package, name)
            word = re.compile(r"\b%s\b" % re.escape(name))
            used = any(word.search(text) for path, text in callers.items() if path != home)
            if not used and not _realised_results(home, name, rows):
                offenders.append("%s.%s" % (package, name))
    assert exported >= 100  # the packages were found and read, not skipped
    assert not offenders, (
        "exported with no non-test caller and no numbered result in DESIGN.md "
        "(drop from __all__, move to tests/harness/ or delete): %s" % ", ".join(offenders)
    )


def test_doc_imports_resolve():
    """Every ``from repro… import …`` line of README.md and docs/*.md
    imports: these lines count as callers, so they must not rot."""
    seen = 0
    broken = []
    for path, module, names in _doc_import_lines():
        seen += 1
        try:
            imported = importlib.import_module(module)
        except ImportError:
            broken.append("%s: %s" % (os.path.basename(path), module))
            continue
        for name in names:
            if not hasattr(imported, name):
                try:
                    importlib.import_module("%s.%s" % (module, name))
                except ImportError:
                    broken.append("%s: %s.%s" % (os.path.basename(path), module, name))
    assert seen >= 5  # the docs were found and read, not skipped
    assert not broken, "doc imports that do not resolve: %s" % broken
