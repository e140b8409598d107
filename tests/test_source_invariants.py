"""The package source keeps to exact, dependency-free Python.

No assert statement (python -O strips them; checks use verify), no
floating point outside the wall-clock budget, no import outside the
standard library, no dataclasses, and fractions only in the modules whose
values are rational; importing the CLI loads no process
pool or pickle; the package's modules import each other at the top level
only and without cycles; and no public name is there for the tests alone.
"""

import ast
import graphlib
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import vftk

SOURCES = sorted(Path(vftk.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
FLOAT_ALLOWED = {"budget.py"}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _where(path, node):
    return f"{path.name}:{node.lineno}"


def test_sources_found():
    assert {"budget.py", "cli.py", "intmat.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    found = [_where(path, n) for n in ast.walk(_tree(path)) if isinstance(n, ast.Assert)]
    assert found == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name not in FLOAT_ALLOWED], ids=lambda p: p.name)
def test_no_floating_point(path):
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(("float literal", _where(path, node)))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(("float()", _where(path, node)))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(("true division", _where(path, node)))
    assert found == []


def _absolute_imports(path):
    """(top-level module, place) of every absolute import in path."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        yield from ((n.split(".")[0], _where(path, node)) for n in names)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_stdlib_imports(path):
    found = [(n, at) for n, at in _absolute_imports(path) if n not in sys.stdlib_module_names]
    assert found == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses_import(path):
    """Records are namedtuple subclasses; importing dataclasses (and the
    inspect it loads) would put that cost back on every command's start."""
    assert [(n, at) for n, at in _absolute_imports(path) if n == "dataclasses"] == []


def test_fraction_stays_in_the_rational_modules():
    """Only the modules whose values are rational import fractions, and
    README says where Fraction remains."""
    found = {p.stem for p in SOURCES for n, _ in _absolute_imports(p) if n == "fractions"}
    assert found == {"abelian", "lattices"}
    readme = " ".join((ROOT / "README.md").read_text().split())
    assert (
        "`fractions.Fraction` remains only where the values themselves are rational: "
        "`rational_row_basis` and the inner products, determinants and norms of lattices. "
        "Glue and discriminant-group generators are integer rows over one denominator." in readme
    )


def _package_imports(tree):
    """(imported vftk module, import node) for each relative import in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [a.name for a in node.names]
            yield from ((n, node) for n in names)


def _module_graph():
    return {p.stem: {n for n, _ in _package_imports(_tree(p))} for p in SOURCES}


def test_package_imports_are_top_level():
    """A vftk import inside a function hides an edge of the module graph;
    lazy standard-library imports stay allowed."""
    found = []
    for path in SOURCES:
        tree = _tree(path)
        found += [f"{_where(path, node)} {n}" for n, node in _package_imports(tree) if node not in tree.body]
    assert found == []


def test_module_graph_is_acyclic():
    graph = _module_graph()
    assert set().union(*graph.values()) <= set(graph)
    list(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError


def test_f2quad_stays_below_the_lattice_layers():
    """The GF(2) census needs no lattice or frame code."""
    graph, reached, todo = _module_graph(), set(), ["f2quad"]
    while todo:
        for dep in graph[todo.pop()] - reached:
            reached.add(dep)
            todo.append(dep)
    assert reached & {"frames", "lattices"} == set()


def _loaded_by_cli_import(names):
    """Which of names a fresh interpreter has loaded after import vftk.cli.

    Fresh because pytest itself loads many modules, and without site hooks
    (-S), so only the package's own imports count."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import vftk.cli; "
        "print(sorted(set(sys.argv[2:]) & set(sys.modules)))"
    )
    src = str(Path(vftk.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, src, *names], capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_cli_import_skips_dataclasses_and_inspect():
    assert _loaded_by_cli_import(["dataclasses", "inspect"]) == "[]"


def test_cli_import_skips_process_pools_and_pickle():
    """The split census forks with os.fork and reads results with marshal,
    so no command pays at start-up for a process pool or pickle."""
    assert _loaded_by_cli_import(["multiprocessing", "pickle", "concurrent"]) == "[]"


def _names_used(node):
    """How often node mentions each name, attribute or imported name."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.alias):
            found[n.name.rpartition(".")[2]] += 1
    return found


def _public_definitions(tree):
    """Each public top-level def or class, and each public method or
    property of those classes, as (qualified name, node)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                        yield f"{node.name}.{m.name}", m


def test_every_public_name_is_reached_outside_the_tests():
    """The library is what the reports reach.

    Each public def, class, method or property in src/vftk is referenced
    from another package module (not __init__.py, whose re-exports reach
    nothing), from its own module outside its definition, or from demos/,
    perfbench/ or README.md.  A name only tests reach belongs in
    tests/oracles.py, or goes.  References are matched by bare name, so
    obj.name counts for every method called name: two names that collide
    can hide a test-only method, but never make this test fail wrongly.
    """
    outside = set()
    for path in [*ROOT.glob("demos/**/*.py"), *ROOT.glob("perfbench/**/*.py"), ROOT / "README.md"]:
        outside.update(re.findall(r"\w+", path.read_text()))
    trees = {path: _tree(path) for path in SOURCES}
    used = {path: _names_used(tree) for path, tree in trees.items()}
    unreached = []
    for path, tree in trees.items():
        elsewhere = set().union(*(used[p] for p in SOURCES if p != path and p.name != "__init__.py"))
        for qualname, node in _public_definitions(tree):
            name = node.name
            if name in outside or name in elsewhere or (used[path] - _names_used(node))[name]:
                continue
            unreached.append(f"{_where(path, node)} {qualname}")
    assert unreached == []
