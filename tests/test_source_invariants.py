"""The package source keeps to exact, dependency-free Python.

No assert statement (python -O strips them; checks use verify), no
floating point outside the wall-clock budget, no import outside the
standard library, and no dataclasses; and importing the CLI loads no
process pool or pickle.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import vftk

SOURCES = sorted(Path(vftk.__file__).parent.glob("*.py"))
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
