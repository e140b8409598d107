"""The package source keeps to exact, dependency-free Python.

No assert statement (python -O strips them; checks use verify), no
floating point outside the wall-clock budget, and no import outside the
standard library.
"""

import ast
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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_stdlib_imports(path):
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [(n, _where(path, node)) for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    assert found == []
