"""Sparse exact maps accumulate through `scalars.accumulate` alone: no module
of the package pops a key by hand with `.pop(key, None)`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "naryalg"
MODULES = sorted(SRC.glob("*.py"))
ALLOWED = {("scalars.py", "accumulate")}


def hand_rolled_pops(source, filename):
    """(line, enclosing function) of every `.pop(<key>, None)` call outside
    the allowed functions."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "pop" and len(node.args) == 2
                and isinstance(node.args[1], ast.Constant) and node.args[1].value is None
                and (filename, func) not in ALLOWED):
            found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_scan_sees_a_hand_rolled_pop():
    source = ("def f(d, k):\n    d.pop(k, None)\n"
              "def accumulate(d, k):\n    d.pop(k, None)\n    d.pop(k)\n")
    assert hand_rolled_pops(source, "poly.py") == [(2, "f"), (4, "accumulate")]
    assert hand_rolled_pops(source, "scalars.py") == [(2, "f")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_hand_rolled_accumulation(path):
    assert hand_rolled_pops(path.read_text(), path.name) == []
