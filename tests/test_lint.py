"""Lint scans of the package: sparse exact maps accumulate through
`scalars.accumulate` alone (no module pops a key by hand with
`.pop(key, None)`), the non-validating `Poly._canonical` constructor is
called from `poly.py` and `poisson.py` alone, every public function,
class, method or property has a caller in `src/` or a test, and the su(n)
and gamma-matrix constructions make no dense `linalg` product."""

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


# ---------------------------------------------------------------------------
# the non-validating Poly constructor stays in the modules that keep its
# contract (canonical term maps by construction)
# ---------------------------------------------------------------------------

FAST_CONSTRUCTOR = "_canonical"
FAST_CONSTRUCTOR_USERS = {"poly.py", "poisson.py"}


def fast_constructor_uses(source, filename):
    """Line of every `<expr>._canonical` read in a module outside the
    allowed ones."""
    if filename in FAST_CONSTRUCTOR_USERS:
        return []
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == FAST_CONSTRUCTOR)


def test_scan_sees_a_fast_constructor_call():
    source = ("from .poly import Poly\ndef f(m, t):\n    return Poly._canonical(m, t)\n"
              "def g(m):\n    make = Poly._canonical\n    return Poly(m, {}), make\n")
    assert fast_constructor_uses(source, "lie.py") == [3, 5]
    assert fast_constructor_uses(source, "poisson.py") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_fast_constructor_stays_in_poly_and_poisson(path):
    assert fast_constructor_uses(path.read_text(), path.name) == []


# ---------------------------------------------------------------------------
# every public definition is used in src/ or tested
# ---------------------------------------------------------------------------

TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions(tree):
    """Public module-level functions and classes, and the public methods and
    properties of the module-level classes."""
    nodes = list(tree.body)
    nodes += [node for cls in tree.body if isinstance(cls, ast.ClassDef) for node in cls.body]
    return [node.name for node in nodes
            if isinstance(node, DEFS) and not node.name.startswith("_")]


def referenced_names(tree):
    """Every name a module reads, the attributes it takes and the names it
    imports; a definition alone is not a reference."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def unreferenced(sources, others):
    """(module, name) of each public definition in sources (name -> text)
    that no source and no other text references."""
    refs = set()
    for text in list(sources.values()) + list(others):
        refs |= referenced_names(ast.parse(text))
    return [(name, d) for name, text in sources.items()
            for d in public_definitions(ast.parse(text)) if d not in refs]


def test_scan_sees_an_unreferenced_definition():
    sources = {"a.py": "def f():\n    return g()\ndef g():\n    pass\nclass C:\n    pass\n",
               "b.py": ("from .a import C\ndef _h():\n    pass\nclass D:\n"
                        "    def m(self):\n        return self.p\n"
                        "    @property\n    def p(self):\n        pass\n"
                        "    def __eq__(self, other):\n        pass\n"
                        "    def _q(self):\n        pass\n")}
    assert unreferenced(sources, []) == [("a.py", "f"), ("b.py", "D"), ("b.py", "m")]
    assert unreferenced(sources, ["import a, b\na.f()\nb.D().m()\n"]) == []


def test_every_public_definition_is_used_or_tested():
    sources = {path.name: path.read_text() for path in MODULES}
    assert unreferenced(sources, [path.read_text() for path in TESTS]) == []


# ---------------------------------------------------------------------------
# the su(n) and gamma constructions stay on the sparse ℤ[i] kernel
# ---------------------------------------------------------------------------

KERNEL_FUNCTIONS = {"sun_generators", "symmetrized_trace_poly", "closure_residual",
                    "gamma_matrices", "_chirality"}
DENSE_PRODUCTS = {"mat_mul", "commutator", "anticommutator", "trace"}


def dense_product_calls(source):
    """(function, dense operation) of every call of a dense `linalg` product
    (as `linalg.<name>` or a bare imported name) inside the kernel
    functions, nested definitions included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name in KERNEL_FUNCTIONS:
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                        and f.value.id == "linalg" and f.attr in DENSE_PRODUCTS):
                    found.append((node.name, f.attr))
                elif isinstance(f, ast.Name) and f.id in DENSE_PRODUCTS:
                    found.append((node.name, f.id))
    return found


def test_scan_sees_a_dense_product():
    source = ("def closure_residual(a, b):\n    def inner(x):\n"
              "        return linalg.trace(x)\n    return commutator(a, b)\n"
              "def other(a, b):\n    return linalg.mat_mul(a, b)\n"
              "def gamma_matrices(d):\n    return linalg.zi_mul(d, d), linalg.mat_sub(d, d)\n")
    assert sorted(dense_product_calls(source)) == [("closure_residual", "commutator"),
                                                   ("closure_residual", "trace")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_su_and_gamma_constructions_use_the_integer_kernel(path):
    assert dense_product_calls(path.read_text()) == []
