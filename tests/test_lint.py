"""Lint scans of the package: sparse exact maps accumulate through
`scalars.accumulate` alone (no module pops a key by hand with
`.pop(key, None)`), the non-validating `Poly._canonical` constructor is
called from `poly.py` and `poisson.py` alone (and `NCochain._canonical`
from `nary_cohomology.py` alone), every public function,
class, method or property has a caller in `src/` or a test, no module
defines, imports, reads or calls a name of the deleted dense matrix layer
(`mat_mul`, `commutator`, `trace`, ..), the su(n) and gamma-matrix
constructions and the Clifford realization with its anticommutation lemma
make no generic sparse product and no multibracket (they stay on
`zi_*`), `sun_generators` checks the su(n) closure on its ℤ[i] generators
(through any call it makes, a constructor passed check=False aside, it
reaches neither `lie.closure_residual` nor an `sp_*` operation), no module
imports `dataclasses` (every class writes its own constructor, so an
import generates no code), and no
`__init__`, `__post_init__` or `__missing__` outside `tensors.py` sorts a key
with `sort_sign`: the one sign-canonical container is
`tensors.AntisymTensor`.  The two coboundary row kernels (`_ce_rows`,
`_leibniz_delta`) build no `LinearForm` and call no sort kernel, and the
identity scans (Jacobi, the derivation and short Filippov forms, the
trace form with the Killing form, and the metric invariance scans) call no
accessor that sorts its key on every read.  `LieAlgebra`, `GLAlgebra` and
`FilippovAlgebra` define no reader of their constants (`row`, `get`,
`ad_matrix`, `c_get`, `f_get`): `BracketTensor` holds them, and the names
`c_row` and `f_row` are bound to `BracketTensor.row` alone.
The Poisson scans (`gps_check`, `np_check`) build no `Fraction` Poly and
take no Schouten bracket: they read integer term maps; `shuffle_splits`
derives no sign, which its cache holds per shape.  The invariant-polynomial
-> cocycle -> GLA bridge, the cocycle invariance scan and the polynomial
vanishing identity read no sorting accessor of k, Omega or C and build a
`Fraction` only in the final division of an output entry.  The ranking
driver `complex_dims` and the one `apply` and one `preimage` of the
coboundary reach matrices only through `cx.matrix`, and every complex's
`matrix` method (`CEComplex`'s, and `LeibnizComplex`'s, which `FAComplex`
inherits) calls `coboundary_matrix(cx, p)` by name, never a row builder
directly, so the spans a tracer wraps around `coboundary_matrix` see every
matrix they read.  In the cohomology modules `linalg.solve` is read only by
`preimage`, and `apply_rows` only by `apply` and `coboundary_at`.  The
builders of a complex's tables (`_fa_tables`, `_fa_actions`, `_unimodular`)
are read only by the constructor that memoizes them on the algebra, and the
complement-ranking kernel `linalg.complement_rank` only by `complex_dims`.
`argparse.ArgumentParser` is read only by `cli._parser`, which is cached, so
a process builds its parser once.  The claims built on the cohomology
complexes keep their one solve and one dot product in `claims.py` too.
No other module imports `claims`, so `import naryalg.cli` with every other
module of the package leaves it unloaded; no top-level name is defined both
in `claims.py` and in another module; and the modules that every process
compiles stay within a budget of AST nodes."""

import ast
import os
import subprocess
import sys
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
# a class's own non-validating constructor, for the module whose kernels
# build its instances in canonical form
OWN_FAST_CONSTRUCTORS = {"nary_cohomology.py": "NCochain"}


def fast_constructor_uses(source, filename):
    """Line of every `<expr>._canonical` read in a module outside the
    allowed ones, other than the module's own class's `<Class>._canonical`."""
    if filename in FAST_CONSTRUCTOR_USERS:
        return []
    own = OWN_FAST_CONSTRUCTORS.get(filename)
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == FAST_CONSTRUCTOR
                  and not (isinstance(node.value, ast.Name) and node.value.id == own))


def test_scan_sees_a_fast_constructor_call():
    source = ("from .poly import Poly\ndef f(m, t):\n    return Poly._canonical(m, t)\n"
              "def g(m):\n    make = Poly._canonical\n    return Poly(m, {}), make\n")
    assert fast_constructor_uses(source, "lie.py") == [3, 5]
    assert fast_constructor_uses(source, "poisson.py") == []
    assert fast_constructor_uses(source, "nary_cohomology.py") == [3, 5]
    own = "def h(k, d):\n    return NCochain._canonical(k, 1, 3, 4, 1, d)\n"
    assert fast_constructor_uses(own, "nary_cohomology.py") == []
    assert fast_constructor_uses(own, "filippov.py") == [2]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_fast_constructor_stays_in_poly_and_poisson(path):
    assert fast_constructor_uses(path.read_text(), path.name) == []


# ---------------------------------------------------------------------------
# every public definition is used in src/ or tested
# ---------------------------------------------------------------------------

TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def assigned_names(node):
    """The names a module-level assignment binds (every target of a chained
    `a = b = ..`); none for any other statement."""
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def public_definitions(tree):
    """(name, member) of the public module-level functions, classes and
    assigned names (member False), and of the public methods and properties
    of the module-level classes (member True)."""
    nodes = [(node, False) for node in tree.body]
    nodes += [(node, True) for cls in tree.body if isinstance(cls, ast.ClassDef)
              for node in cls.body]
    found = [(node.name, member) for node, member in nodes if isinstance(node, DEFS)]
    found += [(name, False) for node in tree.body for name in assigned_names(node)]
    return [(name, member) for name, member in found if not name.startswith("_")]


def referenced_names(tree):
    """(names, attributes): every name a module reads or imports, and every
    attribute it takes; a definition or an assignment alone is not a
    reference."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names, attrs


def unreferenced(sources, others):
    """(module, name) of each public definition in sources (name -> text)
    that no source and no other text references.  A module-level
    definition is referenced by a name, an import or an attribute
    (`module.f`); a method or property only by an attribute, so a local
    variable of the same spelling does not count."""
    names, attrs = set(), set()
    for text in list(sources.values()) + list(others):
        n, a = referenced_names(ast.parse(text))
        names |= n
        attrs |= a
    return [(name, d) for name, text in sources.items()
            for d, member in public_definitions(ast.parse(text))
            if d not in attrs and (member or d not in names)]


def test_scan_sees_an_unreferenced_definition():
    sources = {"a.py": "def f():\n    return g()\ndef g():\n    pass\nclass C:\n    pass\n",
               "b.py": ("from .a import C\ndef _h():\n    pass\nclass D:\n"
                        "    def m(self):\n        return self.p\n"
                        "    @property\n    def p(self):\n        pass\n"
                        "    def __eq__(self, other):\n        pass\n"
                        "    def _q(self):\n        pass\n")}
    assert unreferenced(sources, []) == [("a.py", "f"), ("b.py", "D"), ("b.py", "m")]
    assert unreferenced(sources, ["import a, b\na.f()\nb.D().m()\n"]) == []
    # a bare name of a method's spelling (a local, an argument) is not a call
    # of the method, while the same name does reference a module-level def
    local = "def t(m, f):\n    mat = m\n    return mat, f, D\n"
    assert unreferenced(sources, [local]) == [("b.py", "m")]
    member = {"c.py": "class E:\n    def mat(self):\n        pass\n"}
    assert unreferenced(member, [local]) == [("c.py", "E"), ("c.py", "mat")]
    assert unreferenced(member, ["def t(x):\n    return x.mat(), E\n"]) == []


def test_scan_sees_an_unreferenced_module_level_name():
    sources = {"a.py": ("X = 1\nY = Z = 2\nW: int = 3\n_P = 4\n__all__ = []\n"
                        "def f():\n    return Y\n"),
               "b.py": "from .a import W\nX, V = 5, 6\n"}
    # binding a name is not reading it; a tuple target binds no public name
    assert unreferenced(sources, []) == [("a.py", "f"), ("a.py", "X"), ("a.py", "Z")]
    assert unreferenced(sources, ["import a\nprint(a.X, a.Z, a.f)\n"]) == []


def test_every_public_definition_is_used_or_tested():
    sources = {path.name: path.read_text() for path in MODULES}
    assert unreferenced(sources, [path.read_text() for path in TESTS]) == []


# ---------------------------------------------------------------------------
# one operator-matrix format: the dense matrix layer stays out of src/, and
# the su(n) and gamma constructions and the Clifford realization stay on
# the ℤ[i] kernel
# ---------------------------------------------------------------------------

DENSE_NAMES = {"mat_add", "mat_sub", "mat_scale", "mat_mul", "mat_eq", "transpose", "trace",
               "commutator", "anticommutator", "is_zero_matrix", "conj_transpose", "zi_to_dense"}
KERNEL_FUNCTIONS = {"sun_generators", "symmetrized_trace_poly", "gamma_matrices", "_zi_gammas",
                    "_chirality", "anticommuting_brackets", "clifford_realization",
                    "clifford_double_commutator"}
GENERIC_PRODUCTS = {"sp_mul", "sp_commutator", "sp_anticommutator", "sp_trace", "multibracket"}


def called_name(call):
    """The name a call reads: `f(..)` or `<module>.f(..)`."""
    f = call.func
    if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
        return f.attr
    return f.id if isinstance(f, ast.Name) else None


def dense_layer_uses(source):
    """(line, name) of every definition, import, `linalg.<name>` read or call
    of a deleted dense matrix name, anywhere in the module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DEFS) and node.name in DENSE_NAMES:
            found.append((node.lineno, node.name))
        elif isinstance(node, ast.alias) and node.name in DENSE_NAMES:
            found.append((node.lineno, node.name))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "linalg" and node.attr in DENSE_NAMES):
            found.append((node.lineno, node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in DENSE_NAMES):
            found.append((node.lineno, node.func.id))
    return sorted(found)


def generic_product_calls(source):
    """(function, operation) of every generic sparse product called inside
    the ℤ[i] construction functions, nested definitions included."""
    return [(node.name, called_name(call))
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name in KERNEL_FUNCTIONS
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and called_name(call) in GENERIC_PRODUCTS]


def test_scan_sees_the_dense_layer():
    source = ("from .linalg import mat_mul\n"
              "def f(a, b):\n    def inner(x):\n        return linalg.trace(x)\n"
              "    return commutator(a, b), linalg.sp_commutator(a, b)\n"
              "g = linalg.mat_eq\n"
              "def transpose(a):\n    return a.trace()\n")
    assert dense_layer_uses(source) == [(1, "mat_mul"), (4, "trace"), (5, "commutator"),
                                        (6, "mat_eq"), (7, "transpose")]


def test_scan_sees_a_generic_product_in_the_integer_kernel():
    source = ("def gamma_matrices(d):\n    return linalg.zi_mul(d, d), linalg.sp_mul(d, d)\n"
              "def closure_residual(a, b):\n    return linalg.sp_commutator(a, b)\n"
              "def _chirality(g):\n    def inner(x):\n        return sp_trace(x, x)\n"
              "def clifford_realization(n):\n    return gla.multibracket(n)\n")
    assert generic_product_calls(source) == [("gamma_matrices", "sp_mul"),
                                             ("_chirality", "sp_trace"),
                                             ("clifford_realization", "multibracket")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dense_matrix_layer_in_src(path):
    assert dense_layer_uses(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_su_and_gamma_constructions_use_the_integer_kernel(path):
    assert generic_product_calls(path.read_text()) == []


# ---------------------------------------------------------------------------
# the su(n) closure is checked on the ℤ[i] generators: `sun_generators`
# reaches neither the `GaussianRational` closure scan nor a generic sparse
# product, through any call it makes
# ---------------------------------------------------------------------------

CLOSURE_ENTRY = "sun_generators"
SLOW_CLOSURE = "closure_residual"


def definitions_by_name(sources):
    """name -> the function definitions of that name in the sources
    (module-level functions and methods), a class standing for its
    `__init__` and `__post_init__`."""
    defs = {}
    for text in sources:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append(node)
            elif isinstance(node, ast.ClassDef):
                defs.setdefault(node.name, []).extend(
                    n for n in node.body if isinstance(n, ast.FunctionDef)
                    and n.name in ("__init__", "__post_init__"))
    return defs


def skips_its_check(call):
    return any(k.arg == "check" and isinstance(k.value, ast.Constant) and k.value.value is False
               for k in call.keywords)


def slow_closure_reach(sources):
    """The slow closure scan and the `sp_*` operations that `sun_generators`
    reaches: its calls, followed into every definition of the called name (a
    class into its constructor) except where the call passes check=False."""
    defs = definitions_by_name(sources)
    todo, seen, called = list(defs.get(CLOSURE_ENTRY, [])), set(), set()
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        for call in ast.walk(fn):
            name = called_name(call) if isinstance(call, ast.Call) else None
            if name:
                called.add(name)
                if not skips_its_check(call):
                    todo += defs.get(name, [])
    return sorted(n for n in called if n == SLOW_CLOSURE or n.startswith("sp_"))


def test_scan_sees_a_slow_closure_reached_from_sun_generators():
    source = ("def sun_generators(n):\n    alg = build(n)\n"
              "    Representation(alg, [], n, check=False)\n"
              "    return Representation(alg, [], n)\n"
              "def build(n):\n    return linalg.sp_mul(n, n)\n"
              "class Representation:\n    def __init__(self, alg, mats, dim_v, check=True):\n"
              "        if check:\n            closure_residual(alg, mats)\n"
              "def closure_residual(alg, mats):\n    return sp_commutator(mats[0], mats[1])\n")
    assert slow_closure_reach([source]) == ["closure_residual", "sp_commutator", "sp_mul"]
    fast = source.replace("sp_mul", "zi_mul").replace("(alg, [], n)\n",
                                                      "(alg, [], n, check=False)\n")
    assert slow_closure_reach([fast]) == []


def test_sun_generators_check_closure_on_the_integer_kernel():
    sources = [path.read_text() for path in MODULES]
    assert len(definitions_by_name(sources)[CLOSURE_ENTRY]) == 1
    assert slow_closure_reach(sources) == []


# ---------------------------------------------------------------------------
# no dataclasses: every class of the package writes its own constructor, so
# an import generates no code
# ---------------------------------------------------------------------------

def dataclasses_imports(source):
    """The line of every import of the standard `dataclasses` module."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Import) and any(a.name.partition(".")[0] == "dataclasses"
                                                          for a in node.names)
                  or isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.partition(".")[0] == "dataclasses")


def test_scan_sees_a_dataclasses_import():
    source = ("import dataclasses\nfrom dataclasses import dataclass, field\n"
              "def f():\n    import dataclasses as dc\n    from .dataclasses import x\n"
              "import os, dataclasses\nfrom . import tensors\n")
    assert dataclasses_imports(source) == [1, 2, 4, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    assert dataclasses_imports(path.read_text()) == []


# ---------------------------------------------------------------------------
# one sign-canonical container: only tensors.py folds keys by their sign
# while building or filling a map
# ---------------------------------------------------------------------------

CONTAINER_HOOKS = {"__init__", "__post_init__", "__missing__"}


def sign_canonical_containers(source, filename):
    """(line, hook) of every `sort_sign` call inside an `__init__`,
    `__post_init__` or `__missing__` outside `tensors.py`: the mark of a
    second sign-canonical container."""
    if filename == "tensors.py":
        return []
    return sorted((call.lineno, node.name)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.FunctionDef) and node.name in CONTAINER_HOOKS
                  for call in ast.walk(node)
                  if isinstance(call, ast.Call) and called_name(call) == "sort_sign")


def test_scan_sees_a_second_sign_canonical_container():
    source = ("class Planted(dict):\n"
              "    def __post_init__(self):\n"
              "        self.data = {sort_sign(k)[0]: v for k, v in self.data.items()}\n"
              "    def __missing__(self, idx):\n"
              "        key, s = tensors.sort_sign(idx)\n"
              "    def __init__(self, dim):\n"
              "        self.dim = dim\n"
              "    def get(self, idx):\n"
              "        return sort_sign(idx)\n")
    assert sign_canonical_containers(source, "poisson.py") == [(3, "__post_init__"),
                                                               (5, "__missing__")]
    assert sign_canonical_containers(source, "tensors.py") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_sign_canonical_container(path):
    assert sign_canonical_containers(path.read_text(), path.name) == []


# ---------------------------------------------------------------------------
# the two coboundary row kernels write integer rows: no generic cochain of
# linear forms and no re-sorting of keys inside them
# ---------------------------------------------------------------------------

ROW_KERNELS = {"_ce_rows", "_leibniz_delta"}
SLOW_MACHINERY = {"LinearForm", "sort_sign", "sort_blocks", "perm_sign"}


def slow_kernel_calls(source):
    """(function, name) of every `LinearForm` built or sort kernel called
    inside a row kernel, nested definitions included."""
    return [(node.name, called_name(call))
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name in ROW_KERNELS
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and called_name(call) in SLOW_MACHINERY]


def test_scan_sees_slow_machinery_in_a_row_kernel():
    source = ("def _ce_rows(alg, p):\n    return scalars.LinearForm({p: 1}), insert_sign(p, 0, 1)\n"
              "def coboundary(alg, om):\n    return sort_sign(om)\n"
              "def _leibniz_delta(args):\n    def read(xs):\n"
              "        return tensors.sort_blocks(xs), perm_sign(xs)\n    return read\n")
    assert slow_kernel_calls(source) == [("_ce_rows", "LinearForm"),
                                         ("_leibniz_delta", "sort_blocks"),
                                         ("_leibniz_delta", "perm_sign")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_row_kernels_build_no_linear_form_and_sort_no_key(path):
    assert slow_kernel_calls(path.read_text()) == []


# ---------------------------------------------------------------------------
# the identity scans read the signed row table, which sorts each key once:
# no per-read sorting accessor inside them
# ---------------------------------------------------------------------------

SCANS = {"check_jacobi", "_fi_derivation", "_fi_short", "killing_form", "trace_form",
         "check_metric_invariance", "metric_scan"}
PER_READ_ACCESSORS = {"row", "get", "c_row", "c_get", "f_row", "f_get", "sort_sign"}


def accessor_name(call):
    """The name a call reads: `f(..)` or `<any expression>.f(..)`."""
    f = call.func
    if isinstance(f, ast.Attribute):
        return f.attr
    return f.id if isinstance(f, ast.Name) else None


def per_read_accessor_calls(source):
    """(function, name) of every per-read sorting accessor called inside an
    identity scan, nested definitions included."""
    return [(node.name, accessor_name(call))
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name in SCANS
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and accessor_name(call) in PER_READ_ACCESSORS]


def test_scan_sees_a_per_read_accessor_in_an_identity_scan():
    source = ("def check_jacobi(alg):\n    rows = alg.integer_scaled()[1].signed\n"
              "    return rows[1, 2], alg.c_get(1, 2, 3)\n"
              "def _fi_short(fa):\n    def read(idx):\n"
              "        return fa.f.get(idx, {}), tensors.sort_sign(idx)\n    return read\n"
              "def killing_form(alg):\n    return [alg.row((i, j)) for i, j in alg.c]\n"
              "def bracket(alg, i, j):\n    return alg.c_row(i, j), f_get(i, j)\n")
    assert per_read_accessor_calls(source) == [("check_jacobi", "c_get"), ("_fi_short", "get"),
                                               ("_fi_short", "sort_sign"), ("killing_form", "row")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_identity_scans_read_rows_sorted_once(path):
    assert per_read_accessor_calls(path.read_text()) == []


def test_every_identity_scan_is_in_the_tree():
    # a renamed scan would leave the lint above with nothing to look at
    defined = {node.name for path in MODULES for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert SCANS <= defined


# ---------------------------------------------------------------------------
# `BracketTensor` holds the readers of structure constants: its subclasses
# define none, and bind the names the benchmark tracer wraps to its `row`
# ---------------------------------------------------------------------------

SUBCLASSES = {"LieAlgebra", "GLAlgebra", "FilippovAlgebra"}
READERS = {"row", "get", "ad_matrix", "c_get", "f_get"}
ROW_ALIASES = {"c_row", "f_row"}


def is_shared_row(value):
    """Whether an expression is `BracketTensor.row`."""
    return (isinstance(value, ast.Attribute) and value.attr == "row"
            and isinstance(value.value, ast.Name) and value.value.id == "BracketTensor")


def subclass_readers(source):
    """(class, name) of every reader that a `BracketTensor` subclass binds
    in its body, by a def or an assignment, and of every `c_row`/`f_row`
    bound to anything but `BracketTensor.row`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name in SUBCLASSES:
            for stmt in node.body:
                names = [stmt.name] if isinstance(stmt, DEFS) else assigned_names(stmt)
                value = getattr(stmt, "value", None)
                found += [(node.name, name) for name in names if name in READERS
                          or (name in ROW_ALIASES and not is_shared_row(value))]
    return found


def test_scan_sees_a_reader_outside_the_bracket_tensor():
    source = ("class LieAlgebra(BracketTensor):\n    c_row = BracketTensor.row\n"
              "    def c_get(self, i, j, k):\n        pass\n"
              "    def ad_matrix(self, i):\n        pass\n"
              "class GLAlgebra(BracketTensor):\n    c_row = row = BracketTensor.get\n"
              "class FilippovAlgebra(BracketTensor):\n    f_row = BracketTensor.row\n"
              "    def f_row(self, idx):\n        pass\n    f_get: object = BracketTensor.get\n"
              "class BracketTensor:\n    def row(self, idx):\n        pass\n")
    assert subclass_readers(source) == [("LieAlgebra", "c_get"), ("LieAlgebra", "ad_matrix"),
                                        ("GLAlgebra", "c_row"), ("GLAlgebra", "row"),
                                        ("FilippovAlgebra", "f_row"),
                                        ("FilippovAlgebra", "f_get")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_bracket_tensor_subclasses_define_no_reader(path):
    assert subclass_readers(path.read_text()) == []


def test_every_bracket_tensor_subclass_is_in_the_tree():
    defined = {node.name for path in MODULES for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)}
    assert SUBCLASSES <= defined


# ---------------------------------------------------------------------------
# the Poisson scans read integer term maps, and shuffle_splits reads the
# signs cached per shape
# ---------------------------------------------------------------------------

POLY_CALLS = {"schouten_bracket", "Poly", "_canonical", "zero", "const", "var", "diff", "eval",
              "is_zero", "scale"}
# the scans and the helpers that read their integer tables
POISSON_SCANS = {"gps_check", "np_check", "_integer_table", "_holders", "_scatter",
                 "_bracket_terms", "_add_sigma", "_sigma_pairs"}
FORBIDDEN_CALLS = {**dict.fromkeys(POISSON_SCANS, POLY_CALLS), "shuffle_splits": {"merge_sign"}}


def forbidden_calls(source):
    """(function, name) of every forbidden call inside a Poisson scan, a
    helper of one, or `shuffle_splits`, nested definitions included, on any
    receiver."""
    return [(node.name, accessor_name(call))
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name in FORBIDDEN_CALLS
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and accessor_name(call) in FORBIDDEN_CALLS[node.name]]


def test_scan_sees_poly_arithmetic_in_a_poisson_scan():
    source = ("def gps_check(lam):\n    snb = schouten_bracket(lam, lam)\n"
              "    return snb.is_zero(), lam.get((1, 2)).diff(1)\n"
              "def np_check(lam):\n    def sigma(it):\n        return poly.Poly(3, {})\n"
              "    return add_product({}, 1, {}, {}), sigma\n"
              "def shuffle_splits(m, sizes):\n    return tensors.merge_sign(m, sizes)\n"
              "def wedge(a, b):\n    return merge_sign(a, b), Poly.zero(3)\n")
    assert forbidden_calls(source) == [("gps_check", "schouten_bracket"),
                                       ("gps_check", "is_zero"), ("gps_check", "diff"),
                                       ("np_check", "Poly"), ("shuffle_splits", "merge_sign")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_poisson_scans_read_integer_maps_and_splits_read_the_cache(path):
    assert forbidden_calls(path.read_text()) == []


def test_every_poisson_scan_and_split_kernel_is_in_the_tree():
    defined = {node.name for path in MODULES for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert set(FORBIDDEN_CALLS) <= defined


# ---------------------------------------------------------------------------
# the invariant-polynomial -> cocycle -> GLA bridge runs on integer tables:
# no sorting read of k, Omega or C inside it, and `Fraction` only in the
# final division of an output entry
# ---------------------------------------------------------------------------

BRIDGE_SCANS = {"_poly_table", "check_invariance", "cocycle_from_invariant_poly",
                "cocycle_condition_residual", "invariance_condition_residual",
                "check_poly_vanishing_identity", "_matching_sum", "gla_from_cocycle",
                "nested_bracket_residuals", "check_gji", "check_mgji"}
SORTING_READS = {"c_row", "c_get", "row", "sort_sign", "perm_sign"}
# `SymInvariantPoly.get` and `AntisymTensor.get` sort their key on every read
SORTING_RECEIVERS = {"k", "omega"}


def bridge_violations(source):
    """(function, name) of every sorting read, `.get` on k or omega, and
    `Fraction` call other than a two-argument division inside a bridge
    kernel, nested definitions included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.FunctionDef) and node.name in BRIDGE_SCANS):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            name, f = accessor_name(call), call.func
            if (name in SORTING_READS
                    or (name == "get" and isinstance(f, ast.Attribute)
                        and isinstance(f.value, ast.Name) and f.value.id in SORTING_RECEIVERS)
                    or (name == "Fraction" and len(call.args) != 2)):
                found.append((node.name, name))
    return found


def test_scan_sees_a_sorting_read_in_the_bridge():
    source = ("def check_invariance(alg, k):\n    rows = alg.integer_scaled()[1].c\n"
              "    return rows.get((1, 2)), k.get((1, 1)), alg.c_row(1, 2)\n"
              "def cocycle_from_invariant_poly(alg, k):\n    def read(idx):\n"
              "        return tensors.sort_sign(idx), Fraction(0)\n"
              "    return read, Fraction(3, 4)\n"
              "def nested_bracket_residuals(c1, n1, c2, n2, dim):\n"
              "    return omega.get((1, 2)), c1.get((1, 2))\n"
              "def killing_form(alg):\n    return k.get((1,)), Fraction(1)\n")
    assert bridge_violations(source) == [("check_invariance", "get"),
                                         ("check_invariance", "c_row"),
                                         ("cocycle_from_invariant_poly", "sort_sign"),
                                         ("cocycle_from_invariant_poly", "Fraction"),
                                         ("nested_bracket_residuals", "get")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_bridge_reads_integer_tables(path):
    assert bridge_violations(path.read_text()) == []


def test_every_bridge_kernel_is_in_the_tree():
    defined = {node.name for path in MODULES for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert BRIDGE_SCANS <= defined


# ---------------------------------------------------------------------------
# the ranking driver, apply and preimage reach matrices only through
# cx.matrix, and every complex's matrix method assembles through the named
# coboundary_matrix
# ---------------------------------------------------------------------------

DRIVERS = {"complex_dims", "apply", "preimage"}
MATRIX = "matrix"
ROW_BUILDERS = {"_ce_rows", "_leibniz_delta"}
ASSEMBLY = "coboundary_matrix"


def _reads(node, names):
    """Every name of names a function reads, as a name or an attribute."""
    return ([name.id for name in ast.walk(node) if isinstance(name, ast.Name) and name.id in names]
            + [attr.attr for attr in ast.walk(node)
               if isinstance(attr, ast.Attribute) and attr.attr in names])


def _calls_by_name(node, name):
    return any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
               and call.func.id == name for call in ast.walk(node))


def assembly_bypasses(source):
    """(function, name) of every row builder, and every `coboundary_matrix`
    in a driver, that a module-level driver (`complex_dims`, `apply`,
    `preimage`) or a `matrix` method of a class reads (called or not, nested
    definitions included); (function, None) for a driver that calls no
    `<complex>.matrix`, or a `matrix` method that never calls
    `coboundary_matrix` by name."""
    found = []
    tree = ast.parse(source)
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in DRIVERS:
            found += [(node.name, name) for name in _reads(node, ROW_BUILDERS | {ASSEMBLY})]
            if not any(isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                       and call.func.attr == MATRIX for call in ast.walk(node)):
                found.append((node.name, None))
    for cls in ast.walk(tree):
        for node in cls.body if isinstance(cls, ast.ClassDef) else ():
            if isinstance(node, ast.FunctionDef) and node.name == MATRIX:
                found += [(f"{cls.name}.{MATRIX}", name) for name in _reads(node, ROW_BUILDERS)]
                if not _calls_by_name(node, ASSEMBLY):
                    found.append((f"{cls.name}.{MATRIX}", None))
    return found


def test_scan_sees_assembly_around_coboundary_matrix():
    source = ("def complex_dims(cx, p_max):\n"
              "    d, rows = _ce_rows(cx, 0)\n"
              "    return linalg.rank(rows), cohomology.coboundary_matrix\n"
              "class CEComplex:\n"
              "    def matrix(self, p):\n"
              "        return coboundary_matrix(self, p)[0]\n"
              "class FAComplex:\n"
              "    def matrix(self, p):\n"
              "        build = nary_cohomology._leibniz_delta\n"
              "        return nary_cohomology.coboundary_matrix(self, p), build\n"
              "def coboundary(alg, rho, om):\n    return _ce_rows(alg, rho, 1, 1)\n"
              "def apply(cx, p, x):\n    return apply_rows(_leibniz_delta(cx, p, x), x, cx.d)\n"
              "def preimage(cx, p, y):\n"
              "    return linalg.solve(coboundary_matrix(cx, p)[0], cx.dim(p), y)\n"
              "class Operator:\n    def apply(self, mv):\n        return mv\n")
    assert assembly_bypasses(source) == [("complex_dims", "_ce_rows"),
                                         ("complex_dims", "coboundary_matrix"),
                                         ("complex_dims", None),
                                         ("apply", "_leibniz_delta"), ("apply", None),
                                         ("preimage", "coboundary_matrix"), ("preimage", None),
                                         ("FAComplex.matrix", "_leibniz_delta"),
                                         ("FAComplex.matrix", None)]
    driver = ("def complex_dims(cx, p_max):\n    return linalg.rank(cx.matrix(p_max))\n"
              "def apply(cx, p, x):\n    return apply_rows(cx.matrix(p), x, cx.d)\n")
    assert assembly_bypasses(driver) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_cohomology_dims_assemble_through_coboundary_matrix(path):
    assert assembly_bypasses(path.read_text()) == []


def test_every_cohomology_dims_function_is_in_the_tree():
    trees = [ast.parse(path.read_text()) for path in MODULES]
    defined = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert DRIVERS | ROW_BUILDERS <= defined
    # the three complexes with their matrix methods: FAComplex inherits
    # LeibnizComplex's, which reads the complex it is given
    classes = {cls.name: cls for tree in trees for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef)}
    assert {name for name, cls in classes.items()
            if any(isinstance(f, ast.FunctionDef) and f.name == MATRIX for f in cls.body)} \
        >= {"CEComplex", "LeibnizComplex"}
    assert [base.id for base in classes["FAComplex"].bases] == ["LeibnizComplex"]


# ---------------------------------------------------------------------------
# one path per job in the cohomology modules: the exact solve only in
# preimage, the dot product of rows only in apply and coboundary_at
# ---------------------------------------------------------------------------

COHOMOLOGY_MODULES = [SRC / "cohomology.py", SRC / "nary_cohomology.py"]
READ_ONLY_IN = {"solve": {"preimage"}, "apply_rows": {"apply", "coboundary_at"}}
# the definitions of claims.py built on the complexes of the two modules
COHOMOLOGY_CLAIMS = {
    "quadratic_casimir", "homotopy_contraction", "whitehead_homotopy", "laplacian_identity_holds",
    "central_extension", "DeformationReport", "deformation_check", "_alpha_nested_cyclic",
    "_coboundary_preimage", "mc_cochain", "jointly_antisymmetric_in_last_slot",
    "homology_boundary", "_boundary", "duality_pairing_holds", "fa_central_extension",
    "deformation_obstruction", "mc_zero_cochain", "leibniz_coboundary", "leibniz_extension"}


def reads_outside_their_function(source, only=None):
    """(enclosing module-level definition, name) of every read of a name of
    `READ_ONLY_IN`, as a name or an attribute, outside the module-level
    functions allowed to read it ("<module>" for a read at module level);
    with `only`, the definitions of other names are not scanned."""
    found = []
    for node in ast.parse(source).body:
        owner = getattr(node, "name", "<module>")
        if only is not None and isinstance(node, DEFS) and owner not in only:
            continue
        found += [(owner, name) for name in _reads(node, READ_ONLY_IN)
                  if not (isinstance(node, ast.FunctionDef) and owner in READ_ONLY_IN[name])]
    return found


def test_scan_sees_a_second_solve_or_dot_product():
    source = ("def preimage(cx, p, y):\n    return linalg.solve(cx.matrix(p), 3, y)\n"
              "def trivialize(alg, om):\n    return linalg.solve(rows, 3, rhs)\n"
              "class FAComplex:\n    def values(self, x):\n        return apply_rows(x, x, 1)\n"
              "def coboundary_at(cx, x):\n    return apply_rows(cx.rows, x, cx.d)\n"
              "SOLVE = solve\n")
    assert reads_outside_their_function(source) == [("trivialize", "solve"),
                                                    ("FAComplex", "apply_rows"),
                                                    ("<module>", "solve")]
    assert reads_outside_their_function(source, {"preimage", "trivialize"}) == [
        ("trivialize", "solve"), ("<module>", "solve")]


@pytest.mark.parametrize("path", COHOMOLOGY_MODULES, ids=lambda p: p.name)
def test_one_solve_and_one_dot_product_per_job(path):
    assert reads_outside_their_function(path.read_text()) == []


def test_the_cohomology_claims_keep_one_solve_and_one_dot_product():
    source = (SRC / "claims.py").read_text()
    assert reads_outside_their_function(source, COHOMOLOGY_CLAIMS) == []


def test_the_solve_and_the_dot_product_are_in_the_tree():
    defined = {node.name for path in COHOMOLOGY_MODULES
               for node in ast.parse(path.read_text()).body if isinstance(node, ast.FunctionDef)}
    assert set().union(*READ_ONLY_IN.values()) <= defined
    claims = ast.parse((SRC / "claims.py").read_text()).body
    assert COHOMOLOGY_CLAIMS <= {node.name for node in claims if isinstance(node, DEFS)}


# ---------------------------------------------------------------------------
# one table build per complex: the builders of a complex's tables are read
# only by the constructor that memoizes them, so no entry point rebuilds them
# ---------------------------------------------------------------------------

TABLES_READ_ONLY_IN = {"_fa_tables": "FAComplex", "_fa_actions": "_fa_tables",
                       "_unimodular": "CEComplex"}


def table_builds_outside_their_owner(source, owners=TABLES_READ_ONLY_IN):
    """(enclosing module-level definition, name) of every read of a name of
    owners (by default the table builders), called or handed on, as a name
    or an attribute, outside the one definition allowed to read it
    ("<module>" for a read at module level)."""
    found = []
    for node in ast.parse(source).body:
        owner = getattr(node, "name", "<module>")
        found += [(owner, name) for name in _reads(node, owners) if owner != owners[name]]
    return found


def test_scan_sees_tables_built_outside_their_constructor():
    source = ("class FAComplex(LeibnizComplex):\n"
              "    def __init__(self, fa, kind):\n"
              "        self.tables = fa.memoized(kind, partial(_fa_tables, fa, kind))\n"
              "def _fa_tables(fa, kind):\n    return _fa_actions(fa, kind)\n"
              "def _apply(fa, kind):\n    return _fa_tables(fa, kind)\n"
              "def cohomology_dims(alg, p):\n    return cohomology._unimodular(alg)\n"
              "TABLES = _fa_actions\n")
    assert table_builds_outside_their_owner(source) == [
        ("_apply", "_fa_tables"), ("cohomology_dims", "_unimodular"), ("<module>", "_fa_actions")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_tables_are_built_by_their_constructor(path):
    assert table_builds_outside_their_owner(path.read_text()) == []


def test_the_table_builders_are_in_the_tree():
    defined = {node.name for path in MODULES for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert set(TABLES_READ_ONLY_IN) | set(TABLES_READ_ONLY_IN.values()) <= defined


# ---------------------------------------------------------------------------
# the complement-ranking kernel is read by the ranking driver alone: it
# needs delta^2 = 0, which `complex_dims` establishes through `cx.closed`
# ---------------------------------------------------------------------------

KERNEL_READ_ONLY_IN = {"complement_rank": "complex_dims"}


def test_scan_sees_the_complement_kernel_outside_the_driver():
    source = ("def complex_dims(cx, p_max):\n"
              "    return linalg.complement_rank(cx.matrix(0), set())\n"
              "def rank_all(cx):\n    return complement_rank(cx.matrix(1), ())\n"
              "class FAComplex:\n    kernel = staticmethod(linalg.complement_rank)\n"
              "RANK = complement_rank\n")
    assert table_builds_outside_their_owner(source, KERNEL_READ_ONLY_IN) == [
        ("rank_all", "complement_rank"), ("FAComplex", "complement_rank"),
        ("<module>", "complement_rank")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_the_complement_kernel_is_read_by_complex_dims_alone(path):
    assert table_builds_outside_their_owner(path.read_text(), KERNEL_READ_ONLY_IN) == []


def test_the_complement_kernel_and_its_driver_are_in_the_tree():
    defined = {path.name: {node.name for node in ast.parse(path.read_text()).body
                           if isinstance(node, ast.FunctionDef)} for path in MODULES}
    assert "complement_rank" in defined["linalg.py"] and "complex_dims" in defined["cohomology.py"]


# ---------------------------------------------------------------------------
# one argument parser per process: `argparse.ArgumentParser` is read only by
# the cached builder `cli._parser`, so no entry point builds a second one
# ---------------------------------------------------------------------------

PARSER_BUILDER = ("cli.py", "_parser")


def parser_builds_outside_the_builder(source, filename):
    """(file, enclosing module-level definition) of every read of
    `ArgumentParser`, as a name or an attribute, outside `cli._parser`
    ("<module>" for a read at module level)."""
    found = []
    for node in ast.parse(source).body:
        owner = getattr(node, "name", "<module>")
        if (filename, owner) != PARSER_BUILDER:
            found += [(filename, owner) for _ in _reads(node, {"ArgumentParser"})]
    return found


def test_scan_sees_a_parser_built_outside_the_builder():
    source = ("@cache\ndef _parser():\n    return argparse.ArgumentParser(prog='naryalg')\n"
              "def main(argv=None):\n    return ArgumentParser().parse_args(argv)\n"
              "PARSER = argparse.ArgumentParser\n")
    assert parser_builds_outside_the_builder(source, "cli.py") == [("cli.py", "main"),
                                                                   ("cli.py", "<module>")]
    assert parser_builds_outside_the_builder(source, "algfile.py") == [
        ("algfile.py", "_parser"), ("algfile.py", "main"), ("algfile.py", "<module>")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_the_parser_is_built_by_its_cached_builder_alone(path):
    assert parser_builds_outside_the_builder(path.read_text(), path.name) == []


def test_the_cached_parser_builder_is_in_the_tree():
    filename, name = PARSER_BUILDER
    builder = [node for node in ast.parse((SRC / filename).read_text()).body
               if isinstance(node, ast.FunctionDef) and node.name == name]
    assert len(builder) == 1
    assert [d.id for d in builder[0].decorator_list if isinstance(d, ast.Name)] == ["cache"]
    assert _reads(builder[0], {"ArgumentParser"})


# ---------------------------------------------------------------------------
# the claim layer stays out of the eager import path: no other module imports
# `claims`, no top-level name is defined both there and in another module,
# and the modules that every process compiles stay within a node budget
# ---------------------------------------------------------------------------

CLAIMS = SRC / "claims.py"
EAGER = [path for path in MODULES if path != CLAIMS]
# compile time follows the AST nodes, `sum(1 for _ in ast.walk(tree))`
EAGER_NODE_BUDGET = 31_931


def claims_imports(source):
    """The line of every import of the package's `claims` module, relative
    or by the package's name, and of every string that names it
    (`importlib`)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(a.name.split(".")[:2] == ["naryalg", "claims"] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:  # by name: naryalg or naryalg.<module>
                if module.partition(".")[0] != "naryalg":
                    continue
                module = module.partition(".")[2]
            hit = (module.partition(".")[0] == "claims" if module
                   else any(a.name == "claims" for a in node.names))
        else:
            hit = isinstance(node, ast.Constant) and node.value in ("naryalg.claims", ".claims")
        if hit:
            found.append(node.lineno)
    return sorted(found)


def top_level_names(source):
    """Every name a module binds at its top level by a def, a class or an
    assignment (an import binds no definition)."""
    body = ast.parse(source).body
    return ({node.name for node in body if isinstance(node, DEFS)}
            | {name for node in body for name in assigned_names(node)})


def node_count(source):
    return sum(1 for _ in ast.walk(ast.parse(source)))


def test_scan_sees_an_import_of_the_claims():
    source = ("from . import claims\nfrom .claims import gauge_algebra\n"
              "import naryalg.claims as c\nfrom naryalg import claims, lie\n"
              "from naryalg.claims import vector_product\n"
              "def f():\n    from .claims import direct_sum\n"
              "    return importlib.import_module('naryalg.claims')\n"
              "from .lie import claims_table\nfrom . import cohomology\nimport claims\n"
              "from .cohomology import claims\n")
    assert claims_imports(source) == [1, 2, 3, 4, 5, 7, 8]


def test_scan_sees_a_name_defined_twice():
    claims = "def gauge_algebra(fa, g):\n    pass\nclass GaugeAlgebra:\n    pass\nX = 1\n"
    eager = ("from .lie import gauge_algebra\ndef _kernel(m):\n    pass\n"
             "class GaugeAlgebra:\n    pass\nX: int = 2\n")
    assert top_level_names(claims) & top_level_names(eager) == {"GaugeAlgebra", "X"}


def test_scan_counts_every_node():
    assert node_count("x = 1\n") == 5  # Module, Assign, Name, its Store context, Constant


@pytest.mark.parametrize("path", EAGER, ids=lambda p: p.name)
def test_no_eager_module_imports_the_claims(path):
    assert claims_imports(path.read_text()) == []


def test_every_claim_is_defined_in_claims_alone():
    eager = set().union(*(top_level_names(path.read_text()) for path in EAGER))
    assert top_level_names(CLAIMS.read_text()) & eager == set()


def test_the_eager_modules_stay_within_their_node_budget():
    assert sum(node_count(path.read_text()) for path in EAGER) <= EAGER_NODE_BUDGET


def test_importing_every_other_module_leaves_the_claims_unloaded():
    script = "".join(f"import naryalg.{path.stem}\n" for path in EAGER if path.stem != "__init__")
    script += ("import sys\nprint('naryalg.claims' in sys.modules)\n"
               "import naryalg.claims\nprint('naryalg.claims' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True)
    assert "import naryalg.cli\n" in script and out.stdout.split() == ["False", "True"]
