"""Value semantics of the package's containers and reports: which of them
compare by value, what the comparison reads and ignores, and which are
immutable and hashable.  The parse fuzz compares `AlgebraFile`s, the parity
tests compare tensors, algebras, cochains and reports, and a memoized
`IdentityReport` is shared by every caller.  The catalog hands out copies
of what it keeps, the su(n) generator bases included: changing one result
changes no later call, and a copy runs no constructor."""

from fractions import Fraction

import pytest

from naryalg import catalog
from naryalg.algfile import AlgebraFile
from naryalg.cohomology import Cochain
from naryalg.filippov import FilippovAlgebra
from naryalg.gla import GLAlgebra
from naryalg.lie import LieAlgebra, sun_generators
from naryalg.nary_cohomology import LeibnizAlgebra, NCochain
from naryalg.poly import Poly
from naryalg.scalars import LinearForm
from naryalg.tensors import AntisymTensor, BracketTensor, IdentityReport


def test_algebra_files_compare_field_by_field():
    def lie_file(**kw):
        fields = dict(entries=[((1, 2), 3, Fraction(1))], metric=None) | kw
        return AlgebraFile("lie", 2, 3, "rational", **fields)

    assert lie_file() == lie_file()
    assert AlgebraFile.parse(lie_file().emit()) == lie_file()
    assert lie_file() != lie_file(entries=[((1, 2), 3, Fraction(2))])
    assert lie_file() != lie_file(metric=[[Fraction(int(i == j)) for j in range(3)]
                                          for i in range(3)])
    assert lie_file() != AlgebraFile("lie", 2, 3, "gaussian", lie_file().entries)
    assert lie_file() != AlgebraFile("lie", 2, 4, "rational", lie_file().entries)
    assert lie_file() != ("lie", 2, 3, "rational", lie_file().entries, None)


def test_antisym_tensors_compare_their_entries_and_ignore_zero():
    a = AntisymTensor(2, 3, {(1, 2): Fraction(1), (2, 3): Fraction(2)})
    assert a == AntisymTensor(2, 3, {(2, 1): Fraction(-1), (3, 2): -2, (1, 3): 0})
    assert a == AntisymTensor(2, 3, dict(a.entries), zero=Poly.zero(3))
    assert a != AntisymTensor(2, 3, {(1, 2): Fraction(1)})
    assert a != AntisymTensor(2, 4, dict(a.entries))
    assert AntisymTensor(1, 3, {}) != AntisymTensor(2, 3, {})
    # a cochain equals cochains only, not a bare tensor of the same entries
    cochain = Cochain(1, 2, 1, {(1, (1,)): Fraction(1)})
    assert cochain == Cochain(1, 2, 1, {(1, (1,)): 1})
    assert cochain != AntisymTensor(1, 2, {(1,): LinearForm({1: Fraction(1)})})


def test_algebras_compare_their_constants_metric_and_kind():
    lie = LieAlgebra(3, {(1, 2): {3: 1}, (2, 3): {1: 1}, (3, 1): {2: 1}})
    assert lie == LieAlgebra.from_entries(3, [((2, 1, 3), -1), ((2, 3, 1), 1), ((1, 3, 2), -1)])
    assert lie != LieAlgebra(3, {(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {2: 1}})
    assert lie != LieAlgebra(4, dict(lie.c))
    with_metric = LieAlgebra(3, dict(lie.c))
    with_metric.metric = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert lie != with_metric
    fa = FilippovAlgebra(3, 4, {(1, 2, 3): {4: 1}, (2, 3, 4): {1: -1}})
    assert fa == FilippovAlgebra(3, 4, {(3, 2, 1): {4: -1}, (2, 4, 3): {1: 1}})
    assert fa != FilippovAlgebra(3, 4, {(1, 2, 3): {4: 1}})
    # the same table under another kind is another algebra
    assert FilippovAlgebra(2, 3, dict(lie.c)) != lie
    assert lie != FilippovAlgebra(2, 3, dict(lie.c))
    with pytest.raises(TypeError):
        hash(lie)


def test_polys_cochains_and_leibniz_algebras_compare_by_value():
    p = Poly(2, {(1, 0): 2, (0, 1): 0})
    assert p == Poly(2, {(1, 0): Fraction(2)})
    assert p != Poly(3, {(1, 0, 0): 2})
    assert Poly.const(2, 3) == 3 and Poly.zero(2) == 0
    c = NCochain("trivial", 1, 3, 4, 1, {((2, 1, 3),): (1,), ((1, 2, 4),): (0,)})
    assert c == NCochain("trivial", 1, 3, 4, 1, {((1, 2, 3),): (-1,)})
    assert c != NCochain("trivial", 1, 3, 4, 1, {((1, 2, 3),): (1,)})
    assert c != NCochain("deformation", 1, 3, 4, 1, {((1, 2, 3),): (-1,)})
    lb = LeibnizAlgebra(3, {(2, 3): {1: 1}, (3, 3): {1: 1, 2: 0}, (1, 1): {}})
    assert lb == LeibnizAlgebra(3, {(2, 3): {1: Fraction(1)}, (3, 3): {1: Fraction(1)}})
    assert lb != LeibnizAlgebra(3, {(2, 3): {1: 1}})
    assert lb != LeibnizAlgebra(4, dict(lb.b))


def test_identity_reports_are_immutable_values():
    report = IdentityReport(False, ((1, 2, 3), 4))
    for name, value in (("ok", True), ("witness", None), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(report, name, value)
    with pytest.raises(AttributeError):
        del report.ok
    assert report == IdentityReport(False, ((1, 2, 3), 4))
    assert (report.ok, report.witness) == (False, ((1, 2, 3), 4))
    assert hash(report) == hash(IdentityReport(False, ((1, 2, 3), 4)))
    assert len({report, IdentityReport(False, ((1, 2, 3), 4)), IdentityReport(True)}) == 2
    assert report != IdentityReport(False, ((1, 2, 3), 5))
    assert report != (False, ((1, 2, 3), 4))
    assert not report and IdentityReport(True) and IdentityReport(True).witness is None


CACHED_ALGEBRAS = {"su2": lambda: catalog.su(2), "su3": lambda: catalog.su(3),
                   "su4": lambda: catalog.su(4), "su3-gla4": catalog.su3_gla4}
CACHED_COCYCLES = {"five": catalog.su3_five_cocycle, "three": catalog.su3_three_cocycle}


@pytest.mark.parametrize("make", CACHED_ALGEBRAS.values(), ids=CACHED_ALGEBRAS)
def test_changing_a_catalog_algebra_leaves_the_next_call_unchanged(make):
    first, want = make(), AlgebraFile.from_object(make()).emit()
    first.metric = [[Fraction(int(i == j)) for j in range(first.dim)] for i in range(first.dim)]
    key = min(first.c)
    row = first.c[key]
    j = min(row)
    value = row[j]
    row[j] = -value
    first.memoized("planted", lambda: "planted")
    fresh = make()
    assert fresh.metric is None and fresh.c[key][j] == value and "_memo" not in vars(fresh)
    assert AlgebraFile.from_object(fresh).emit() == want


@pytest.mark.parametrize("make", CACHED_COCYCLES.values(), ids=CACHED_COCYCLES)
def test_changing_a_catalog_cocycle_leaves_the_next_call_unchanged(make):
    first, want = make(), make()
    key = min(first.entries)
    first.entries[key] = -first.entries[key]
    del first.entries[max(first.entries)]
    assert make() == want and make().entries[key] == want.entries[key]


def test_catalog_copies_run_no_constructor(monkeypatch):
    warm = [make() for make in (*CACHED_ALGEBRAS.values(), *CACHED_COCYCLES.values())]

    def refuse(*args, **kwargs):
        raise AssertionError("a copy ran a constructor")

    for cls in (BracketTensor, LieAlgebra, GLAlgebra, AntisymTensor):
        monkeypatch.setattr(cls, "__init__", refuse)
    copies = [make() for make in (*CACHED_ALGEBRAS.values(), *CACHED_COCYCLES.values())]
    assert copies == warm and all(a is not b for a, b in zip(copies, warm))


@pytest.mark.parametrize("n", [2, 3])
def test_changing_a_catalog_basis_leaves_the_next_call_unchanged(n):
    want, alg_file = sun_generators(n), AlgebraFile.from_object(catalog.su(n)).emit()
    first = catalog.sun_basis(n)
    first.algebra.metric = [[Fraction(int(i == j)) for j in range(first.algebra.dim)]
                            for i in range(first.algebra.dim)]
    first.algebra.c[min(first.algebra.c)].clear()
    for mats in (first.rep.mats, first.hermitian, first.doubled):
        mats[0].clear()
    first.trace_norms[0] = 0
    fresh = catalog.sun_basis(n)
    assert catalog.su(n).metric is None and fresh.algebra.metric is None
    assert AlgebraFile.from_object(catalog.su(n)).emit() == alg_file
    assert fresh.algebra == want.algebra and fresh.rep.mats == want.rep.mats
    assert (fresh.hermitian, fresh.trace_norms, fresh.doubled) == (
        want.hermitian, want.trace_norms, want.doubled)
