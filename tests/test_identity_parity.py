"""Parity of the identity scans with the scans they replaced.

`lie.check_jacobi`, the three forms of `filippov.check_fi`, `lie.killing_form`,
`lie.check_metric_invariance` and the invariance scan of
`filippov.check_metric_fa` (both `lie.metric_scan`) read whole signed rows of the
integer-scaled constants; their references in `dense_reference` read one
`c_get`/`f_row` at a time on `Fraction` constants.  `check_jacobi` reads the
arity-2 residual of `tensors.nested_bracket_residuals`, so the first failing
triple and its least s must come out of the whole residual as the reference
scan finds them.  Random bracket tables --
arity 2 to 5, dimension up to 6, keys in any index order, values with
denominators, most of them failing their identity -- the catalog algebras
and their corrupted copies go into both sides, which must give equal
reports: the same verdict and the same witness.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import dense_reference as ref
from naryalg.catalog import (a4, a5, a13, corrupted, euclidean_rotations_2d, heisenberg, nhw,
                             r2_abelian, su)
from naryalg import linalg
from naryalg.claims import inder_lie_algebra
from naryalg.filippov import FI_FORMS, FilippovAlgebra, check_fi, check_metric_fa, simple_fa
from naryalg.lie import LieAlgebra, check_jacobi, check_metric_invariance, killing_form
from naryalg.scalars import GaussianRational

values = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def bracket_tables(draw, arities=st.integers(2, 5)):
    """(arity, dim, {lower index tuple in any order: {j: value}})."""
    n = draw(arities)
    d = draw(st.integers(max(n, 3), 6))
    keys = list(combinations(range(1, d + 1), n))
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, min_size=min(len(keys), 3),
                           max_size=min(len(keys), 8)))
    return n, d, {tuple(draw(st.permutations(key))):
                  draw(st.dictionaries(st.integers(1, d), values, min_size=1, max_size=3))
                  for key in chosen}


@st.composite
def symmetric_forms(draw, d):
    """A d x d symmetric matrix of small rationals, mostly zero."""
    g = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            if draw(st.integers(0, 2)) == 0:
                g[i][j] = g[j][i] = draw(values)
    return g


@settings(max_examples=150, deadline=None)
@given(bracket_tables())
def test_fi_forms_equal_the_reference_scans(table):
    fa = FilippovAlgebra(*table)
    for form in FI_FORMS:
        assert check_fi(fa, form) == ref.FI_REFERENCE[form](fa)


def lie_metric_reports(alg, g):
    """(invariance, nondegenerate), the two reports the reference scan gives."""
    return check_metric_invariance(alg, g), linalg.nondegenerate(g)


@settings(max_examples=100, deadline=None)
@given(bracket_tables(st.just(2)), st.data())
def test_lie_scans_equal_the_reference_scans(table, data):
    _, d, c = table
    alg = LieAlgebra(d, c)
    assert check_jacobi(alg) == ref.check_jacobi(alg)
    k = killing_form(alg)
    assert k == ref.killing_form_by_rows(alg)
    for g in (k, data.draw(symmetric_forms(d))):
        assert lie_metric_reports(alg, g) == ref.check_metric_invariance(alg, g)


LIE = {"su2": lambda: su(2), "su3": lambda: su(3), "su4": lambda: su(4),
       "heisenberg": heisenberg, "e2": euclidean_rotations_2d, "r2": r2_abelian,
       "inder-a4": lambda: inder_lie_algebra(a4()).lie}
FILIPPOV = {"a4": a4, "a13": a13, "a5": a5, "a6": lambda: simple_fa(5, [1] * 6),
            "a1,4": lambda: simple_fa(4, [-1, 1, 1, 1, 1]), "nhw1": lambda: nhw(1),
            "nhw2": lambda: nhw(2)}


# the Jacobi identity is vacuous below three dimensions: r2 has no corrupted copy
LIE_CASES = [(name, False) for name in sorted(LIE)] + [(name, True) for name in sorted(LIE)
                                                      if name != "r2"]


@pytest.mark.parametrize("name,corrupt", LIE_CASES)
def test_lie_catalog_scans_equal_the_reference_scans(name, corrupt):
    alg = corrupted(LIE[name]()) if corrupt else LIE[name]()
    rep = check_jacobi(alg)
    assert rep == ref.check_jacobi(alg)
    assert rep.ok != corrupt
    k = killing_form(alg)
    assert k == ref.killing_form_by_rows(alg)
    unit = [[Fraction(int(i == j)) for j in range(alg.dim)] for i in range(alg.dim)]
    for g in (k, unit):
        assert lie_metric_reports(alg, g) == ref.check_metric_invariance(alg, g)


# Jacobi-failing inputs with their witnesses, pinned: the corrupted su(3)
# witness is the CLI record of `tests/test_cli.py`; the planted [X_2, X_3] =
# X_2 on the Heisenberg algebra leaves the residual nonzero at s = 3 alone;
# [X_2, X_4] = X_2 planted on [X_2, X_3] = X_4 first fails at the last triple
JACOBI_FAILING = {
    "corrupted-su3": (lambda: corrupted(su(3)), (1, 2, 3, 4)),
    "corrupted-su4": (lambda: corrupted(su(4)), (1, 2, 3, 4)),
    "heisenberg-planted": (lambda: LieAlgebra.from_entries(
        3, [((1, 2, 3), 1), ((2, 3, 2), 1)]), (1, 2, 3, 3)),
    "late-triple": (lambda: LieAlgebra.from_entries(
        4, [((2, 3, 4), 1), ((2, 4, 2), 1)]), (2, 3, 4, 4)),
}


@pytest.mark.parametrize("name", list(JACOBI_FAILING))
def test_jacobi_witness_through_the_shared_kernel_is_the_reference_witness(name):
    make, witness = JACOBI_FAILING[name]
    alg = make()
    rep = check_jacobi(alg)
    assert rep == ref.check_jacobi(alg)
    assert (rep.ok, rep.witness) == (False, witness)


@pytest.mark.parametrize("name,corrupt", LIE_CASES)
def test_gaussian_metric_scans_equal_the_reference_scan(name, corrupt):
    # g = c k for Gaussian c, and k plus an imaginary part with denominators
    # that only the imaginary half of the scan can find not invariant
    alg = corrupted(LIE[name]()) if corrupt else LIE[name]()
    k = killing_form(alg)
    d = alg.dim
    mixed = [[k[i][j] + GaussianRational(0, Fraction((i + 1) * (j + 1) % 3, 2))
              for j in range(d)] for i in range(d)]
    for c in (GaussianRational(0, Fraction(2, 3)), GaussianRational(Fraction(1, 2), 5)):
        g = [[c * v for v in row] for row in k]
        assert lie_metric_reports(alg, g) == ref.check_metric_invariance(alg, g)
    assert lie_metric_reports(alg, mixed) == ref.check_metric_invariance(alg, mixed)


def metric_fa_report(fa, g):
    return check_metric_fa(fa, g), linalg.nondegenerate(g)


@settings(max_examples=100, deadline=None)
@given(bracket_tables(st.integers(3, 4)), st.data())
def test_filippov_metric_scan_equals_the_reference_scan(table, data):
    fa = FilippovAlgebra(*table)
    for g in (linalg.identity(fa.dim), data.draw(symmetric_forms(fa.dim))):
        assert metric_fa_report(fa, g) == ref.metric_fa_scan(fa, g)


@pytest.mark.parametrize("corrupt", [False, True], ids=["catalog", "corrupted"])
@pytest.mark.parametrize("name", sorted(FILIPPOV))
def test_filippov_catalog_metric_scans_equal_the_reference_scan(name, corrupt):
    # the unit, a Lorentzian and a Gaussian metric with denominators
    fa = corrupted(FILIPPOV[name]()) if corrupt else FILIPPOV[name]()
    d = fa.dim
    lorentz = linalg.identity(d)
    lorentz[0][0] = Fraction(-1)
    gaussian = [[GaussianRational(int(i == j), Fraction((i + 1) * (j + 1) % 3, 2))
                 for j in range(d)] for i in range(d)]
    for g in (linalg.identity(d), lorentz, gaussian):
        assert metric_fa_report(fa, g) == ref.metric_fa_scan(fa, g)


@pytest.mark.parametrize("corrupt", [False, True], ids=["catalog", "corrupted"])
@pytest.mark.parametrize("name", sorted(FILIPPOV))
def test_filippov_catalog_scans_equal_the_reference_scans(name, corrupt):
    fa = corrupted(FILIPPOV[name]()) if corrupt else FILIPPOV[name]()
    for form in FI_FORMS:
        rep = check_fi(fa, form)
        assert rep == ref.FI_REFERENCE[form](fa)
        assert rep.ok != corrupt
