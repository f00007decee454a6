"""Poincare duality of the trivial Chevalley-Eilenberg complex.

For a unimodular algebra (tr ad_X = 0 for every X) of dimension n, the
differential on C^p and the one on C^{n-1-p} have the same rank, so
`cohomology.cohomology_dims` ranks only the lower half of the trivial
complex.  These tests compare its reports field for field with
`dense_reference.cohomology_dims_all_degrees`, which ranks every degree, on
random antisymmetric tables (Jacobi or not, unimodular or not) and on the
catalog algebras; r2, [X_1, X_2] = X_2, is the non-unimodular control whose
H = 1, 1, 0 a mirror without the trace test would turn into 1, 2, 1.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import dense_reference as ref
from naryalg import linalg
from naryalg.catalog import heisenberg, r2_abelian, su
from naryalg.cohomology import CEComplex, coboundary_matrix, cohomology_dims
from naryalg.lie import LieAlgebra

values = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)


def traces(alg):
    """tr ad_{X_i} for i = 1..dim, from the diagonals of the ad matrices."""
    return [sum(v for (a, b), v in alg.ad_matrix(i).items() if a == b)
            for i in range(1, alg.dim + 1)]


def unimodular_copy(d, c):
    """The table c with C_{1d}^1 and C_{id}^d (i < d) shifted so that every
    trace vanishes: C_{1d}^1 enters tr ad_{X_d} alone, C_{id}^d tr ad_{X_i}
    alone."""
    c = {key: dict(row) for key, row in c.items()}
    tr = traces(LieAlgebra(d, c))
    row = c.setdefault((1, d), {})
    row[1] = row.get(1, 0) + tr[d - 1]
    for i in range(1, d):
        row = c.setdefault((i, d), {})
        row[d] = row.get(d, 0) - tr[i - 1]
    return LieAlgebra(d, c)


@st.composite
def tables(draw, unimodular):
    """A LieAlgebra on a random antisymmetric table of dimension 2..6,
    mostly failing Jacobi; forced unimodular when asked."""
    d = draw(st.integers(2, 6))
    pairs = list(combinations(range(1, d + 1), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    c = {p: draw(st.dictionaries(st.integers(1, d), values, min_size=1, max_size=3))
         for p in chosen}
    return unimodular_copy(d, c) if unimodular else LieAlgebra(d, c)


def ranks(alg, dim_v=1):
    cx = CEComplex(alg, None, dim_v)
    return [linalg.rank(coboundary_matrix(cx, p)[0]) for p in range(alg.dim)]


@settings(max_examples=60, deadline=None)
@given(st.booleans(), st.sampled_from((1, 2)), st.data())
def test_reports_equal_the_all_degree_reference(unimodular, dim_v, data):
    alg = data.draw(tables(unimodular))
    if unimodular:
        assert not any(traces(alg))
    p_max = data.draw(st.integers(0, alg.dim + 1))
    assert cohomology_dims(alg, None, p_max, dim_v) == \
        ref.cohomology_dims_all_degrees(alg, None, p_max, dim_v)


@settings(max_examples=40, deadline=None)
@given(tables(unimodular=True), st.sampled_from((1, 2)))
def test_mirrored_differentials_have_equal_rank(alg, dim_v):
    # the identity itself, on tables that need not satisfy Jacobi
    r = ranks(alg, dim_v)
    assert r == r[::-1]


def shear_copy(alg, rng, steps=12):
    """The copy of alg in the basis X'_j = sum_i P_ij X_i, P a product of
    elementary integer shears (det 1, so P^{-1} is integral too)."""
    d = alg.dim
    p = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(steps):
        i, j = rng.sample(range(d), 2)
        s = rng.choice((-1, 1))
        for row in p:
            row[j] += s * row[i]
    pinv = linalg.inverse([[Fraction(x) for x in row] for row in p])
    cols = [[p[r][j] for r in range(d)] for j in range(d)]
    entries = []
    for i, j in combinations(range(d), 2):
        w = alg.bracket(cols[i], cols[j])
        for k in range(d):
            v = sum(pinv[k][r] * w[r] for r in range(d))
            if v:
                entries.append(((i + 1, j + 1, k + 1), v))
    return LieAlgebra.from_entries(d, entries)


def r2():
    """The non-abelian two-dimensional algebra [X_1, X_2] = X_2."""
    return LieAlgebra.from_entries(2, [((1, 2, 2), Fraction(1))])


CATALOG = {
    "su2": (su(2), 4), "su3": (su(3), 8), "su4": (su(4), 3), "heisenberg": (heisenberg(), 4),
    "r2": (r2(), 3), "r2-abelian": (r2_abelian(), 3),
    "su3-shear": (shear_copy(su(3), random.Random(7)), 8),
}


@pytest.mark.parametrize("name", list(CATALOG))
@pytest.mark.parametrize("dim_v", [1, 2])
def test_catalog_reports_equal_the_all_degree_reference(name, dim_v):
    alg, p_max = CATALOG[name]
    assert cohomology_dims(alg, None, p_max, dim_v) == \
        ref.cohomology_dims_all_degrees(alg, None, p_max, dim_v)


def test_shear_copy_is_a_denser_su3():
    alg = CATALOG["su3-shear"][0]
    assert sum(map(len, alg.c.values())) > sum(map(len, su(3).c.values()))
    assert not any(traces(alg))
    h = cohomology_dims(alg, None, 8).dims_h
    assert [h[p] for p in range(9)] == [1, 0, 0, 1, 0, 1, 0, 0, 1]


def test_r2_is_not_unimodular_and_breaks_the_mirror():
    alg = r2()
    assert traces(alg) == [1, 0]
    assert ranks(alg) == [0, 1]  # rank s_0 != rank s_1: no mirror
    # the mirror applied without the trace test would take rank s_1 = 0
    # and report H = 1, 2, 1
    h = cohomology_dims(alg, None, 2).dims_h
    assert [h[p] for p in range(3)] == [1, 1, 0]


def test_adjoint_complex_ranks_every_degree():
    # a module complex of a unimodular algebra is not mirrored
    alg = su(2)
    rho = alg.adjoint_rep()
    assert cohomology_dims(alg, rho, 3) == ref.cohomology_dims_all_degrees(alg, rho, 3)
    h = cohomology_dims(alg, rho, 3).dims_h
    assert [h[p] for p in range(4)] == [0, 0, 0, 0]
