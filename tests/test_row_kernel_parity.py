"""Parity of the index-coded coboundary row kernels with the tuple-keyed
kernels they replaced (`dense_reference.ce_rows`, `fa_rows` and
`leibniz_rows`): the same rows, row for row, as {column: value} maps, on
every complex kind, and `coboundary_at` at points that are no key.  Then
delta_{p+1} delta_p = 0, exactly, on the assembled integer rows of every
kind, and a corrupted algebra breaks it."""

import random
from fractions import Fraction

import pytest

import dense_reference as dense
from naryalg.catalog import a4, a5, a13, corrupted, heisenberg, nhw, su
from naryalg.claims import direct_sum
from naryalg.cohomology import CEComplex
from naryalg.lie import LieAlgebra
from naryalg.nary_cohomology import (FAComplex, LeibnizComplex, NCochain, coboundary_at,
                                     module_keys, trivial_keys)
from naryalg.tensors import sort_blocks
from test_leibniz_complex import LEIBNIZ_COMPLEXES
from test_nary_cohomology import fa_shear_copy

KINDS = ("trivial", "module", "deformation")


def r2():
    """The non-unimodular two-dimensional algebra [X_1, X_2] = X_2."""
    return LieAlgebra.from_entries(2, [((1, 2, 2), Fraction(1))])


LIE = {"su2": lambda: su(2), "su3": lambda: su(3), "heisenberg": heisenberg, "r2": r2}
# (rho, dim_v) of each CE complex: the trivial module, Q^2 and the adjoint module
CE_MODULES = {"trivial": lambda alg: (None, 1), "trivial2": lambda alg: (None, 2),
              "adjoint": lambda alg: (alg.adjoint_rep(), alg.dim)}
FILIPPOV = {"a4": a4, "a13": a13, "a5": a5, "nhw1": lambda: nhw(1), "nhw2": lambda: nhw(2),
            "a4-shear": lambda: fa_shear_copy(a4(), random.Random(5)),
            "a4+a13": lambda: direct_sum(a4(), a13())}


def maps(rows):
    return [dict(row) for row in rows]


@pytest.mark.parametrize("module", sorted(CE_MODULES))
@pytest.mark.parametrize("name", sorted(LIE))
def test_ce_rows_are_the_keyed_rows(name, module):
    alg = LIE[name]()
    cx = CEComplex(alg, *CE_MODULES[module](alg))
    for p in range(alg.dim + 1):
        d, rows = dense.ce_rows(cx, p)
        assert d == cx.d and maps(cx.matrix(p)) == maps(rows), p


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(FILIPPOV))
def test_fa_rows_are_the_keyed_rows(name, kind):
    fa = FILIPPOV[name]()
    cx = FAComplex(fa, kind)
    for p in range(3):
        d, rows = dense.fa_rows(fa, kind, p)
        assert d == cx.d and maps(cx.matrix(p)) == maps(rows), p


def test_a_wider_trivial_complex_has_the_keyed_rows():
    fa = nhw(1)
    cx = FAComplex(fa, "trivial", size=3)
    for p in range(3):
        assert maps(cx.matrix(p)) == maps(dense.fa_rows(fa, "trivial", p, size=3)[1]), p


@pytest.mark.parametrize("name", sorted(LEIBNIZ_COMPLEXES))
def test_binary_rows_are_the_keyed_rows(name):
    lb, left, right, size = LEIBNIZ_COMPLEXES[name]()
    cx = LeibnizComplex(lb, left, right, size)
    for p in range(3):
        assert maps(cx.matrix(p)) == maps(dense.leibniz_rows(lb, left, right, size, p)), p


def raw_points(fa, kind, p, rng, count=60):
    """Points that are no key: blocks in any order (a repeated index now and
    then), and z below, inside or above the last block."""
    rng_z = range(1, fa.dim + 1)
    out = []
    for _ in range(count):
        blocks = [tuple(rng.sample(rng_z, fa.arity - 1)) for _ in range(p + 1)]
        if rng.random() < 0.1:
            blocks[-1] = (blocks[-1][0],) * (fa.arity - 1)
        out.append((blocks, None if kind == "module" else rng.choice(rng_z)))
    return out


def ref_coboundary_at(fa, kind, alpha, points):
    """`coboundary_at` on the keyed rows at the sorted points."""
    keys = module_keys if kind == "module" else trivial_keys
    x = {i * alpha.dim_v + a: v for i, key in enumerate(keys(fa, alpha.order))
         for a, v in enumerate(alpha.value(key))}
    out = []
    for blocks, z in points:
        xs, s = sort_blocks(blocks)
        if not s:
            out.append((0,) * alpha.dim_v)
            continue
        d, rows = dense.fa_rows(fa, kind, alpha.order, points=[(xs, z)])
        out.append(tuple(s * sum(v * x.get(c, 0) for c, v in row.items()) * Fraction(1, d)
                         for row in rows))
    return out


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", ["a4", "a5", "nhw1"])
def test_coboundary_at_points_that_are_no_key(name, kind):
    fa, rng = FILIPPOV[name](), random.Random(11)
    size = FAComplex(fa, kind).size
    keys = module_keys if kind == "module" else trivial_keys
    for p in range(3):
        alpha = NCochain(kind, p, fa.arity, fa.dim, size,
                         {key: tuple(rng.randint(-2, 2) for _ in range(size))
                          for key in rng.sample(keys(fa, p), min(6, len(keys(fa, p))))})
        points = raw_points(fa, kind, p, rng)
        assert coboundary_at(fa, kind, alpha, points) == ref_coboundary_at(fa, kind, alpha, points)


def test_a_point_outside_the_algebra_is_refused():
    alpha = NCochain("trivial", 0, 3, 4, 1, {(1,): (1,)})
    for z in (0, 5, None):
        with pytest.raises(ValueError, match="outside 1..4"):
            coboundary_at(a4(), "trivial", alpha, [([(1, 2)], z)])


# ---------------------------------------------------------------------------
# delta squares to zero on the assembled rows
# ---------------------------------------------------------------------------

def product_rows(upper, lower):
    """The nonzero rows of upper . lower, both sparse {column: int} rows."""
    out = []
    for row in upper:
        acc = {}
        for c, v in row.items():
            for k, w in lower[c].items():
                acc[k] = acc.get(k, 0) + v * w
        if any(acc.values()):
            out.append(acc)
    return out


def squares(cx, p_max=2):
    """delta_{p+1} delta_p on the integer rows of cx, for p = 0..p_max:
    the nonzero rows of each product."""
    return [product_rows(cx.matrix(p + 1), cx.matrix(p)) for p in range(p_max + 1)]


@pytest.mark.parametrize("module", sorted(CE_MODULES))
@pytest.mark.parametrize("name", ["su2", "su3", "heisenberg", "r2"])
def test_the_ce_coboundary_squares_to_zero(name, module):
    alg = LIE[name]()
    assert squares(CEComplex(alg, *CE_MODULES[module](alg))) == [[], [], []]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", ["a4", "a13", "nhw1", "a4-shear"])
def test_the_filippov_coboundaries_square_to_zero(name, kind):
    assert squares(FAComplex(FILIPPOV[name](), kind)) == [[], [], []]


@pytest.mark.parametrize("name", sorted(LEIBNIZ_COMPLEXES))
def test_the_binary_coboundary_squares_to_zero(name):
    assert squares(LeibnizComplex(*LEIBNIZ_COMPLEXES[name]())) == [[], [], []]


def test_a_corrupted_lie_algebra_does_not_square_to_zero():
    # (delta delta w)(X, Y, Z) = w(Jacobiator): zero on su(3), not on a copy
    # with one sign flipped
    bad = corrupted(su(3))
    assert [len(rows) for rows in squares(CEComplex(su(3)), 1)] == [0, 0]
    zero, once = squares(CEComplex(bad), 1)
    assert zero == [] and once


@pytest.mark.parametrize("kind", ["trivial", "deformation"])
def test_a_corrupted_filippov_algebra_does_not_square_to_zero(kind):
    # the fundamental identity is the Leibniz identity of L and its action:
    # a corrupted A4 breaks delta delta = 0 from degree 0 on
    bad = corrupted(a4())
    assert all(squares(FAComplex(bad, kind), 1))
