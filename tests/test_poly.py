from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from naryalg.poly import Poly


def poly_strategy(nvars=3, max_deg=3):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in range(nvars)])
    return st.dictionaries(exps, st.fractions(max_denominator=10), max_size=5) \
        .map(lambda t: Poly(nvars, t))


polys = poly_strategy()


def test_basic_construction():
    x = Poly.var(3, 1)
    y = Poly.var(3, 2)
    p = x * x + 2 * y - 3
    assert p.eval([Fraction(2), Fraction(1), Fraction(0)]) == 3
    assert p.degree() == 2


@given(polys, polys)
@settings(max_examples=50)
def test_mul_commutes(p, q):
    assert p * q == q * p


@given(polys, polys, polys)
@settings(max_examples=50)
def test_distributive(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys, polys)
@settings(max_examples=50)
def test_derivative_leibniz(p, q):
    for i in (1, 2, 3):
        assert (p * q).diff(i) == p.diff(i) * q + p * q.diff(i)


@given(polys)
@settings(max_examples=50)
def test_mixed_partials_commute(p):
    assert p.diff(1).diff(2) == p.diff(2).diff(1)


def test_derivative_examples():
    x, y = Poly.var(2, 1), Poly.var(2, 2)
    p = x * x * y
    assert p.diff(1) == 2 * x * y
    assert p.diff(2) == x * x


@given(polys)
@settings(max_examples=30)
def test_zero_and_negation(p):
    assert (p - p).is_zero()
    assert p + (-p) == Poly.zero(3)


def test_canonical_strips_zeros():
    p = Poly(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert (1, 0) not in p.terms and p.terms[(0, 1)] == 2


def test_a_negative_exponent_is_rejected():
    # packed exponent keys hold no negative digit
    with pytest.raises(ValueError, match=r"negative exponent in \(0, -1\)"):
        Poly(2, {(0, -1): Fraction(1)})
