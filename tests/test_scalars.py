from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from naryalg.poly import Poly
from naryalg.scalars import (GaussianRational, I, LinearForm, accumulate, format_scalar,
                             parse_scalar)

rationals = st.fractions(max_denominator=50)
gaussians = st.builds(GaussianRational, rationals, rationals)


def test_basic_arithmetic():
    a = GaussianRational(Fraction(1, 2), Fraction(3, 4))
    b = GaussianRational(2, -1)
    assert a + b == GaussianRational(Fraction(5, 2), Fraction(-1, 4))
    assert a * I == GaussianRational(Fraction(-3, 4), Fraction(1, 2))
    assert I * I == -1
    assert (a / a) == 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


@given(gaussians, gaussians)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(gaussians, gaussians, gaussians)
def test_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(gaussians)
def test_conjugate_norm(a):
    n = a * a.conjugate()
    assert n.im == 0 and n.re >= 0


@given(gaussians)
def test_division_roundtrip(a):
    if a:
        assert (a * GaussianRational(2, 3)) / a == GaussianRational(2, 3)


@given(gaussians)
def test_parse_format_roundtrip_gaussian(a):
    assert parse_scalar(format_scalar(a)) == a


@given(rationals)
def test_parse_format_roundtrip_rational(q):
    out = parse_scalar(format_scalar(q))
    assert isinstance(out, Fraction) and out == q


def test_parse_examples():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("-2") == Fraction(-2)
    assert parse_scalar("1/2+3/4i") == GaussianRational(Fraction(1, 2), Fraction(3, 4))
    assert parse_scalar("1/2-3/4i") == GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert parse_scalar("0+1i") == I


# ---------------------------------------------------------------------------
# accumulate against "sum each key, then drop the zero sums"
# ---------------------------------------------------------------------------

small = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
                         Fraction(-1, 2), Fraction(2)])
keys = st.integers(min_value=0, max_value=3)


def linear_forms():
    return st.dictionaries(st.integers(0, 2), small).map(
        lambda d: LinearForm({k: v for k, v in d.items() if v != 0}))


def polys():
    return st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)), small).map(
        lambda d: Poly(2, d))


VALUES = {
    "fraction": small,
    "int": st.integers(-2, 2),
    "gaussian": st.builds(GaussianRational, small, small),
    "linear-form": linear_forms(),
    "poly": polys(),
}


def reference_accumulate(pairs):
    sums = {}
    for key, v in pairs:
        sums[key] = sums[key] + v if key in sums else v
    return {k: v for k, v in sums.items() if not v == 0}


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_accumulate_matches_sum_then_filter(kind):
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(keys, VALUES[kind]), max_size=12))
    def check(pairs):
        d = {}
        for key, v in pairs:
            accumulate(d, key, v)
        assert d == reference_accumulate(pairs)
        assert all(not v == 0 for v in d.values())

    check()


def test_accumulate_treats_an_empty_poly_and_form_as_zero():
    d = {"p": Poly.var(2, 1), "f": LinearForm({0: Fraction(1)})}
    accumulate(d, "p", Poly.var(2, 1) * -1)
    accumulate(d, "f", LinearForm({0: Fraction(-1)}))
    accumulate(d, "z", Poly.zero(2))
    accumulate(d, "z", LinearForm())
    assert d == {}
    assert not Poly.zero(2) and Poly.const(2, 3)
