"""Parity of the shuffle cache and the integer Poisson scans with the code
they replaced.

`tensors.shuffle_splits` reads (blocks, sign) lists cached per shape, and
`poisson.schouten_bracket`, `gps_check` and `np_check` read integer term
maps of D Lambda keyed by packed exponents, the bracket and the coordinates
condition scattered over pairs of entries; their references in
`dense_reference` derive the splits of every tuple afresh and scan every
sorted kk on `Fraction` Polys.  The splits must come out equal and in the
same order; the brackets must be equal, and the reports equal, witnesses
included, on random fields (of degree up to 4, so the packed keys carry
digits above 1) and on every Poisson tensor the benchmark builds.
"""

from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

import dense_reference as ref
from naryalg.catalog import su, su3_five_cocycle
from naryalg.claims import graded_jacobi_residual
from naryalg.poisson import (_add_sigma, _integer_table, _radix, _sigma_pairs, gps_check,
                             lie_poisson_bivector, linear_gps_from_cocycle, np_check,
                             schouten_bracket)
from naryalg.poly import Poly
from naryalg.tensors import AntisymTensor, shuffle_splits

# ---------------------------------------------------------------------------
# shuffle splits
# ---------------------------------------------------------------------------


def compositions(n):
    """Every composition of n into positive parts."""
    if n == 0:
        yield []
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield [first] + rest


def test_cached_shuffle_splits_equal_the_generator_on_every_composition():
    # len(m) = 7 and 8, and zero-size blocks, are left to the test below
    for n in range(7):
        m = tuple(range(3, 3 + 2 * n, 2))
        for sizes in compositions(n):
            assert shuffle_splits(m, sizes) == list(ref.shuffle_splits(m, sizes)), sizes


@st.composite
def split_shapes(draw):
    """(strictly increasing m, len(m) <= 8, a composition of len(m) that may
    hold zero-size blocks)."""
    n = draw(st.integers(0, 8))
    m = tuple(sorted(draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n, unique=True))))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    return m, [b - a for a, b in zip([0] + cuts, cuts + [n])]


@settings(max_examples=300, deadline=None)
@given(split_shapes())
def test_cached_shuffle_splits_equal_the_generator(shape):
    m, sizes = shape
    want = list(ref.shuffle_splits(m, sizes))
    assert shuffle_splits(m, sizes) == want
    # a second call reads the cached shape; a list m and tuple sizes read alike
    assert shuffle_splits(list(m), tuple(sizes)) == want


# ---------------------------------------------------------------------------
# the Poisson scans
# ---------------------------------------------------------------------------

coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


def components(m):
    """Polys on R^m of one or two linear or quadratic monomials with
    rational coefficients."""
    monomials = st.lists(st.integers(0, m - 1), min_size=1, max_size=2).map(
        lambda xs: tuple(xs.count(i) for i in range(m)))
    return st.dictionaries(monomials, coefficients, min_size=1, max_size=2).map(
        lambda terms: Poly(m, terms))


def higher_components(m):
    """Polys on R^m of one to three monomials of degree 2 to 4, exponents up
    to 4: packed keys with digits above 1, and products that need them."""
    monomials = st.lists(st.integers(0, m - 1), min_size=2, max_size=4).map(
        lambda xs: tuple(xs.count(i) for i in range(m)))
    return st.dictionaries(monomials, coefficients, min_size=1, max_size=3).map(
        lambda terms: Poly(m, terms))


@st.composite
def fields(draw, m=None, ranks=st.sampled_from([1, 2, 2, 3, 3, 4]), comps=components):
    """Multivector fields: f d_S on one key S (Nambu-Poisson, and Poisson
    of even order), or a sum over two to four keys (mostly failing), keys
    in any index order.  Rank 4 lives on R^6, with two components on
    4-planes meeting in a 2-plane, a sum that is not decomposable: the
    reference reads every Sigma pair of a field that passes the algebraic
    condition, which takes seconds there."""
    n = draw(ranks)
    if m is None:
        m = 6 if n == 4 else draw(st.integers(max(n, 2), 6))
    keys = list(combinations(range(1, m + 1), n))
    if n == 4 and m == 6:
        a = draw(st.sampled_from(keys))
        b = tuple(sorted(draw(st.permutations(a))[:2]
                         + draw(st.permutations([x for x in range(1, 7) if x not in a]))[:2]))
        chosen = [a, b] + draw(st.lists(st.sampled_from([k for k in keys if k not in (a, b)]),
                                        max_size=1))
    elif draw(st.integers(0, 2)) == 0:
        chosen = [draw(st.sampled_from(keys))]
    else:
        chosen = draw(st.lists(st.sampled_from(keys), min_size=min(2, len(keys)), max_size=4,
                               unique=True))
    return AntisymTensor(n, m, {tuple(draw(st.permutations(k))): draw(comps(m))
                                for k in chosen}, Poly.zero(m))


def assert_scans_equal_the_reference(lam):
    assert np_check(lam) == ref.np_check(lam)
    if lam.rank % 2 == 0:
        assert gps_check(lam) == ref.gps_check(lam)


def assert_bracket_equals_the_reference(a, b):
    got = schouten_bracket(a, b)
    assert got == ref.schouten_bracket(a, b)
    assert all(type(c) is Fraction for p in got.entries.values() for c in p.terms.values())


@settings(max_examples=60, deadline=None)
@given(fields(), st.data())
def test_poisson_scans_equal_the_reference_scans(lam, data):
    assert_scans_equal_the_reference(lam)
    assert_bracket_equals_the_reference(lam, lam)
    other = data.draw(fields(lam.dim, st.integers(1, min(3, lam.dim))))
    assert_bracket_equals_the_reference(lam, other)


@settings(max_examples=60, deadline=None)
@given(fields(comps=higher_components))
def test_scans_of_higher_degree_fields_equal_the_reference_scans(lam):
    # most of these fields fail: the gps witness is the least failing kk,
    # and the coordinates condition is -1/2 [Lambda, Lambda] entry by entry
    assert_scans_equal_the_reference(lam)
    if lam.rank % 2 == 0:
        assert gps_check(lam).witness == min(ref.schouten_bracket(lam, lam).entries, default=None)


@settings(max_examples=60, deadline=None)
@given(fields(ranks=st.sampled_from([1, 2, 3, 4]), comps=higher_components))
def test_self_brackets_of_even_and_odd_rank_equal_the_reference(lam):
    # the self-bracket scatters once and doubles for even rank, and
    # vanishes without a scatter for odd rank
    assert_bracket_equals_the_reference(lam, lam)
    if lam.rank % 2:
        assert schouten_bracket(lam, lam).is_zero()
    else:
        assert gps_check(lam) == ref.gps_check(lam)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_brackets_of_two_fields_of_different_ranks_equal_the_reference(data):
    m = data.draw(st.integers(2, 5))
    p, q = data.draw(st.lists(st.integers(1, min(3, m)), min_size=2, max_size=2, unique=True))
    a = data.draw(fields(m, st.just(p), higher_components))
    b = data.draw(fields(m, st.just(q), data.draw(st.sampled_from([components,
                                                                   higher_components]))))
    assert_bracket_equals_the_reference(a, b)
    assert_bracket_equals_the_reference(b, a)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_brackets_with_a_vector_field_equal_the_reference(data):
    m = data.draw(st.integers(2, 5))
    v = data.draw(fields(m, st.just(1), higher_components))
    a = data.draw(fields(m, st.integers(1, min(3, m)), higher_components))
    for x, y in ((v, v), (v, a), (a, v)):
        assert_bracket_equals_the_reference(x, y)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_graded_jacobi_residual_of_higher_degree_fields_is_zero(data):
    a, b, c = (data.draw(fields(3, st.integers(1, 2), higher_components)) for _ in range(3))
    assert graded_jacobi_residual(a, b, c).is_zero()


def test_poisson_scans_of_a_rank_4_nambu_poisson_field_equal_the_reference_scans():
    # f d_1^d_2^d_3^d_4 on R^4 passes both conditions: every pair is read
    m = 4
    lam = AntisymTensor(4, m, {(2, 1, 3, 4): Poly(m, {(1, 0, 2, 0): Fraction(3, 2),
                                                      (0, 1, 0, 0): Fraction(-1, 3)})},
                        Poly.zero(m))
    assert all(np_check(lam)) and gps_check(lam).ok
    assert_scans_equal_the_reference(lam)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_the_algebraic_scan_skips_only_pairs_that_read_zero(data):
    # every pair of a small field, in scan order: the scan keeps the pairs
    # in that order, and each pair it skips sums to zero
    n = data.draw(st.sampled_from([3, 3, 4]))
    m = data.draw(st.integers(3, 5) if n == 3 else st.just(4))
    lam = data.draw(fields(m, st.just(n)))
    _, table, _ = _integer_table(lam, _radix(lam))
    kept = [(it, jt) for it, jt, _, _ in _sigma_pairs(table, n, m)]
    assert kept == sorted(set(kept))
    kept = set(kept)
    for it, jt in product(product(range(1, m + 1), repeat=n), repeat=2):
        if (it, jt) not in kept:
            terms = {}
            _add_sigma(terms, table, n, it, jt)
            _add_sigma(terms, table, n, (jt[0],) + it[1:], (it[0],) + jt[1:])
            assert not terms, (it, jt)


BENCH_TENSORS = {
    "lie-su3": lambda: lie_poisson_bivector(su(3)),
    "lin4-su3": lambda: linear_gps_from_cocycle(su(3), su3_five_cocycle()),
    "lie-su4": lambda: lie_poisson_bivector(su(4)),
}


@pytest.mark.parametrize("name", sorted(BENCH_TENSORS))
def test_poisson_scans_of_the_bench_tensors_equal_the_reference_scans(name):
    lam = BENCH_TENSORS[name]()
    assert_scans_equal_the_reference(lam)
    assert_bracket_equals_the_reference(lam, lam)
