"""Parity of the invariant-polynomial -> cocycle -> GLA bridge with the
bodies it replaced.

`lie.check_invariance`, `lie.cocycle_from_invariant_poly`,
`lie.cocycle_condition_residual`, `lie.invariance_condition_residual`,
`lie.check_poly_vanishing_identity`, `gla.gla_from_cocycle` and
`tensors.nested_bracket_residuals` (under `check_gji` and `check_mgji`) run on
integer tables; their references in `dense_reference` sum `Fraction`
products with one sorting read per term.  Both sides must give `==`
outputs: the same cocycle entries and GLA constants as `Fraction`s, the same
witnesses, verdicts and exceptions.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import dense_reference as ref
from naryalg.catalog import sun_basis
from naryalg.claims import (check_poly_vanishing_identity, invariance_condition_residual,
                            symmetrized_product)
from naryalg.gla import GLAlgebra, check_gji, check_mgji, gla_from_cocycle
from naryalg.lie import (LieAlgebra, SymInvariantPoly, check_invariance,
                         cocycle_condition_residual, cocycle_from_invariant_poly,
                         killing_invariant_poly, symmetrized_trace_poly)
from naryalg.tensors import AntisymTensor, nested_bracket_residuals

values = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


def polynomial(n, m):
    """(su(n), its order-m invariant): the symmetrized trace, or the
    non-primitive Killing square for m = "kk"."""
    basis = sun_basis(n)
    if m == "kk":
        kf = killing_invariant_poly(basis.algebra)
        return basis.algebra, symmetrized_product(kf, kf)
    return basis.algebra, symmetrized_trace_poly(basis, m)


CASES = [(n, m) for n in (2, 3) for m in (2, 3, 4, "kk")]


@pytest.mark.parametrize("n,m", CASES, ids=[f"su{n}-{m}" for n, m in CASES])
def test_bridge_equals_the_reference_on_su2_and_su3(n, m):
    alg, k = polynomial(n, m)
    assert check_invariance(alg, k).ok
    assert ref.check_invariance(alg, k).ok
    om = cocycle_from_invariant_poly(alg, k)
    assert om == ref.cocycle_from_invariant_poly(alg, k)
    assert invariance_condition_residual(alg, om) is None
    assert ref.invariance_condition_residual(alg, om) is None
    assert all(type(v) is Fraction for v in om.entries.values())
    if m in (4, "kk"):
        assert om.is_zero()  # no primitive invariant of order 4 on su(2), su(3)
    g = gla_from_cocycle(alg, om)
    assert g == ref.gla_from_cocycle(alg, om)
    assert all(type(v) is Fraction for row in g.c.values() for v in row.values())


@st.composite
def lie_tables(draw):
    """(alg, n): su(n) for n = 2 or 3, or (a LieAlgebra on a random
    antisymmetric table, mostly failing Jacobi, None)."""
    if draw(st.booleans()):
        n = draw(st.sampled_from((2, 3)))
        return sun_basis(n).algebra, n
    d = draw(st.integers(2, 5))
    pairs = list(combinations(range(1, d + 1), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=len(pairs)))
    return LieAlgebra(d, {p: draw(st.dictionaries(st.integers(1, d), values, min_size=1,
                                                  max_size=2)) for p in chosen}), None


def perturbed(data, dim, rank, entries, distinct):
    """entries with one to three random sorted index tuples shifted by a
    random value."""
    out = dict(entries)
    for _ in range(data.draw(st.integers(1, 3))):
        key = tuple(sorted(data.draw(st.lists(st.integers(1, dim), min_size=rank,
                                              max_size=rank, unique=distinct))))
        out[key] = out.get(key, 0) + data.draw(values)
    return out


@settings(max_examples=60, deadline=None)
@given(lie_tables(), st.integers(2, 3), st.data())
def test_invariance_witness_equals_the_reference(table, m, data):
    # su(n) starts from its trace polynomial, random tables from zero
    alg, n = table
    start = symmetrized_trace_poly(sun_basis(n), m).terms if n else {}
    k = SymInvariantPoly(m, alg.dim, perturbed(data, alg.dim, m, start, distinct=False))
    rep = check_invariance(alg, k)
    assert rep == ref.check_invariance(alg, k)
    assert check_poly_vanishing_identity(alg, k) == ref.check_poly_vanishing_identity(alg, k)
    if not rep.ok:
        with pytest.raises(ValueError) as fast:
            cocycle_from_invariant_poly(alg, k)
        with pytest.raises(ValueError) as slow:
            ref.cocycle_from_invariant_poly(alg, k)
        assert str(fast.value) == str(slow.value)


@settings(max_examples=60, deadline=None)
@given(lie_tables(), st.integers(1, 5), st.data())
def test_cocycle_residual_witness_equals_the_reference(table, rank, data):
    # su(n) starts from its 3- or 5-cocycle, random tables from zero
    alg, n = table
    start = {}
    if n:
        m = data.draw(st.sampled_from((2, 3) if n == 3 else (2,)))
        start = cocycle_from_invariant_poly(alg, symmetrized_trace_poly(sun_basis(n), m)).entries
        rank = 2 * m - 1
    rank = min(rank, alg.dim)
    om = AntisymTensor(rank, alg.dim, perturbed(data, alg.dim, rank, start, distinct=True))
    wit = cocycle_condition_residual(alg, om)
    assert wit == ref.cocycle_condition_residual(alg, om)
    assert invariance_condition_residual(alg, om) == ref.invariance_condition_residual(alg, om)
    if wit is not None and rank % 2:
        for make in (gla_from_cocycle, ref.gla_from_cocycle):
            with pytest.raises(ValueError, match="not a cocycle"):
                make(alg, om)


def seeded_perturbation(k, seed):
    """k with three seeded multisets shifted by nonzero integers."""
    rng = random.Random(seed)
    terms = dict(k.terms)
    for _ in range(3):
        key = tuple(sorted(rng.choices(range(1, k.dim + 1), k=k.order)))
        terms[key] = terms.get(key, 0) + rng.choice((-2, -1, 1, 2))
    return SymInvariantPoly(k.order, k.dim, terms)


VANISHING = [(n, m) for n in (2, 3, 4) for m in ("killing", 3)]


@pytest.mark.parametrize("n,m", VANISHING, ids=[f"su{n}-{m}" for n, m in VANISHING])
def test_vanishing_identity_verdict_is_the_reference_on_sun(n, m):
    basis = sun_basis(n)
    alg = basis.algebra
    k = killing_invariant_poly(alg) if m == "killing" else symmetrized_trace_poly(basis, m)
    for seed, poly in [(None, k)] + [(s, seeded_perturbation(k, s)) for s in range(3)]:
        got = check_poly_vanishing_identity(alg, poly)
        assert got == ref.check_poly_vanishing_identity(alg, poly), seed
        if seed is None:
            assert got  # an invariant polynomial satisfies the identity


@st.composite
def gla_tables(draw, arity, d):
    keys = list(combinations(range(1, d + 1), arity))
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, min_size=1,
                           max_size=min(len(keys), 10)))
    return GLAlgebra(arity, d, {key: draw(st.dictionaries(st.integers(1, d), values, min_size=1,
                                                          max_size=3)) for key in chosen})


@settings(max_examples=80, deadline=None)
@given(st.integers(5, 6), st.sampled_from((2, 4)), st.sampled_from((2, 4)), st.data())
def test_nested_bracket_residuals_equal_the_reference(d, n1, n2, data):
    g1, g2 = data.draw(gla_tables(n1, d)), data.draw(gla_tables(n2, d))
    got = nested_bracket_residuals(g1.c, g2.c, d)
    assert got == ref.nested_bracket_residuals(g1.c, n1, g2.c, n2, d)
    assert check_gji(g1) == ref.check_gji(g1)
    assert check_mgji(g1, g2) == ref.check_mgji(g1, g2)


def test_su4_order_three_bridge_is_pinned():
    basis = sun_basis(4)
    om = cocycle_from_invariant_poly(basis.algebra, symmetrized_trace_poly(basis, 3))
    assert len(om.entries) == 179
    g = gla_from_cocycle(basis.algebra, om)
    assert sum(map(len, g.c.values())) == 895
    assert check_gji(g).ok
