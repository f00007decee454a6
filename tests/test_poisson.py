import random
from fractions import Fraction
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from naryalg.catalog import a4, a5, a13, nhw, su, su3_five_cocycle
from naryalg.claims import (append_center, direct_sum, graded_jacobi_residual,
                            hamiltonian_derivation_residual, nambu_bracket, nambu_fi_residual,
                            nambu_leibniz_residual, nhw_realization_check, np_even_implies_gps)
from naryalg.poisson import (Decomposition, PluckerViolation, bracket_multivector,
                             decompose_constant, gps_check, lie_poisson_bivector,
                             linear_gps_from_cocycle, np_check, schouten_bracket, wedge_vectors)
from naryalg.poly import Poly
from naryalg.tensors import AntisymTensor, merge_sign, shuffle_splits, sort_sign, wedge


def multivector(order, m, comps):
    """An order-p multivector field on R^m: Poly components, zero Poly reads."""
    return AntisymTensor(order, m, comps, Poly.zero(m))


def random_poly(rng, m, degree=2, terms=3):
    return Poly(m, {tuple(rng.randint(0, degree) if rng.random() < 0.5 else 0
                          for _ in range(m)): Fraction(rng.randint(-3, 3))
                    for _ in range(terms)})


def random_multivector(rng, order, m, keys=3):
    """Components on unsorted index tuples, so the constructor's signs and
    sums take part."""
    comps = {}
    for _ in range(keys):
        idx = list(rng.choice(list(combinations(range(1, m + 1), order))))
        rng.shuffle(idx)
        comps[tuple(idx)] = random_poly(rng, m)
    return multivector(order, m, comps)


# ---------------------------------------------------------------------------
# reference loops: the wedge and Schouten bracket as first written, each
# accumulating its components by hand
# ---------------------------------------------------------------------------

def reference_wedge(a, b):
    comps = {}
    for ka, pa in a.entries.items():
        for kb, pb in b.entries.items():
            if set(ka) & set(kb):
                continue
            key = tuple(sorted(ka + kb))
            q = pa * pb * merge_sign(ka, kb)
            cur = comps.get(key)
            q = q if cur is None else cur + q
            if q.is_zero():
                comps.pop(key, None)
            else:
                comps[key] = q
    return multivector(a.rank + b.rank, a.dim, comps)


def reference_schouten(a, b):
    p, q = a.rank, b.rank
    m = a.dim
    out_order = p + q - 1
    comps = {}

    def add(key, poly):
        if poly.is_zero():
            return
        cur = comps.get(key)
        poly = poly if cur is None else cur + poly
        if poly.is_zero():
            comps.pop(key, None)
        else:
            comps[key] = poly

    for kk in combinations(range(1, m + 1), out_order):
        tot = Poly.zero(m)
        for (bi, bj), sign in shuffle_splits(kk, [p - 1, q]):
            for nu in range(1, m + 1):
                av = a.get((nu,) + bi)
                if av.is_zero():
                    continue
                dv = b.get(bj).diff(nu)
                if not dv.is_zero():
                    tot = tot + av * dv * sign
        for (bi, bj), sign in shuffle_splits(kk, [p, q - 1]):
            for nu in range(1, m + 1):
                bv = b.get((nu,) + bj)
                if bv.is_zero():
                    continue
                dv = a.get(bi).diff(nu)
                if not dv.is_zero():
                    tot = tot + bv * dv * sign * ((-1) ** p)
        add(kk, tot)
    return multivector(out_order, m, comps)


def reference_np_algebraic(lam):
    """(ok, first failing (it, jt)) of the algebraic Nambu-Poisson condition
    Sigma + P(Sigma) = 0, multiplying two components afresh for every tuple
    pair, as np_check first did."""
    n, m = lam.rank, lam.dim

    def get(idx):
        v = lam.get(idx)
        return None if v.is_zero() else v

    def sigma(it, jt):
        tot = None
        a = get(it)
        if a is not None:
            b = get(jt)
            if b is not None:
                tot = a * b
        head, pivot = it[:n - 1], it[n - 1]
        for k in range(n):
            a = get(head + (jt[k],))
            if a is None:
                continue
            b = get(jt[:k] + (pivot,) + jt[k + 1:])
            if b is None:
                continue
            t = a * b
            tot = -t if tot is None else tot - t
        return tot

    for it in product(range(1, m + 1), repeat=n):
        for jt in product(range(1, m + 1), repeat=n):
            s1 = sigma(it, jt)
            s2 = sigma((jt[0],) + it[1:], (it[0],) + jt[1:])
            if s1 is None and s2 is None:
                continue
            tot = s1 if s2 is None else (s2 if s1 is None else s1 + s2)
            if not tot.is_zero():
                return False, (it, jt)
    return True, None


# ---------------------------------------------------------------------------
# the signed component read and the canonical form of fast-built Polys
# ---------------------------------------------------------------------------

def reference_get(lam, idx):
    """The component at a raw index tuple from its definition: sort, read,
    negate on an odd sign, zero on a repeat."""
    key, s = sort_sign(idx)
    p = lam.entries.get(key) if s else None
    if p is None:
        return Poly.zero(lam.dim)
    return p if s == 1 else -p


@pytest.mark.parametrize("which", ["su3-linear-4-vector", "random"])
def test_get_is_the_signed_component_read(which):
    if which == "random":
        lam = random_multivector(random.Random(7), 3, 6, keys=8)
    else:
        lam = linear_gps_from_cocycle(su(3), su3_five_cocycle())
    for length in range(5):
        for idx in product(range(1, lam.dim + 1), repeat=length):
            got = lam.get(idx)
            assert got == reference_get(lam, idx), idx
            # one object per raw tuple, and one negation per component
            assert lam.get(list(idx)) is got
            key, s = sort_sign(idx)
            if s and key in lam.entries:
                assert got is (lam.entries[key] if s == 1 else lam.get(key[1::-1] + key[2:]))


coefficients = st.one_of(st.fractions(max_denominator=6), st.integers(-3, 3))
exponents = st.tuples(*[st.integers(0, 2) for _ in range(3)])
polys = st.dictionaries(exponents, coefficients, max_size=4).map(lambda t: Poly(3, t))
bivectors = st.dictionaries(st.sampled_from([(1, 2), (2, 1), (1, 3), (3, 2), (2, 3)]),
                            polys, max_size=3).map(lambda c: multivector(2, 3, c))
vectors = st.dictionaries(st.sampled_from([(1,), (2,), (3,)]), polys,
                          max_size=3).map(lambda c: multivector(1, 3, c))


def assert_canonical(p):
    assert all(type(c) is Fraction and c != 0 for c in p.terms.values()), p.terms
    assert p == Poly(p.nvars, dict(p.terms))


@given(polys, polys, coefficients, bivectors, st.one_of(vectors, bivectors))
@settings(max_examples=60, deadline=None)
def test_fast_built_polys_are_canonical(a, b, c, lam, other):
    # every Poly built through the non-validating constructor, and every
    # result of the ring operations, keeps the constructor's canonical form
    built = []
    make = Poly.__dict__["_canonical"].__func__

    def spy(cls, nvars, terms):
        out = make(cls, nvars, terms)
        built.append(out)
        return out

    with mock.patch.object(Poly, "_canonical", classmethod(spy)):
        results = [a + b, a - b, a * b, a * c, c * a, a + c, c - a, -a,
                   a.diff(1), a.diff(3)]
        results += schouten_bracket(lam, other).entries.values()
        results += schouten_bracket(other, lam).entries.values()
        rep = gps_check(lam)
        results += [lam.get(idx) for idx in product(range(1, 4), repeat=2)]
    assert rep.snb_ok == rep.coords_ok
    for p in results + built:
        assert_canonical(p)


# ---------------------------------------------------------------------------
# Poisson and Nambu-Poisson verdicts on su(3)
# ---------------------------------------------------------------------------

def test_lie_poisson_bivector_of_su3_is_gps_and_np():
    lam = lie_poisson_bivector(su(3))
    assert lam.rank == 2 and lam.dim == 8
    assert gps_check(lam).ok
    rep = np_check(lam)
    assert rep.ok and rep.differential_witness is None


def test_linear_four_vector_of_su3_is_gps_but_not_np():
    lam = linear_gps_from_cocycle(su(3), su3_five_cocycle())
    assert lam.rank == 4
    assert gps_check(lam).ok
    rep = np_check(lam)
    assert not rep.ok
    assert rep.differential_witness is not None or rep.algebraic_witness is not None


def test_linear_gps_from_a_non_cocycle_raises():
    omega = su3_five_cocycle()
    bad = omega + AntisymTensor(5, 8, {(1, 2, 3, 4, 5): Fraction(1)})
    with pytest.raises(ValueError, match="input is not a cocycle"):
        linear_gps_from_cocycle(su(3), bad)


def test_np_witnesses_of_the_linear_four_vector_are_pinned():
    # both witnesses as found by the per-pair products of the first np_check
    lam = linear_gps_from_cocycle(su(3), su3_five_cocycle())
    rep = np_check(lam)
    assert rep.differential_witness == ((1, 2, 3), (1, 2, 4, 5))
    assert rep.algebraic_witness == ((1, 1, 2, 2), (3, 4, 5, 6))
    assert (rep.algebraic_ok, rep.algebraic_witness) == reference_np_algebraic(lam)


@pytest.mark.parametrize("seed", range(6))
def test_np_algebraic_condition_matches_the_reference_loop(seed):
    # these random polynomial 3-vectors on R^5 fail; wedges of constant
    # vectors on R^4 (decomposable, so Nambu-Poisson) pass
    rng = random.Random(200 + seed)
    if seed % 2:
        lam = random_multivector(rng, 3, 5, keys=rng.randint(4, 6))
    else:
        lam = wedge_vectors([[Fraction(rng.randint(-2, 2)) for _ in range(4)]
                             for _ in range(3)], 4)
    rep = np_check(lam)
    assert (rep.algebraic_ok, rep.algebraic_witness) == reference_np_algebraic(lam)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_np_algebraic_condition_of_four_vectors_matches_the_reference_loop(seed):
    # order 4, where rows of pairs whose it[1:3] repeats an index are skipped:
    # these random polynomial 4-vectors on R^6 fail (seed 7 past the skipped
    # rows), a wedge of constant vectors on R^4 passes after the full scan
    rng = random.Random(300 + seed)
    if seed:
        lam = random_multivector(rng, 4, 6, keys=rng.randint(2, 4))
    else:
        lam = wedge_vectors([[Fraction(rng.randint(-2, 2)) for _ in range(4)]
                             for _ in range(4)], 4)
    rep = np_check(lam)
    assert rep.algebraic_ok == (seed == 0)
    assert (rep.algebraic_ok, rep.algebraic_witness) == reference_np_algebraic(lam)


def test_a_non_jacobi_bivector_fails_both_forms_of_gps():
    # x3 d1^d2 + x2 d2^d3: {x1, {x2, x3}} + cycl. = -x3 != 0
    m = 3
    lam = multivector(2, m, {(1, 2): Poly.var(m, 3), (2, 3): Poly.var(m, 2)})
    rep = gps_check(lam)
    assert (rep.snb_ok, rep.coords_ok, rep.witness) == (False, False, (1, 2, 3))
    assert schouten_bracket(lam, lam).entries == {(1, 2, 3): Poly.var(m, 3) * -2}


def test_rank_zero_fields_are_rejected_with_their_rank():
    m = 3
    scalar = multivector(0, m, {(): Poly.var(m, 1)})
    vector = multivector(1, m, {(1,): Poly.var(m, 2)})
    calls = [lambda: schouten_bracket(scalar, scalar), lambda: schouten_bracket(vector, scalar),
             lambda: schouten_bracket(scalar, vector), lambda: gps_check(scalar),
             lambda: np_check(scalar)]
    for call in calls:
        with pytest.raises(ValueError, match="rank 0"):
            call()


# ---------------------------------------------------------------------------
# the graded Jacobi identity and the two products against their references
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_graded_jacobi_residual_vanishes(seed):
    rng = random.Random(seed)
    m = 3
    a, b, c = (random_multivector(rng, rng.randint(1, 2), m) for _ in range(3))
    assert graded_jacobi_residual(a, b, c).is_zero()


@pytest.mark.parametrize("seed", range(12))
def test_wedge_and_schouten_match_the_reference_loops(seed):
    rng = random.Random(100 + seed)
    m = 4
    p, q = rng.randint(1, 3), rng.randint(1, 3)
    a, b = random_multivector(rng, p, m), random_multivector(rng, q, m)
    got = wedge(a, b)
    assert got == reference_wedge(a, b)
    assert all(not v.is_zero() for v in got.entries.values())
    got = schouten_bracket(a, b)
    assert got == reference_schouten(a, b)
    assert all(not v.is_zero() for v in got.entries.values())


def test_wedge_drops_cancelling_components():
    m = 3
    one = Poly.const(m, 1)
    a = multivector(1, m, {(1,): one, (2,): one})
    b = multivector(1, m, {(1,): one, (2,): one})
    # (d1 + d2) ^ (d1 + d2) = d1^d2 + d2^d1 = 0
    assert wedge(a, b).entries == {}
    assert multivector(2, m, {(1, 2): one, (2, 1): one}).entries == {}


# ---------------------------------------------------------------------------
# decomposition of constant tensors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_decompose_constant_round_trips(seed):
    rng = random.Random(seed)
    m, n = 5, rng.randint(2, 3)
    vectors = [[Fraction(rng.randint(-2, 2)) for _ in range(m)] for _ in range(n)]
    t = wedge_vectors(vectors, m)
    entries = {k: p.eval([Fraction(0)] * m) for k, p in t.entries.items()}
    dec = decompose_constant(n, m, entries)
    assert isinstance(dec, Decomposition)
    if not entries:
        assert dec.vectors == [] and dec.scale == 0
        return
    back = wedge_vectors(dec.vectors, m).scale(dec.scale)
    assert {k: p.eval([Fraction(0)] * m) for k, p in back.entries.items()} == entries


def test_decompose_constant_names_a_plucker_violation():
    # d1^d2 + d3^d4 is not decomposable
    dec = decompose_constant(2, 4, {(1, 2): Fraction(1), (3, 4): Fraction(1)})
    assert isinstance(dec, PluckerViolation)


# ---------------------------------------------------------------------------
# Jacobian (Nambu) brackets and the Hamiltonian derivation property
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(3))
def test_jacobian_bracket_satisfies_the_fi_and_the_leibniz_rule(seed):
    # {f_1 f_2 f_3} = det(d f_i / d x_j) / e on R^3 is a Nambu bracket: the
    # fundamental identity holds and each slot is a derivation
    rng = random.Random(seed)
    fs = [random_poly(rng, 3) for _ in range(2)]
    gs = [random_poly(rng, 3) + Poly.var(3, i) for i in (1, 2, 3)]
    g, h = random_poly(rng, 3), random_poly(rng, 3) + Poly.var(3, 1)
    assert not nambu_bracket(gs).is_zero()
    for density in (Fraction(1), Fraction(-2, 3)):
        assert nambu_fi_residual(fs, gs, density).is_zero()
        for slot in range(3):
            assert nambu_leibniz_residual(gs, g, h, slot, density).is_zero()


def test_hamiltonian_flows_are_derivations_exactly_for_nambu_poisson():
    x = [Poly.var(8, i) for i in range(1, 9)]
    # the Lie-Poisson bracket of su(3): the Jacobi identity
    lam = lie_poisson_bivector(su(3))
    assert hamiltonian_derivation_residual(lam, [x[0] + x[3]], [x[1], x[2] * x[4]]).is_zero()
    # the linear 4-vector of the su(3) 5-cocycle is GPS but not Nambu-Poisson
    lin4 = linear_gps_from_cocycle(su(3), su3_five_cocycle())
    residual = hamiltonian_derivation_residual(lin4, x[:3], [x[0], x[1], x[3], x[4]])
    assert not residual.is_zero()


@pytest.mark.parametrize("n_blocks", [1, 2, 3])
def test_block_jacobians_realize_the_extended_abelian_algebra(n_blocks):
    # {x^a, y^b, z^c} = delta^{abc} on R^{3N}: the nhw(N) three-bracket
    assert nhw_realization_check(n_blocks)


def test_even_nambu_poisson_tensor_is_gps():
    assert np_even_implies_gps(lie_poisson_bivector(su(3)))
    with pytest.raises(ValueError, match="even order"):
        np_even_implies_gps(bracket_multivector(a4()))
    with pytest.raises(ValueError, match="Nambu-Poisson"):
        np_even_implies_gps(linear_gps_from_cocycle(su(3), su3_five_cocycle()))


# ---------------------------------------------------------------------------
# which Filippov algebras are linear Nambu-Poisson
# ---------------------------------------------------------------------------

# theory: for n >= 3 a Nambu-Poisson tensor is decomposable where it is
# nonzero (Alekseevsky-Guha 1996, Gautheron 1996), so the FI of an algebra
# does not make its linear tensor eta = f_{a..}^b x_b d_a^.. Nambu-Poisson.
# The five that are hold an n-vector in at most n + 1 directions, where
# every n-vector is decomposable; nhw(2) and A4 + A4 are not decomposable at a
# generic point and fail the algebraic condition.  None fails the
# differential condition.
NP_TABLE = {
    "a4": (a4, None),
    "a13": (a13, None),
    "nhw1": (lambda: nhw(1), None),
    "a4+center": (lambda: append_center(a4()), None),
    "a5": (a5, None),
    "nhw2": (lambda: nhw(2), ((1, 2, 3), (4, 5, 6))),
    "a4+a4": (lambda: direct_sum(a4(), a4()), ((1, 2, 3), (5, 6, 7))),
}


@pytest.mark.parametrize("name", list(NP_TABLE))
def test_linear_tensors_of_filippov_algebras_are_nambu_poisson_as_theory_says(name):
    build, witness = NP_TABLE[name]
    rep = np_check(bracket_multivector(build()))
    assert (rep.differential_ok, rep.differential_witness) == (True, None)
    assert (rep.algebraic_ok, rep.algebraic_witness) == (witness is None, witness)
