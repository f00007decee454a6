import random
from fractions import Fraction
from itertools import combinations

import pytest

from naryalg import linalg
from naryalg.catalog import su, su3_five_cocycle, su3_gla4, su3_three_cocycle
from naryalg.claims import (GhostOperator, basis_one_form, brst_nilpotency, coderivation_apply,
                            coderivation_nilpotency, coderivation_on_multivector,
                            derivative_squared_vanishes, duality_factor_holds, evaluate_cochain,
                            ghost_operators, higher_exterior_derivative, leibniz_rule_holds,
                            multibracket, odd_arity_defect, ray_equal, resolve_even_bracket)
from naryalg.cohomology import Cochain, coboundary
from naryalg.gla import GLAlgebra, check_gji, check_mgji, gla_from_cocycle, lie_as_gla
from naryalg.lie import cocycle_from_invariant_poly, killing_invariant_poly
from naryalg.scalars import accumulate
from naryalg.tensors import AntisymTensor


def rmat(rng, n=3):
    """A random n x n sparse matrix with small integer `Fraction` values."""
    entries = {(i, j): Fraction(rng.randint(-3, 3)) for i in range(n) for j in range(n)}
    return {key: v for key, v in entries.items() if v}


# ---------------------------------------------------------------------------
# matrix multibrackets
# ---------------------------------------------------------------------------

def test_two_bracket_is_commutator():
    rng = random.Random(0)
    a, b = rmat(rng), rmat(rng)
    assert multibracket([a, b]) == linalg.sp_commutator(a, b)


def test_three_bracket_expansions():
    rng = random.Random(1)
    x1, x2, x3 = (rmat(rng) for _ in range(3))
    mb = multibracket([x1, x2, x3])
    mul, com = linalg.sp_mul, linalg.sp_commutator
    left = linalg.sp_sum([(1, mul(x1, com(x2, x3))), (-1, mul(x2, com(x1, x3))),
                          (1, mul(x3, com(x1, x2)))])
    right = linalg.sp_sum([(1, mul(com(x2, x3), x1)), (-1, mul(com(x1, x3), x2)),
                           (1, mul(com(x1, x2), x3))])
    assert mb == left and mb == right


def test_multibracket_fully_antisymmetric():
    rng = random.Random(2)
    ms = [rmat(rng) for _ in range(4)]
    base = multibracket(ms)
    swapped = multibracket([ms[1], ms[0], ms[2], ms[3]])
    assert swapped == linalg.sp_scale(-1, base)


def test_odd_arity_double_bracket_equals_n_times_full():
    rng = random.Random(4)
    ms = [rmat(rng) for _ in range(5)]
    lhs, rhs = odd_arity_defect(ms)
    assert lhs and lhs == rhs


def test_resolution_n4_has_six_ordered_terms():
    rng = random.Random(5)
    terms, acc = resolve_even_bracket([rmat(rng) for _ in range(4)])
    assert len(terms) == 6
    signs = sorted(s for s, _ in terms)
    assert signs == [-1, -1, 1, 1, 1, 1]


def test_resolution_n2_single_commutator():
    rng = random.Random(6)
    terms, _ = resolve_even_bracket([rmat(rng), rmat(rng)])
    assert terms == [(1, [(0, 1)])]


def test_resolution_matches_direct_on_random_matrices():
    rng = random.Random(7)
    resolve_even_bracket([rmat(rng) for _ in range(4)])  # asserts internally


# ---------------------------------------------------------------------------
# structure-constant identities
# ---------------------------------------------------------------------------

def test_gji_reduces_to_jacobi_at_arity_two():
    assert check_gji(lie_as_gla(su(3))).ok


def test_su3_four_bracket_satisfies_gji_and_mgji():
    g = su3_gla4()
    assert check_gji(g).ok
    assert check_mgji(lie_as_gla(su(3)), g).ok


def test_random_four_ary_tensor_fails_gji():
    # seven antisymmetrized indices need at least seven dimensions to bite
    rng = random.Random(8)
    ent = {idx: {j: Fraction(rng.randint(-3, 3)) for j in range(1, 8)
                 if rng.random() < 0.5}
           for idx in combinations(range(1, 8), 4)}
    rep = check_gji(GLAlgebra(4, 7, ent))
    assert not rep.ok and rep.witness is not None


def test_mgji_against_random_two_tensor_fails():
    rng = random.Random(9)
    g4 = su3_gla4()
    ent = {}
    for idx in combinations(range(1, 9), 2):
        ent[idx] = {j: Fraction(rng.randint(-2, 2)) for j in range(1, 9)
                    if rng.random() < 0.4}
    bad2 = GLAlgebra(2, 8, ent)
    assert not check_mgji(bad2, g4).ok


def test_gla_from_su2_three_cocycle_recovers_the_algebra():
    alg = su(2)
    om = cocycle_from_invariant_poly(alg, killing_invariant_poly(alg))
    g = gla_from_cocycle(alg, om)
    flat_g = {(k, j): v for k, row in g.c.items() for j, v in row.items()}
    flat_s = {(k, j): v for k, row in alg.c.items() for j, v in row.items()}
    assert ray_equal(flat_g, flat_s)


def test_gla_from_cocycle_rejects_non_cocycle():
    rng = random.Random(10)
    bad = AntisymTensor(5, 8, {idx: Fraction(rng.randint(1, 3))
                               for idx in combinations(range(1, 9), 5)})
    with pytest.raises((ValueError, AssertionError)):
        gla_from_cocycle(su(3), bad)


# ---------------------------------------------------------------------------
# coderivations
# ---------------------------------------------------------------------------

def test_coderivation_on_generic_algebra_matches_three_term_formula():
    # on the rotation-translation algebra the three-term expansion survives
    from naryalg.catalog import euclidean_rotations_2d
    g = lie_as_gla(euclidean_rotations_2d())
    out = coderivation_apply(g, (1, 2, 3))
    raw = {}
    for (pair, single), sign in [(((1, 2), 3), 1), (((1, 3), 2), -1), (((2, 3), 1), 1)]:
        for j, v in g.c.get(pair, {}).items():
            accumulate(raw, (j, single), sign * v)
    assert out == AntisymTensor(2, 3, raw)


def test_coderivation_nilpotent_su2():
    assert coderivation_nilpotency(lie_as_gla(su(2)))


def test_coderivation_s4_nilpotent_on_seven_monomials():
    assert coderivation_nilpotency(su3_gla4())


def test_coderivation_below_arity_is_zero():
    g = su3_gla4()
    assert coderivation_apply(g, (1, 2, 3)).is_zero()


# ---------------------------------------------------------------------------
# higher exterior derivative
# ---------------------------------------------------------------------------

def test_arity_two_derivative_is_minus_coboundary():
    alg = su(2)
    g = lie_as_gla(alg)
    alpha = AntisymTensor(1, 3, {(1,): Fraction(2), (3,): Fraction(-1)})
    da = higher_exterior_derivative(g, alpha)
    om = Cochain(1, 3, 1, {(1, (1,)): Fraction(2), (1, (3,)): Fraction(-1)})
    s = coboundary(alg, None, om)
    assert all(da.get(idx) == -s.get(1, idx) for idx in combinations(range(1, 4), 2))


def test_derivative_of_basis_form_gives_structure_constants():
    g = su3_gla4()
    for sigma in (1, 4, 8):
        dw = higher_exterior_derivative(g, basis_one_form(8, sigma))
        assert all(dw.get(k) == g.get(k, sigma)
                   for k in combinations(range(1, 9), 4))


def test_leibniz_rule():
    rng = random.Random(11)
    g = su3_gla4()
    a = AntisymTensor(1, 8, {(i,): Fraction(rng.randint(-3, 3)) for i in (2, 5, 7)})
    b = AntisymTensor(2, 8, {(1, 3): Fraction(2), (4, 7): Fraction(-1), (2, 8): Fraction(3)})
    assert leibniz_rule_holds(g, a, b)


def test_derivative_squares_to_zero():
    rng = random.Random(12)
    g = su3_gla4()
    for q in (1, 2):
        alpha = AntisymTensor(q, 8, {idx: Fraction(rng.randint(-3, 3))
                                     for idx in combinations(range(1, 9), q)})
        assert derivative_squared_vanishes(g, alpha)


def test_duality_with_coderivation_carries_factorial_factor():
    rng = random.Random(13)
    g = su3_gla4()
    alpha = AntisymTensor(4, 8, {idx: Fraction(rng.randint(-2, 2))
                                 for idx in combinations(range(1, 9), 4)})
    for mono in (tuple(range(1, 8)), (1, 2, 3, 5, 6, 7, 8)):
        assert duality_factor_holds(g, alpha, mono)


# ---------------------------------------------------------------------------
# the complete nilpotent ghost operator
# ---------------------------------------------------------------------------

def test_single_cocycle_operator_squares_to_zero():
    om = cocycle_from_invariant_poly(su(2), killing_invariant_poly(su(2)))
    assert brst_nilpotency(su(2), [om])


def test_su3_both_cocycles_anticommute():
    assert brst_nilpotency(su(3), [su3_three_cocycle(), su3_five_cocycle()])


def test_random_tensor_breaks_anticommutators():
    rng = random.Random(14)
    # bypass the validating constructor to plant a non-cocycle rank-5 tensor
    from naryalg.lie import killing_form
    kf = killing_form(su(3))
    kinv = linalg.inverse(kf)
    c = {}
    for idx in combinations(range(1, 9), 5):
        v = Fraction(rng.randint(-2, 2))
        if not v:
            continue
        for t in range(5):
            body = idx[:t] + idx[t + 1:]
            move = (-1) ** (4 - t)
            for j in range(1, 9):
                w = move * v * kinv[idx[t] - 1][j - 1]
                if w:
                    c.setdefault(body, {})[j] = c.get(body, {}).get(j, Fraction(0)) + w
    bad = GhostOperator(4, 8, c)
    good = ghost_operators(su(3), [su3_three_cocycle()])[0]
    violated = False
    for q in range(0, 9):
        for mono in combinations(range(1, 9), q):
            mv = AntisymTensor(q, 8, {mono: Fraction(1)})
            acm = bad.apply(good.apply(mv)) + good.apply(bad.apply(mv))
            if not acm.is_zero():
                violated = True
                break
        if violated:
            break
    assert violated
