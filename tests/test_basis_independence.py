"""Basis independence: an algebra conjugated by a unimodular integer matrix
is the same algebra in another basis, so every verdict and every cohomology
dimension must be the one of the original.  The conjugates are seeded
products of a few shears e_i += c e_j, c in {+-1, +-2}, whose constants are
denser than the catalog's."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from naryalg import catalog, linalg
from naryalg.cohomology import cohomology_dims
from naryalg.filippov import check_fi
from naryalg.lie import check_jacobi, check_representation
from naryalg.nary_cohomology import fa_cohomology_dims

LIE = {"su3": lambda: catalog.su(3), "heisenberg": catalog.heisenberg}
FILIPPOV = {"a4": catalog.a4, "a13": catalog.a13, "nhw1": lambda: catalog.nhw(1)}
SEEDS = (1, 2)


def conjugate(alg, seed, shears=6):
    """alg in the basis X'_k = sum_i P_ik X_i, P the product of `shears`
    seeded shears (det 1, so P^{-1} is integral too): the constants of
    [X'_{a_1}, .., X'_{a_n}] read in the primed basis."""
    rng, d = random.Random(seed), alg.dim
    p = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for _ in range(shears):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in p:
            row[i] += c * row[j]
    pinv = linalg.inverse(p)
    cols = [[row[k] for row in p] for k in range(d)]
    c = {}
    for idx in combinations(range(1, d + 1), alg.arity):
        vecs = [cols[a - 1] for a in idx]
        w = alg.bracket(*vecs) if alg.kind == "lie" else alg.bracket(vecs)
        row = {k + 1: v for k in range(d) if (v := sum(pinv[k][r] * w[r] for r in range(d)))}
        if row:
            c[idx] = row
    return alg.from_table(alg.arity, d, c)


def identity(alg):
    return check_jacobi(alg) if alg.kind == "lie" else check_fi(alg)


CASES = [(name, seed) for name in {**LIE, **FILIPPOV} for seed in SEEDS]


@pytest.mark.parametrize("name,seed", CASES)
def test_a_conjugate_keeps_the_verdicts_and_its_adjoint_module(name, seed):
    alg = {**LIE, **FILIPPOV}[name]()
    conj = conjugate(alg, seed)
    assert conj.c != alg.c  # a genuinely different basis
    assert identity(conj).ok
    assert not identity(conjugate(catalog.corrupted(alg), seed)).ok
    assert check_representation(conj, conj.adjoint_rep()).ok


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(LIE))
def test_a_lie_conjugate_keeps_its_trivial_cohomology(name, seed):
    alg = LIE[name]()
    assert cohomology_dims(conjugate(alg, seed), None, 3) == cohomology_dims(alg, None, 3)


@pytest.mark.parametrize("kind", ["trivial", "deformation", "module"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(FILIPPOV))
def test_a_filippov_conjugate_keeps_the_dimensions_of_each_complex(name, seed, kind):
    fa = FILIPPOV[name]()
    want = fa_cohomology_dims(fa, kind, 1)
    assert fa_cohomology_dims(conjugate(fa, seed), kind, 1) == want
