"""Every function that acts on operator matrices, on the sparse {(row,
column): value} maps of `linalg`, against its dense version in
`dense_reference` on the catalog inputs: the su(n) generators and adjoint
maps, A4, A5, nhw2 and the gamma matrices of the Clifford realizations.
Sparse results are compared through `to_dense`; the negative controls flip
one entry and ask both paths for the same verdict or witness."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import factorial

import pytest

import dense_reference as dense
from naryalg import linalg
from naryalg.catalog import a4, a5, nhw, su, su3_gla4, sun_basis
from naryalg.claims import (ad_of_sum, associator_check, clifford_double_commutator,
                            compose_matches_commutator, leibniz_coboundary, leibniz_extension, multibracket, odd_arity_defect,
                            orthogonal_relations_hold, quadratic_casimir, resolve_even_bracket,
                            so_dual_generators, trace_extension_bracket, trace_extension_structure)
from naryalg.filippov import clifford_realization, gamma_matrices
from naryalg.lie import check_representation, fundamental_compose
from naryalg.nary_cohomology import LeibnizAlgebra, leibniz_rep_conditions
from naryalg.tensors import perm_sign

FA = {"a4": a4, "a5": a5, "nhw2": lambda: nhw(2)}


def dense_all(mats, size):
    return [dense.to_dense(m, size) for m in mats]


# ---------------------------------------------------------------------------
# ad maps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_lie_ad_matrices_match_dense(n):
    alg = su(n)
    for i in range(1, alg.dim + 1):
        m = alg.ad_matrix((i,))
        assert dense.to_dense(m, alg.dim) == dense.lie_ad_matrix(alg, i)
        assert m == dense.to_map(dense.lie_ad_matrix(alg, i))
    rep = alg.adjoint_rep()
    assert rep.dim_v == alg.dim and rep.mats == {(i,): alg.ad_matrix((i,))
                                                 for i in range(1, alg.dim + 1)}


def test_gla_ad_matrices_match_a_dense_read_of_the_constants():
    # ad_X of the 4-bracket of su3-gla4 on three labels X, read off the stored
    # constants: slot t of a sorted key is the column, moved to the end
    g = su3_gla4()
    d = g.dim
    want = {}
    for key, row in g.c.items():
        for t, b in enumerate(key):
            m = want.setdefault(key[:t] + key[t + 1:], linalg.zeros(d, d))
            for l, v in row.items():
                m[l - 1][b - 1] = (-1) ** (len(key) - 1 - t) * v
    assert want
    # unsorted and repeated labels too
    for labels in product(range(1, d + 1), repeat=g.arity - 1):
        m = want.get(tuple(sorted(labels)), linalg.zeros(d, d))
        sign = perm_sign(labels)
        assert dense.to_dense(g.ad_matrix(labels), d) == [[sign * v for v in r] for r in m]


@pytest.mark.parametrize("name", sorted(FA))
def test_fa_ad_matrices_and_fundamental_objects_match_dense(name):
    fa = FA[name]()
    d = fa.dim
    # unsorted and repeated labels too
    for labels in product(range(1, d + 1), repeat=fa.arity - 1):
        assert dense.to_dense(fa.ad_matrix(labels), d) == dense.fa_ad_matrix(fa, labels)
    blocks = list(combinations(range(1, d + 1), fa.arity - 1))
    for x, y in list(product(blocks, repeat=2))[:60]:
        s = fundamental_compose(fa, x, y)
        assert dense.to_dense(ad_of_sum(fa, s), d) == dense.ad_of_sum(fa, s)
        assert compose_matches_commutator(fa, x, y) == dense.compose_matches_commutator(fa, x, y)
        assert compose_matches_commutator(fa, x, y)


# ---------------------------------------------------------------------------
# multibrackets
# ---------------------------------------------------------------------------

def bracket_inputs():
    """(name, sparse matrices, size) from the catalog: su(n) generators in
    both bases, adjoint maps and gamma matrices."""
    out = []
    for n in (2, 3):
        basis = sun_basis(n)
        out.append((f"su{n}-hermitian", basis.hermitian, n))
        out.append((f"su{n}-antihermitian", list(basis.rep.mats.values()), n))
        alg = su(n)
        out.append((f"su{n}-ad", list(alg.adjoint_rep().mats.values()), alg.dim))
    for d in (4, 6):
        gam, chi = gamma_matrices(d)
        out.append((f"gamma{d}", gam + [chi], 2 ** (d // 2)))
    return out


INPUTS = bracket_inputs()


@pytest.mark.parametrize("name,mats,size", INPUTS, ids=[x[0] for x in INPUTS])
def test_multibracket_matches_dense(name, mats, size):
    rng = random.Random(name)
    for k in (1, 2, 3, 4, 5):
        for _ in range(3):
            args = rng.sample(mats, min(k, len(mats)))
            want = dense.multibracket(dense_all(args, size))
            assert dense.to_dense(multibracket(args), size) == want
            weighted = linalg.sp_scale(Fraction(1, factorial(len(args))), multibracket(args))
            assert dense.to_dense(weighted, size) == \
                dense.multibracket_weighted(dense_all(args, size))


@pytest.mark.parametrize("name,mats,size", INPUTS, ids=[x[0] for x in INPUTS])
def test_resolution_and_odd_defect_match_dense(name, mats, size):
    rng = random.Random(name)
    args = [rng.choice(mats) for _ in range(4)]
    terms, acc = resolve_even_bracket(args)
    want_terms, want_acc = dense.resolve_even_bracket(dense_all(args, size))
    assert terms == want_terms and dense.to_dense(acc, size) == want_acc
    args = [rng.choice(mats) for _ in range(5)]
    lhs, rhs = odd_arity_defect(args)
    want_lhs, want_rhs = dense.odd_arity_defect(dense_all(args, size))
    assert dense.to_dense(lhs, size) == want_lhs and dense.to_dense(rhs, size) == want_rhs
    assert lhs == rhs


@pytest.mark.parametrize("n", [2, 3])
def test_associator_check_matches_dense(n):
    mats = sun_basis(n).hermitian[:4]
    assert associator_check(mats) == dense.associator_check(dense_all(mats, n)) is True


# ---------------------------------------------------------------------------
# the euclidean simple algebras
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["a4", "a5"])
def test_so_dual_generators_and_relations_match_dense(name):
    fa = FA[name]()
    got, want = so_dual_generators(fa), dense.so_dual_generators(fa)
    assert sorted(got) == sorted(want)
    assert all(dense.to_dense(got[key], fa.dim) == want[key] for key in want)
    assert orthogonal_relations_hold(fa) == dense.orthogonal_relations_hold(fa) is True


# ---------------------------------------------------------------------------
# representations and Casimirs
# ---------------------------------------------------------------------------

def dense_fa_rep(rho):
    return {lab: dense.to_dense(m, rho.dim_v) for lab, m in rho.mats.items()}


@pytest.mark.parametrize("name", sorted(FA))
def test_fa_representation_check_matches_dense(name):
    fa = FA[name]()
    rho = fa.adjoint_rep()
    assert check_representation(fa, rho) == dense.check_fa_representation(fa, dense_fa_rep(rho))
    assert check_representation(fa, rho)
    # negative control: one entry of one matrix flipped; both checks agree,
    # and on the simple algebras both reject it (the nilpotent nhw2 has
    # flips that stay representations)
    lab = next(lab for lab, m in rho.mats.items() if m)
    key = min(rho.mats[lab])
    rho.mats[lab] = {**rho.mats[lab], key: -rho.mats[lab][key]}
    got = check_representation(fa, rho)
    assert got == dense.check_fa_representation(fa, dense_fa_rep(rho))
    assert got.ok == (name == "nhw2")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quadratic_casimir_matches_dense(n):
    alg = su(n)
    for rep in (alg.adjoint_rep(), sun_basis(n).rep):
        got = quadratic_casimir(alg, rep)
        want = dense.quadratic_casimir(alg, dense_all(list(rep.mats.values()), rep.dim_v))
        assert dense.to_dense(got, rep.dim_v) == want
    # theory: the Casimir of a simple algebra is scalar on an irreducible
    # module; these are the values of this normalization
    assert quadratic_casimir(alg, alg.adjoint_rep()) == linalg.sp_identity(alg.dim)
    value = {2: Fraction(3, 8), 3: Fraction(4, 9), 4: Fraction(15, 32)}[n]
    assert quadratic_casimir(alg, sun_basis(n).rep) == \
        linalg.sp_scale(value, linalg.sp_identity(n))


def as_leibniz(alg):
    rng = range(1, alg.dim + 1)
    lb = LeibnizAlgebra(alg.dim, {(i, j): alg.row((i, j)) for i in rng for j in rng})
    ad = list(alg.adjoint_rep().mats.values())
    return lb, ad, [linalg.sp_scale(-1, m) for m in ad]


@pytest.mark.parametrize("n", [2, 3])
def test_leibniz_rep_conditions_match_dense_with_the_same_witness(n):
    alg = su(n)
    lb, left, right = as_leibniz(alg)
    assert leibniz_rep_conditions(lb, left, right) is None
    assert dense.leibniz_rep_conditions(lb, dense_all(left, alg.dim),
                                        dense_all(right, alg.dim)) is None
    # negative controls: flip one entry of one left, then one right matrix
    for side in (0, 1):
        for k in (0, alg.dim - 1):
            acts = [list(left), list(right)]
            key = min(acts[side][k])
            acts[side][k] = {**acts[side][k], key: -acts[side][k][key]}
            wit = leibniz_rep_conditions(lb, *acts)
            assert wit is not None
            assert wit == dense.leibniz_rep_conditions(
                lb, *(dense_all(a, alg.dim) for a in acts))


def test_leibniz_extension_reads_the_sparse_actions():
    # su(2) acting on itself: A = g with l = ad, r = -ad; the extension's
    # mixed brackets are the matrix entries, read from dense twins
    alg = su(2)
    lb, left, right = as_leibniz(alg)
    rng = random.Random(8)
    omega1 = {(x,): tuple(Fraction(rng.randint(-2, 2)) for _ in range(3))
              for x in range(1, 4)}
    omega2 = leibniz_coboundary(lb, left, right, omega1, 1, 3)
    ext = leibniz_extension(lb, left, right, omega2, 3)
    dleft, dright = dense_all(left, 3), dense_all(right, 3)
    for i in range(1, 4):
        for a in range(1, 4):
            assert ext.row(3 + i, a) == {t + 1: v for t in range(3)
                                         if (v := dleft[i - 1][t][a - 1])}
            assert ext.row(a, 3 + i) == {t + 1: v for t in range(3)
                                         if (v := dright[i - 1][t][a - 1])}


# ---------------------------------------------------------------------------
# Clifford realizations and trace extensions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 5])
def test_clifford_realization_matches_dense(n):
    (got, got_rep), (want, want_rep) = clifford_realization(n), dense.clifford_realization(n)
    assert got_rep == want_rep
    assert got.f == want.f


def test_clifford_double_commutator_matches_dense():
    assert clifford_double_commutator() == dense.clifford_double_commutator()


def test_trace_extensions_match_dense():
    basis = [{(a, b): Fraction(1)} for a in range(2) for b in range(2)]
    dbasis = dense_all(basis, 2)

    def three(ms):
        return trace_extension_bracket(lambda xs: linalg.sp_commutator(*xs),
                                       lambda m: linalg.sp_trace(m, linalg.sp_identity(2)), ms)

    def dense_three(ms):
        return dense.trace_extension_bracket(lambda xs: dense.commutator(*xs), dense.trace, ms)

    three.arity = dense_three.arity = 3
    for idx in combinations(range(4), 3):
        assert dense.to_dense(three([basis[i] for i in idx]), 2) == \
            dense_three([dbasis[i] for i in idx])
    assert trace_extension_structure(three, basis).f == \
        dense.trace_extension_structure(dense_three, dbasis).f
