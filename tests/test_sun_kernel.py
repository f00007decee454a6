"""The sparse ℤ[i] matrix kernel of `linalg` against dense `GaussianRational`
arithmetic, and the su(n) generators, closure residual, symmetrized traces
and gamma matrices built on it against their dense references; the sparse
generators and gamma matrices are compared through `to_dense`.  The su(n)
closure, which `sun_generators` checks on ℤ[i], holds on the
`GaussianRational` path too, and a flipped constant fails the ℤ[i] check."""

import hashlib
import random
from fractions import Fraction

import pytest

import dense_reference as dense
from naryalg import catalog, linalg
from naryalg.algfile import AlgebraFile
from naryalg.filippov import gamma_matrices
from naryalg.lie import (LieAlgebra, Representation, check_invariance, check_representation,
                         sun_generators, symmetrized_trace_poly)
from naryalg.scalars import GaussianRational


def rand_zi(rng, size, fill):
    """A size x size ℤ[i] matrix with about fill * size^2 nonzero entries."""
    out = {}
    for i in range(size):
        for j in range(size):
            if rng.random() < fill:
                re, im = rng.randint(-2, 2), rng.randint(-2, 2)
                if re or im:
                    out[(i, j)] = (re, im)
    return out


def dense_of(a, size):
    return dense.to_dense(linalg.zi_wrap(a), size)


def no_zero_entries(a):
    return all(re or im for re, im in a.values())


@pytest.mark.parametrize("seed", range(12))
def test_kernel_matches_dense_gaussian_arithmetic(seed):
    rng = random.Random(seed)
    size = rng.randint(1, 5)
    a, b = rand_zi(rng, size, 0.4), rand_zi(rng, size, 0.4)
    da, db = dense_of(a, size), dense_of(b, size)
    for got, want in [(linalg.zi_mul(a, b), dense.mat_mul(da, db)),
                      (linalg.zi_commutator(a, b), dense.commutator(da, db)),
                      (linalg.zi_anticommutator(a, b), dense.anticommutator(da, db)),
                      (linalg.zi_scale((0, -1), a),
                       dense.mat_scale(GaussianRational(0, -1), da)),
                      (linalg.zi_sum([(2, a), (-3, b)]),
                       dense.mat_sub(dense.mat_scale(2, da), dense.mat_scale(3, db)))]:
        assert no_zero_entries(got)
        assert dense_of(got, size) == want
    tr = GaussianRational(0) + dense.trace(dense.mat_mul(da, db))
    assert linalg.zi_trace(a, b) == (tr.re, tr.im)
    small = rand_zi(rng, 2, 0.6)
    kron = linalg.zi_kron(a, small, 2)
    ds = dense_of(small, 2)
    assert dense_of(kron, 2 * size) == dense.kron(da, ds)


def test_kernel_drops_cancelled_entries():
    x = {(0, 1): (1, 0), (1, 0): (1, 0)}
    assert linalg.zi_commutator(x, x) == {}
    assert linalg.zi_mul(x, x) == linalg.zi_identity(2)
    assert linalg.zi_sum([(1, x), (-1, x)]) == {}
    half = linalg.zi_wrap({(0, 0): (1, -3)}, Fraction(1, 2))
    assert half == {(0, 0): GaussianRational(Fraction(1, 2), Fraction(-3, 2))}


# ---------------------------------------------------------------------------
# su(n) against the dense construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_sun_generators_match_dense_reference(n):
    basis = catalog.sun_basis(n)
    alg, herm, norms, antiherm = dense.sun_generators(n)
    assert basis.algebra.c == alg.c
    assert list(basis.algebra.entries()) == list(alg.entries())
    assert basis.trace_norms == norms
    assert basis.rep.dim_v == n
    assert [dense.to_dense(m, n) for m in basis.hermitian] == herm
    assert [dense.to_dense(m, n) for m in basis.rep.mats.values()] == antiherm
    assert [dense.to_map(m) for m in herm] == basis.hermitian
    assert [linalg.zi_wrap(y, Fraction(1, 2)) for y in basis.doubled] == basis.hermitian
    assert dense.closure_residual(alg, antiherm) is None


SYM_TRACE_CASES = [(n, m) for n in (2, 3) for m in (2, 3, 4)] + [(4, 2), (4, 3)]


@pytest.mark.parametrize("n,m", SYM_TRACE_CASES)
def test_symmetrized_trace_matches_dense_reference(n, m):
    basis = catalog.sun_basis(n)
    herm = [dense.to_dense(x, n) for x in basis.hermitian]
    assert symmetrized_trace_poly(basis, m).terms == dense.symmetrized_trace_poly(herm, m).terms


def sorted_terms_sha256(k):
    return hashlib.sha256(repr(sorted(k.terms.items())).encode()).hexdigest()


def test_su4_order4_trace_is_pinned_and_invariant():
    # taken on the dense path, which needs several seconds for this order
    basis = catalog.sun_basis(4)
    k = symmetrized_trace_poly(basis, 4)
    assert len(k.terms) == 192
    assert sorted_terms_sha256(k) == \
        "5457f7684cdd1b5c8d007e60d0268d64993778e9c662246c4fe166904882ce57"
    assert check_invariance(basis.algebra, k).ok


SU_EMIT_SHA256 = {
    2: "713b130e4491556cf0f9cb3db8c3d0c88b359d0505d7d2fb85f844b9618433bf",
    3: "4e3012f0001f082bde2b3ea1ed0a3e4e2347cfaa5ece5b55a24426eb190f248c",
    4: "0ffca50c0e5b0ef324064d968b17ca168d8445c09961ff153011da9f26db01b6",
}


@pytest.mark.parametrize("n", sorted(SU_EMIT_SHA256))
def test_su_alg_file_is_pinned(n):
    text = AlgebraFile.from_object(catalog.su(n)).emit()
    assert hashlib.sha256(text.encode()).hexdigest() == SU_EMIT_SHA256[n]


@pytest.mark.parametrize("n", [2, 3])
def test_flipped_sign_gives_the_dense_witness(n):
    """Negative control: one entry of one generator negated breaks closure,
    and the sparse residual names the same first pair as the dense one."""
    basis = catalog.sun_basis(n)
    alg = basis.algebra
    for k in range(1, alg.dim + 1):
        rep = basis.copy().rep
        mats = rep.mats
        key = min(mats[(k,)])
        mats[(k,)][key] = -mats[(k,)][key]
        wit = check_representation(alg, rep).witness
        assert wit is not None
        i, j = dense.closure_residual(alg, [dense.to_dense(m, n) for m in mats.values()])
        assert wit == ((i,), (j,))
        with pytest.raises(ValueError) as err:
            Representation(alg, mats, n)
        assert str(err.value) == f"not a representation: residual at {wit}"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_su_closes_on_the_gaussian_rational_matrices(n):
    assert check_representation(catalog.su(n), catalog.sun_basis(n).rep).ok


@pytest.mark.parametrize("position", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_flipped_constant_fails_the_integer_closure_check(n, position, monkeypatch):
    """Negative control: one extracted constant negated before the algebra
    is built; the ℤ[i] check names the pair it belongs to."""
    build, flipped = LieAlgebra.from_entries.__func__, []

    def flip_one(cls, dim, entries):
        entries = list(entries)
        (i, j, k), v = entries[position]
        entries[position] = ((i, j, k), -v)
        flipped.append(((i,), (j,)))
        return build(cls, dim, entries)

    monkeypatch.setattr(LieAlgebra, "from_entries", classmethod(flip_one))
    with pytest.raises(ValueError) as err:
        sun_generators(n)
    assert str(err.value) == f"not a representation: residual at {flipped[0]}"


# ---------------------------------------------------------------------------
# gamma matrices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 4, 6])
def test_gamma_matrices_match_dense_reference(d):
    gam, chi = gamma_matrices(d)
    dgam, dchi = dense.gamma_matrices(d)
    size = 2 ** (d // 2)
    assert [dense.to_dense(g, size) for g in gam] == dgam
    assert dense.to_dense(chi, size) == dchi
    assert [dense.to_map(g) for g in dgam] == gam and dense.to_map(dchi) == chi
