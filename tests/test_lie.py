import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from naryalg import linalg
from naryalg.catalog import a4, heisenberg, r2_abelian, su, su3_three_cocycle, sun_basis
from naryalg.claims import (associator_check, check_poly_vanishing_identity, homotopy_contraction,
                            invariance_condition_residual, invariant_poly_from_cocycle,
                            quadratic_casimir, ray_equal, symmetrized_product)
from naryalg.cohomology import Cochain, cohomology_dims
from naryalg.gla import gla_from_cocycle
from naryalg.lie import (LieAlgebra, Representation, SymInvariantPoly, check_invariance,
                         check_jacobi, check_metric_invariance, check_representation,
                         cocycle_condition_residual, cocycle_from_invariant_poly,
                         inverse_killing_form, killing_form, killing_invariant_poly,
                         sun_generators, symmetrized_trace_poly)
from naryalg.tensors import AntisymTensor, gen_kronecker


def eps_lie():
    """[X_i, X_j] = eps_ijk X_k on three dimensions."""
    return LieAlgebra.from_entries(
        3, [(p, Fraction(gen_kronecker((1, 2, 3), p))) for p in
            [(1, 2, 3), (2, 3, 1), (1, 3, 2)]])


# ---------------------------------------------------------------------------
# Jacobi
# ---------------------------------------------------------------------------

def test_jacobi_eps_structure():
    assert check_jacobi(eps_lie()).ok


def test_jacobi_abelian():
    assert check_jacobi(LieAlgebra(4, {})).ok


def test_jacobi_violation_witnessed():
    bad = LieAlgebra.from_entries(3, [((1, 2, 1), Fraction(1)),
                                      ((1, 3, 3), Fraction(1))])
    rep = check_jacobi(bad)
    assert not rep.ok and rep.witness is not None


# ---------------------------------------------------------------------------
# Killing form and metrics
# ---------------------------------------------------------------------------

def test_killing_eps_is_minus_two_identity():
    k = killing_form(eps_lie())
    assert k == [[-2 * x for x in row] for row in linalg.identity(3)]


def test_killing_abelian_zero():
    assert killing_form(LieAlgebra(3, {})) == linalg.zeros(3, 3)


def test_killing_heisenberg_degenerate():
    assert killing_form(heisenberg()) == linalg.zeros(3, 3)


def test_killing_two_path_agreement():
    # independent path: traces of products of ad matrices
    for alg in (su(2), su(3), heisenberg()):
        k = killing_form(alg)
        ads = [alg.ad_matrix((i,)) for i in range(1, alg.dim + 1)]
        for i in range(alg.dim):
            for j in range(alg.dim):
                assert k[i][j] == linalg.sp_trace(ads[i], ads[j])


def test_metric_invariance_eps_delta():
    assert check_metric_invariance(eps_lie(), linalg.identity(3)).ok
    assert linalg.nondegenerate(linalg.identity(3)).ok


def test_metric_invariance_zero_metric():
    assert check_metric_invariance(su(2), linalg.zeros(3, 3)).ok
    assert not linalg.nondegenerate(linalg.zeros(3, 3)).ok


def test_metric_invariance_heisenberg_delta_fails():
    rep = check_metric_invariance(heisenberg(), linalg.identity(3))
    assert not rep.ok and rep.witness is not None


# ---------------------------------------------------------------------------
# su(n) generators
# ---------------------------------------------------------------------------

def test_su2_is_halved_pauli_basis():
    basis = sun_basis(2)
    assert len(basis.hermitian) == 3
    # structure constants are exactly the alternating symbol
    alg = basis.algebra
    for p in [(1, 2, 3), (2, 3, 1), (3, 1, 2)]:
        assert alg.get(p[:2], p[2]) == 1
    assert basis.trace_norms == [Fraction(1, 2)] * 3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sun_closure_and_jacobi(n):
    basis = sun_basis(n)
    assert basis.algebra.dim == n * n - 1
    assert check_representation(basis.algebra, basis.rep).ok
    assert check_jacobi(basis.algebra).ok


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sun_traceless(n):
    for m in sun_basis(n).hermitian:
        assert linalg.sp_trace(m, linalg.sp_identity(n)) == 0


def test_sun_trace_orthogonal():
    basis = sun_basis(3)
    herm = basis.hermitian
    for i in range(8):
        for j in range(8):
            t = linalg.sp_trace(herm[i], herm[j])
            if i != j:
                assert not t
            else:
                assert t.re == basis.trace_norms[i] and t.im == 0


def test_associator_on_su2():
    assert associator_check(sun_basis(2).hermitian)


def test_representation_rejects_bad_matrices():
    alg = su(2)
    with pytest.raises(ValueError):
        Representation(alg, {(i,): linalg.sp_identity(2) for i in range(1, 4)}, 2)


# ---------------------------------------------------------------------------
# the shape of a module: one sorted (arity-1)-label per matrix, every matrix
# key inside dim_v x dim_v
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key", [(0, 3), (0, 1), (-1, 0)])
def test_a_matrix_key_outside_the_module_is_refused(key):
    # on the abelian r2, rho(X_1) with an entry at (0, 3) of a 1 x 1 matrix
    # once gave H = 0, 0, 0 where the zero module gives 1, 2, 1
    alg = r2_abelian()
    with pytest.raises(ValueError, match=re.escape(f"entry {key} of label (1,) is outside 0..0")):
        Representation(alg, {(1,): {key: 1}, (2,): {}}, 1)
    zero = Representation(alg, {(1,): {}, (2,): {}}, 1)
    assert [cohomology_dims(alg, zero, 2).dims_h[p] for p in range(3)] == [1, 2, 1]


def test_a_module_that_leaves_out_a_label_is_refused():
    # an A4-module with X_1 ^ X_2 alone once ended in KeyError (1, 3) when
    # its complex was ranked
    with pytest.raises(ValueError, match=re.escape("no matrix for label (1, 3)")):
        Representation(a4(), {(1, 2): {}}, 1)


def test_a_short_lie_module_is_refused():
    # two matrices for the three generators of su(2) once ended in an
    # IndexError when the module was built
    mats = {(i,): m for i, m in enumerate(su(2).adjoint_rep().mats.values(), 1) if i < 3}
    with pytest.raises(ValueError, match=re.escape("no matrix for label (3,)")):
        Representation(su(2), mats, 3)


@pytest.mark.parametrize("label", [(2, 1), (1, 5), (1, 2, 3), (4,), 1])
def test_an_extra_or_unsorted_label_is_refused(label):
    mats = {lab: {} for lab in combinations(range(1, 5), 2)}
    mats[label] = {}
    with pytest.raises(ValueError, match=re.escape(f"label {label!r} is not a sorted 2-label")):
        Representation(a4(), mats, 1)


def test_the_derived_modules_are_taken_as_they_are(monkeypatch):
    # the adjoint, the su(n) generators and a basis copy come from checked
    # objects: the constructor, with its shape check and scan, runs on none
    calls = []
    init = Representation.__init__
    monkeypatch.setattr(Representation, "__init__",
                        lambda self, *args: calls.append(args) or init(self, *args))
    basis = sun_generators(2)
    for rep in (su(3).adjoint_rep(), a4().adjoint_rep(), basis.rep, basis.copy().rep):
        assert type(rep) is Representation
    assert calls == []
    assert Representation(basis.algebra, dict(basis.rep.mats), 2).dim_v == 2
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# invariant polynomials
# ---------------------------------------------------------------------------

def test_symmetrized_trace_su2_order2():
    basis = sun_basis(2)
    k = symmetrized_trace_poly(basis, 2)
    assert k.terms == {(1, 1): Fraction(1, 2), (2, 2): Fraction(1, 2),
                       (3, 3): Fraction(1, 2)}


def test_symmetrized_trace_su3_order3_is_anticommutator_symbol():
    # Tr X = 0 leaves no delta-type term: the symmetrized trace reduces to
    # the anticommutator coefficients, 2 sTr(X_i X_j X_k) = Tr({X_i, X_j} X_k)
    basis = sun_basis(3)
    d = symmetrized_trace_poly(basis, 3)
    assert check_invariance(basis.algebra, d).ok
    assert not d.is_zero()
    herm = basis.hermitian
    for idx in list(d.terms)[:10]:
        i, j, k = idx
        a, b = herm[i - 1], herm[j - 1]
        anticommutator = linalg.sp_sum([(1, linalg.sp_mul(a, b)), (1, linalg.sp_mul(b, a))])
        val = linalg.sp_trace(anticommutator, herm[k - 1])
        assert val.im == 0 and 2 * d.get(idx) == val.re


def test_symmetrized_trace_su3_order4_contains_nonprimitive_part():
    basis = sun_basis(3)
    k4 = symmetrized_trace_poly(basis, 4)
    assert check_invariance(basis.algebra, k4).ok
    # the delta-delta (symmetrized metric-squared) part is visible on
    # pairwise-diagonal entries
    kk = symmetrized_product(symmetrized_trace_poly(basis, 2),
                             symmetrized_trace_poly(basis, 2))
    assert any(k4.get(idx) != 0 for idx in kk.terms)


def test_killing_invariant_poly_passes_invariance():
    for n in (2, 3):
        alg = su(n)
        assert check_invariance(alg, killing_invariant_poly(alg)).ok


# ---------------------------------------------------------------------------
# cocycles from polynomials
# ---------------------------------------------------------------------------

def test_su2_killing_gives_three_cocycle_proportional_to_constants():
    alg = su(2)
    om = cocycle_from_invariant_poly(alg, killing_invariant_poly(alg))
    lowered = AntisymTensor.from_function(
        3, 3, lambda i, j, k: sum(alg.get((i, j), l) * killing_form(alg)[l - 1][k - 1]
                                  for l in range(1, 4)))
    assert (om.rank, om.dim) == (lowered.rank, lowered.dim)
    assert ray_equal(om.entries, lowered.entries)


def test_su3_d_gives_nonzero_five_cocycle():
    basis = sun_basis(3)
    om = cocycle_from_invariant_poly(basis.algebra,
                                     symmetrized_trace_poly(basis, 3))
    assert om.rank == 5 and not om.is_zero()
    assert cocycle_condition_residual(basis.algebra, om) is None
    assert invariance_condition_residual(basis.algebra, om) is None


def test_nonprimitive_polynomial_gives_zero_cocycle():
    alg = su(3)
    kk = symmetrized_product(killing_invariant_poly(alg), killing_invariant_poly(alg))
    assert check_invariance(alg, kk).ok
    om = cocycle_from_invariant_poly(alg, kk)
    assert om.is_zero()


def test_rejects_non_invariant_polynomial():
    alg = su(2)
    bad = SymInvariantPoly(2, 3, {(1, 1): Fraction(1)})
    assert not check_invariance(alg, bad).ok
    with pytest.raises(ValueError):
        cocycle_from_invariant_poly(alg, bad)


# ---------------------------------------------------------------------------
# cocycles back to polynomials
# ---------------------------------------------------------------------------

def test_su2_roundtrip_recovers_killing_ray():
    alg = su(2)
    kp = killing_invariant_poly(alg)
    om = cocycle_from_invariant_poly(alg, kp)
    t = invariant_poly_from_cocycle(alg, om)
    assert (t.order, t.dim) == (kp.order, kp.dim) and ray_equal(t.terms, kp.terms)


def test_su3_roundtrip_recovers_d_ray():
    basis = sun_basis(3)
    d = symmetrized_trace_poly(basis, 3)
    om = cocycle_from_invariant_poly(basis.algebra, d)
    t = invariant_poly_from_cocycle(basis.algebra, om)
    assert (t.order, t.dim) == (d.order, d.dim) and ray_equal(t.terms, d.terms)


def test_degenerate_killing_rejected():
    alg = heisenberg()
    om = AntisymTensor(3, 3, {(1, 2, 3): Fraction(1)})
    assert cocycle_condition_residual(alg, om) is None
    with pytest.raises(ValueError):
        invariant_poly_from_cocycle(alg, om)
    assert "kinv" not in vars(alg).get("_memo", {})  # a raise keeps nothing


def killing_inverse_readers(alg, om, coc):
    """The outputs of the four readers of the inverse Killing form."""
    rho = alg.adjoint_rep()
    return (gla_from_cocycle(alg, om), invariant_poly_from_cocycle(alg, om),
            quadratic_casimir(alg, rho), homotopy_contraction(alg, rho, coc))


def test_the_inverse_killing_form_is_built_once_per_algebra(monkeypatch):
    # the four readers share one inverse per algebra, nested tuples equal
    # to linalg.inverse of the Killing form, and give on it what they give
    # on a new copy of the algebra, which builds its own
    om, rng = su3_three_cocycle(), random.Random(4)
    coc = Cochain(2, 8, 8, {(a, idx): Fraction(rng.randint(-2, 2))
                            for a in range(1, 9) for idx in combinations(range(1, 9), 2)})
    inverse, built = linalg.inverse, []
    monkeypatch.setattr(linalg, "inverse", lambda a: built.append(1) or inverse(a))
    alg, new = (LieAlgebra(8, {key: dict(row) for key, row in su(3).c.items()}) for _ in "ab")
    first = killing_inverse_readers(alg, om, coc)
    assert killing_inverse_readers(alg, om, coc) == first and len(built) == 1
    kinv = inverse_killing_form(alg)
    assert kinv is vars(alg)["_memo"]["kinv"] and len(built) == 1
    assert type(kinv) is tuple and all(type(row) is tuple for row in kinv)
    assert kinv == tuple(map(tuple, inverse(killing_form(alg))))
    assert killing_inverse_readers(new, om, coc) == first and len(built) == 2


# ---------------------------------------------------------------------------
# the vanishing identity for invariant polynomials
# ---------------------------------------------------------------------------

def test_vanishing_identity_su2_killing():
    alg = su(2)
    assert check_poly_vanishing_identity(alg, killing_invariant_poly(alg))


def test_vanishing_identity_su3_killing_and_d():
    basis = sun_basis(3)
    assert check_poly_vanishing_identity(basis.algebra, killing_invariant_poly(basis.algebra))
    assert check_poly_vanishing_identity(basis.algebra, symmetrized_trace_poly(basis, 3))


def test_vanishing_identity_fails_for_random_symmetric_tensor():
    rng = random.Random(6)
    alg = su(3)
    found_nonzero = False
    for _ in range(5):
        terms = {}
        for idx in combinations(range(1, 9), 2):
            terms[idx] = Fraction(rng.randint(-3, 3))
        k = SymInvariantPoly(2, 8, terms)
        if not check_invariance(alg, k).ok and \
                not check_poly_vanishing_identity(alg, k):
            found_nonzero = True
            break
    assert found_nonzero
