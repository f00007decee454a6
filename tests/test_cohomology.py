import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dense_reference as dense
from naryalg import linalg
from naryalg.catalog import euclidean_rotations_2d, heisenberg, r2_abelian, su
from naryalg.claims import (_coboundary_preimage, central_extension, deformation_check,
                            laplacian_identity_holds, mc_cochain, quadratic_casimir,
                            whitehead_homotopy)
from naryalg.cohomology import (CEComplex, Cochain, basis_tuples, coboundary, coboundary_matrix,
                                cohomology_dims, coord_basis, trivialize_extension)
from naryalg.lie import LieAlgebra, Representation, check_jacobi
from naryalg.scalars import GaussianRational


def random_cochain(rng, p, r, dim_v):
    data = {(a, idx): Fraction(rng.randint(-5, 5))
            for a in range(1, dim_v + 1) for idx in basis_tuples(r, p)}
    return Cochain(p, r, dim_v, data)


# ---------------------------------------------------------------------------
# the coboundary operator
# ---------------------------------------------------------------------------

def test_identity_cochain_gives_structure_constants():
    alg = su(2)
    s = coboundary(alg, None, mc_cochain(alg))
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 4):
                assert s.get(k, (i, j)) == -alg.get((i, j), k)


def test_coboundary_vanishes_at_top_degree():
    alg = su(2)
    om = Cochain(3, 3, 1, {(1, (1, 2, 3)): Fraction(2)})
    assert coboundary(alg, None, om).is_zero()


@pytest.mark.parametrize("n,rho_kind", [(2, None), (2, "ad"), (3, None), (3, "ad")])
def test_nilpotency_on_random_cochains(n, rho_kind):
    rng = random.Random(n)
    alg = su(n)
    rho = alg.adjoint_rep() if rho_kind else None
    dim_v = alg.dim if rho_kind else 1
    for p in (1, 2):
        om = random_cochain(rng, p, alg.dim, dim_v)
        assert coboundary(alg, rho, coboundary(alg, rho, om)).is_zero()


def test_coordinates_form_agrees_with_argument_form():
    rng = random.Random(5)
    for alg in (su(2), heisenberg(), euclidean_rotations_2d()):
        for p in (1, 2):
            om = random_cochain(rng, p, alg.dim, 1)
            assert coboundary(alg, None, om) == dense.ce_coboundary_coords(alg, om)


def test_dimension_mismatch_rejected():
    alg = su(2)
    om = Cochain(1, 3, 2, {(1, (1,)): Fraction(1)})
    with pytest.raises(ValueError):
        coboundary(alg, alg.adjoint_rep(), om)


# ---------------------------------------------------------------------------
# the matrix of s
# ---------------------------------------------------------------------------

def unit_cochain_columns(alg, rho, p, dim_v, cols):
    """Rows of s restricted to the columns `cols`, each column the reference
    coboundary of a unit cochain: the column-wise assembly."""
    src = coord_basis(alg.dim, p, dim_v)
    dst = coord_basis(alg.dim, p + 1, dim_v)
    units = {j: Cochain(p, alg.dim, dim_v, {src[j]: Fraction(1)}) for j in cols}
    images = {j: dense.ce_coboundary(alg, rho, unit).data for j, unit in units.items()}
    return [{j: img[key] for j, img in images.items() if key in img} for key in dst]


def scaled(rows, d):
    """The rows times d: D s from the rows of s."""
    return [{c: d * v for c, v in row.items()} for row in rows]


@pytest.mark.parametrize("name", ["heisenberg", "su2", "su3"])
@pytest.mark.parametrize("adjoint", [False, True])
def test_row_assembly_matches_unit_cochain_columns(name, adjoint):
    alg = {"heisenberg": heisenberg, "su2": lambda: su(2), "su3": lambda: su(3)}[name]()
    rho = alg.adjoint_rep() if adjoint else None
    dim_v = alg.dim if adjoint else 1
    rng = random.Random(13)
    cx = CEComplex(alg, rho, dim_v)
    for p in range(4):
        (rows, d), src, dst = coboundary_matrix(cx, p), cx.coords(p), cx.coords(p + 1)
        assert src == coord_basis(alg.dim, p, dim_v)
        assert dst == coord_basis(alg.dim, p + 1, dim_v) and len(rows) == len(dst)
        # every column up to 64, else a seeded sample of 16: the reference
        # takes about 0.1 s per su(3) adjoint column of degree 3
        cols = range(len(src)) if len(src) <= 64 else sorted(rng.sample(range(len(src)), 16))
        restricted = [{j: row[j] for j in cols if j in row} for row in rows]
        assert restricted == scaled(unit_cochain_columns(alg, rho, p, dim_v, cols), d)
        assert all(j in range(len(src)) for row in rows for j in row)


@pytest.mark.parametrize("name,adjoint,p", [("su4", False, p) for p in range(3)]
                         + [("su3", True, p) for p in range(2)])
def test_rows_equal_the_generic_cochain_reference(name, adjoint, p):
    # D = 6 for su(4) and 2 for su(3): the same rows of D s, dict for dict,
    # all ints, as one reference coboundary of the generic cochain
    alg = su(int(name[2]))
    rho = alg.adjoint_rep() if adjoint else None
    dim_v = alg.dim if adjoint else 1
    cx = CEComplex(alg, rho, dim_v)
    rows, d, src, dst = dense.ce_coboundary_matrix(alg, rho, p, dim_v)
    assert coboundary_matrix(cx, p) == (rows, d) and d == (6 if name == "su4" else 2)
    assert (cx.coords(p), cx.coords(p + 1)) == (src, dst)
    assert all(type(v) is int for row in cx.matrix(p) for v in row.values())


PARITY_ALGEBRAS = {"heisenberg": heisenberg(), "su2": su(2), "su3": su(3)}
fractions = st.one_of(st.integers(-3, 3), st.fractions(max_denominator=6)).map(Fraction)


@st.composite
def cochains(draw):
    """(algebra, representation, cochain): a random Fraction-valued cochain
    of degree 0..3, scalar or adjoint-valued."""
    alg = PARITY_ALGEBRAS[draw(st.sampled_from(sorted(PARITY_ALGEBRAS)))]
    adjoint = draw(st.booleans())
    dim_v = alg.dim if adjoint else 1
    p = draw(st.integers(0, 3))
    keys = st.tuples(st.integers(1, dim_v), st.sampled_from(basis_tuples(alg.dim, p)))
    data = draw(st.dictionaries(keys, fractions, max_size=10))
    return alg, alg.adjoint_rep() if adjoint else None, Cochain(p, alg.dim, dim_v, data)


@settings(max_examples=60, deadline=None)
@given(cochains())
def test_coboundary_equals_the_term_by_term_reference(case):
    alg, rho, om = case
    assert coboundary(alg, rho, om) == dense.ce_coboundary(alg, rho, om)


def test_row_assembly_scales_by_the_representation_denominators():
    # the adjoint representation of su(2) conjugated by a rational matrix:
    # its entries have denominators the constants lack, so the common
    # denominator must come from both
    alg = su(2)
    q = [[Fraction(1), Fraction(1, 3), Fraction(0)],
         [Fraction(0), Fraction(1), Fraction(2, 5)],
         [Fraction(1, 7), Fraction(0), Fraction(1)]]
    qinv = dense.to_map(linalg.inverse(q))
    q = dense.to_map(q)
    rho = Representation(alg, {x: linalg.sp_mul(qinv, linalg.sp_mul(m, q))
                               for x, m in alg.adjoint_rep().mats.items()}, 3)
    assert any(x.denominator > 1 for m in rho.mats.values() for x in m.values())
    cx = CEComplex(alg, rho, 3)
    assert cx.d > 1
    for p in range(3):
        rows, d = coboundary_matrix(cx, p)
        assert rows == scaled(unit_cochain_columns(alg, rho, p, 3, range(cx.dim(p))), d)
    assert [cohomology_dims(alg, rho, 2).dims_h[p] for p in range(3)] == [0, 0, 0]


def test_complex_representation_is_rejected():
    # ranks are taken over Q: a representation with imaginary entries (here
    # X_k -> -i sigma_k / 2 of su(2)) raises instead of giving a dimension
    i = GaussianRational(0, 1)
    sigma = ({(0, 1): 1, (1, 0): 1}, {(0, 1): -i, (1, 0): i}, {(0, 0): 1, (1, 1): -1})
    rho = Representation(su(2), {(k,): linalg.sp_scale(i * Fraction(-1, 2), s)
                                 for k, s in enumerate(sigma, 1)}, 2)
    with pytest.raises(ValueError, match="imaginary"):
        cohomology_dims(su(2), rho, 1)


# ---------------------------------------------------------------------------
# cohomology dimensions
# ---------------------------------------------------------------------------

def test_abelian_r2_has_one_dimensional_h2():
    rep = cohomology_dims(r2_abelian(), None, 2)
    assert rep.dims_h[2] == 1


def test_su2_adjoint_cohomology_vanishes():
    alg = su(2)
    rep = cohomology_dims(alg, alg.adjoint_rep(), 2)
    assert rep.dims_h[1] == 0 and rep.dims_h[2] == 0


def test_su2_trivial_h3_is_structure_constants_class():
    alg = su(2)
    rep = cohomology_dims(alg, None, 3)
    assert rep.dims_h[3] == 1
    # the fully lowered structure constants are a non-trivial representative
    om = Cochain(3, 3, 1, {(1, (1, 2, 3)): Fraction(1)})
    assert coboundary(alg, None, om).is_zero()
    # not a coboundary: no 2-cochain maps onto it
    from naryalg.claims import _coboundary_preimage
    assert _coboundary_preimage(alg, None, om) is None


def test_su4_cohomology_through_degree_3():
    # theory: H(su(4)) = H(S^3 x S^5 x S^7) (Chevalley-Eilenberg 1948)
    rep = cohomology_dims(su(4), None, 3)
    assert [rep.dims_h[p] for p in range(4)] == [1, 0, 0, 1]
    assert [rep.dims_c[p] for p in range(4)] == [1, 15, 105, 455]


def test_su4_cohomology_through_degree_5():
    # theory: H(su(4)) = H(S^3 x S^5 x S^7), so H^4 = 0 and H^5 = 1
    rep = cohomology_dims(su(4), None, 5)
    assert [rep.dims_h[p] for p in range(6)] == [1, 0, 0, 1, 0, 1]
    assert [rep.dims_c[p] for p in range(6)] == [1, 15, 105, 455, 1365, 3003]


def test_su4_cohomology_through_degree_8():
    # theory: H(su(4)) = H(S^3 x S^5 x S^7): Poincare polynomial
    # (1 + t^3)(1 + t^5)(1 + t^7), so H^8 = 1 (t^3 t^5) and H^7 = 1
    rep = cohomology_dims(su(4), None, 8)
    assert [rep.dims_h[p] for p in range(9)] == [1, 0, 0, 1, 0, 1, 0, 1, 1]


def test_h_dims_nonnegative_everywhere():
    for alg in (su(2), heisenberg(), r2_abelian()):
        rep = cohomology_dims(alg, None, min(3, alg.dim))
        assert all(v >= 0 for v in rep.dims_h.values())


# ---------------------------------------------------------------------------
# the homotopy operator
# ---------------------------------------------------------------------------

def test_casimir_is_scalar_for_su2_adjoint():
    alg = su(2)
    cas = quadratic_casimir(alg, alg.adjoint_rep())
    assert cas == linalg.sp_identity(3)


def test_homotopy_inverts_coboundary_on_cocycles():
    rng = random.Random(9)
    alg = su(2)
    rho = alg.adjoint_rep()
    beta = random_cochain(rng, 1, 3, 3)
    coc = coboundary(alg, rho, beta)  # a 2-cocycle by nilpotency
    tau = whitehead_homotopy(alg, rho, coc)
    assert coboundary(alg, rho, tau) == coc


def test_homotopy_zero_on_zero():
    alg = su(2)
    z = Cochain(2, 3, 3, {})
    assert whitehead_homotopy(alg, alg.adjoint_rep(), z).is_zero()


def test_laplacian_identity_on_random_cochains():
    rng = random.Random(10)
    alg = su(2)
    rho = alg.adjoint_rep()
    for p in (1, 2):
        om = random_cochain(rng, p, 3, 3)
        assert laplacian_identity_holds(alg, rho, om)


def test_homotopy_requires_invertible_killing():
    alg = heisenberg()
    om = Cochain(2, 3, 3, {})
    with pytest.raises(ValueError):
        whitehead_homotopy(alg, alg.adjoint_rep(), om)


# ---------------------------------------------------------------------------
# central extensions
# ---------------------------------------------------------------------------

def test_abelian_extension_is_heisenberg():
    om = Cochain(2, 2, 1, {(1, (1, 2)): Fraction(1)})
    ext = central_extension(r2_abelian(), om)
    assert ext.dim == 3 and ext.c == heisenberg().c
    assert check_jacobi(ext).ok
    assert trivialize_extension(r2_abelian(), om) is None  # non-trivial class


def test_zero_cocycle_gives_direct_sum():
    alg = su(2)
    ext = central_extension(alg, Cochain(2, 3, 1, {}))
    assert ext.dim == 4 and ext.c == alg.c


def test_su2_extensions_always_trivialize():
    rng = random.Random(11)
    alg = su(2)
    om1 = random_cochain(rng, 1, 3, 1)
    om2 = coboundary(alg, None, om1)
    sol = trivialize_extension(alg, om2)
    assert sol is not None
    # the basis change reproduces the cocycle: s(om1') = om2
    om1p = Cochain(1, 3, 1, {(1, (i,)): sol[i - 1] for i in range(1, 4)})
    assert coboundary(alg, None, om1p) == om2


def test_cochain_rejects_keys_outside_its_spaces():
    with pytest.raises(ValueError, match="target index 2 outside 1..1"):
        Cochain(2, 3, 1, {(2, (1, 2)): Fraction(1)})
    with pytest.raises(ValueError, match="target index 0 outside 1..3"):
        Cochain(1, 3, 3, {(0, (1,)): Fraction(1)})
    with pytest.raises(ValueError, match="does not fit"):
        Cochain(2, 3, 1, {(1, (1, 2, 3)): Fraction(1)})
    # the 2-cochain on su(2) at (1, 9) used to extend to a dim-4 algebra
    # with a bracket at (1, 9) that passed check_jacobi
    with pytest.raises(ValueError, match="does not fit"):
        central_extension(su(2), Cochain(2, 3, 1, {(1, (1, 9)): 1}))


def test_non_cocycle_rejected():
    alg = su(2)
    bad = Cochain(2, 3, 1, {(1, (1, 2)): Fraction(1)})
    if not coboundary(alg, None, bad).is_zero():
        with pytest.raises(ValueError):
            central_extension(alg, bad)


# ---------------------------------------------------------------------------
# deformations
# ---------------------------------------------------------------------------

def test_coboundary_deformation_is_trivial():
    rng = random.Random(12)
    alg = su(2)
    beta = random_cochain(rng, 1, 3, 3)
    alpha = coboundary(alg, alg.adjoint_rep(), beta)
    rep = deformation_check(alg, alpha)
    assert rep.is_cocycle and rep.is_coboundary
    assert rep.obstruction_is_cocycle and rep.obstruction_is_coboundary


def test_rotation_translation_algebra_admits_true_deformation():
    # deforming the plane rotation-translation algebra toward the simple
    # rotation algebra: alpha(P1, P2) = J is a non-trivial cocycle
    alg = euclidean_rotations_2d()
    alpha = Cochain(2, 3, 3, {(1, (2, 3)): Fraction(1)})
    rep = deformation_check(alg, alpha)
    assert rep.is_cocycle and not rep.is_coboundary
    # the deformed algebra at t=1 is the simple rotation algebra
    entries = []
    for i in range(1, 4):
        for j in range(i + 1, 4):
            for k in range(1, 4):
                v = alg.get((i, j), k) + alpha.get(k, (i, j))
                if v:
                    entries.append(((i, j, k), v))
    deformed = LieAlgebra.from_entries(3, entries)
    assert check_jacobi(deformed).ok
    from naryalg.lie import killing_form
    assert linalg.det(killing_form(deformed)) != 0  # became semisimple


def test_zero_deformation():
    alg = su(2)
    rep = deformation_check(alg, Cochain(2, 3, 3, {}))
    assert rep.is_cocycle and rep.obstruction.is_zero()


def test_non_cocycle_deformation_detected():
    alg = su(2)
    alpha = Cochain(2, 3, 3, {(1, (1, 2)): Fraction(1)})
    rep = deformation_check(alg, alpha)
    assert not rep.is_cocycle


# ---------------------------------------------------------------------------
# pinned preimages: the solution with every non-pivot coordinate zero
# ---------------------------------------------------------------------------

def draw(rng):
    v = 0
    while v == 0:
        v = rng.randint(-3, 3)
    return v


def test_su3_preimage_witnesses_are_pinned():
    rng = random.Random(2)
    alg = su(3)
    gamma = Cochain(1, 8, 1, {(1, (i,)): draw(rng) for i in range(1, 9)})
    w = trivialize_extension(alg, coboundary(alg, None, gamma))
    assert [str(v) for v in w] == ["3", "3", "-3", "-3", "-3", "-1", "3", "-2"]
    rho = alg.adjoint_rep()
    beta = Cochain(1, 8, 8, {(a, (i,)): draw(rng) for a in range(1, 9) for i in range(1, 9)
                             if rng.random() < 0.3})
    pre = _coboundary_preimage(alg, rho, coboundary(alg, rho, beta))
    assert pre.data == {(1, (7,)): 2, (2, (6,)): -3, (3, (5,)): -2, (3, (6,)): -3,
                        (3, (7,)): -2, (3, (8,)): 1, (6, (2,)): -1, (7, (6,)): -1}


SU3_POTENTIAL_SHA256 = "e6cfc168d4ba0d135aefa5506ae52195a067509ef3b5be842339252816c649f2"


def su3_deformation_potential(alg):
    """The obstruction potential of a seeded trivial deformation of alg
    (su(3)), checked to map onto the obstruction."""
    rng = random.Random(7)
    rho = alg.adjoint_rep()
    beta = Cochain(1, 8, 8, {(a, (i,)): draw(rng) for a in range(1, 9) for i in range(1, 9)
                             if rng.random() < 0.3})
    rep = deformation_check(alg, coboundary(alg, rho, beta))
    pot = rep.obstruction_potential
    assert rep.obstruction_is_coboundary and coboundary(alg, rho, pot) == rep.obstruction
    return pot


def sha256_of(pot):
    return hashlib.sha256(repr(sorted(pot.data.items())).encode()).hexdigest()


def test_su3_deformation_potential_is_pinned():
    # the obstruction of a trivial deformation alpha = s(beta) of su(3) is a
    # coboundary; its potential is the solution with non-pivot coordinates zero
    pot = su3_deformation_potential(su(3))
    assert len(pot.data) == 162
    assert sorted(pot.data.items())[:3] == [((1, (1, 2)), Fraction(9, 2)),
                                            ((1, (1, 3)), Fraction(-15, 4)), ((1, (1, 4)), -2)]
    assert sha256_of(pot) == SU3_POTENTIAL_SHA256


@pytest.mark.parametrize("warm", ["first", "twice", "after"])
def test_su3_deformation_potential_does_not_depend_on_the_memo(warm):
    # su(3) is one shared catalog object, so "first" runs on a new copy
    alg = LieAlgebra(8, {key: dict(row) for key, row in su(3).c.items()})
    if warm == "after":
        cohomology_dims(alg, None, 8)
    for _ in range(2 if warm == "twice" else 1):
        assert sha256_of(su3_deformation_potential(alg)) == SU3_POTENTIAL_SHA256
