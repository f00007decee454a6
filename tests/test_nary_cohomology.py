import random
import re
from fractions import Fraction
from itertools import combinations, product

import pytest

import dense_reference as dense
from naryalg import lie, linalg
from naryalg.catalog import a4, a5, nhw
from naryalg.claims import (deformation_obstruction, duality_pairing_holds, fa_central_extension,
                            homology_boundary, jointly_antisymmetric_in_last_slot, mc_zero_cochain)
from naryalg.filippov import FilippovAlgebra, check_fi
from naryalg.lie import Representation, check_representation
from naryalg.nary_cohomology import (FAComplex, NCochain, coboundary_at, coboundary_matrix,
                                     deformation_preimage, fa_coboundary,
                                     fa_coboundary_deformation, fa_coboundary_trivial,
                                     fa_cohomology_dims, module_keys, trivial_keys,
                                     trivialize_fa_extension)
from naryalg.tensors import IdentityReport, insert_sign

ALGEBRAS = {"a4": a4, "nhw1": lambda: nhw(1)}


def unit_cochain_matrix(cx, p):
    """(rows, src, dst) of delta_p on the complex cx with each column the
    coboundary of a unit cochain, through the user-facing operator: the
    column-wise assembly, kept as the reference."""
    fa, kind, dv = cx.fa, cx.kind, cx.size
    keys = module_keys if kind == "module" else trivial_keys
    src = [(key, a) for key in keys(fa, p) for a in range(dv)]
    dst = [(key, t) for key in keys(fa, p + 1) for t in range(dv)]
    images = []
    for key, a in src:
        unit = NCochain(kind, p, fa.arity, fa.dim, dv,
                        {key: tuple(Fraction(t == a) for t in range(dv))})
        images.append(fa_coboundary(cx, unit))
    rows = [{j: img.value(key)[t] for j, img in enumerate(images) if img.value(key)[t]}
            for key, t in dst]
    return rows, src, dst


def assert_rows_are_d_delta(cx, p):
    """coboundary_matrix(cx, p) is (rows, D) with rows = D delta_p in ints,
    delta_p the unit-cochain reference, on the coordinates of cx."""
    rows, d = coboundary_matrix(cx, p)
    want, src, dst = unit_cochain_matrix(cx, p)
    assert (d, src, dst) == (cx.d, cx.coords(p), cx.coords(p + 1))
    assert rows == [{c: d * v for c, v in row.items()} for row in want]
    assert all(type(v) is int for row in rows for v in row.values())


# A5 has arity 4: its blocks have odd length, so a sign (-1)^len(X) shows
UNIT_PARITY = {**ALGEBRAS, "a5": a5}


@pytest.mark.parametrize("name", sorted(UNIT_PARITY))
@pytest.mark.parametrize("kind", ["trivial", "module", "deformation"])
@pytest.mark.parametrize("p", [0, 1])
def test_row_assembly_matches_unit_cochain_columns(name, kind, p):
    fa = UNIT_PARITY[name]()
    rho = fa.adjoint_rep() if kind == "module" else None
    assert_rows_are_d_delta(FAComplex(fa, kind, rho), p)


@pytest.mark.parametrize("p", [0, 1])
def test_row_assembly_scales_by_the_module_denominators(p):
    # the adjoint module of A4 conjugated by a rational matrix: its entries
    # have denominators the constants lack
    fa = a4()
    q = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    q[0][1], q[2][3], q[3][0] = Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)
    qinv = dense.to_map(linalg.inverse(q))
    q = dense.to_map(q)
    rho = Representation(fa, {lab: linalg.sp_mul(qinv, linalg.sp_mul(m, q))
                              for lab, m in fa.adjoint_rep().mats.items()}, 4)
    assert any(x.denominator > 1 for m in rho.mats.values() for x in m.values())
    cx = FAComplex(fa, "module", rho)
    assert cx.d > 1
    assert_rows_are_d_delta(cx, p)


def test_simple_a4_has_no_trivial_cohomology_through_degree_3():
    # theory: a simple Filippov algebra has no central extensions (H^0 = H^1
    # = 0); degrees 2 and 3 vanish as well
    rep = fa_cohomology_dims(a4(), "trivial", 3)
    assert [rep.dims_h[p] for p in range(4)] == [0, 0, 0, 0]
    assert [rep.dims_c[p] for p in range(4)] == [4, 4, 24, 144]


@pytest.mark.parametrize("name,kind,p_max,dims_h,dims_c", [
    # "pinned" marks a value taken from the Fraction elimination that the
    # fraction-free one replaced, not from theory
    # theory: H^0 = Der(A4) = so(4), dim 6, and A4 is rigid (H^1 = 0);
    # H^2 = H^3 = 0 pinned
    ("a4", "deformation", 3, [6, 0, 0, 0], [16, 16, 96, 576]),
    # theory: H^0 = Der(A5) = so(5), dim 10, and A5 is rigid; H^2 = 0 pinned
    ("a5", "deformation", 2, [10, 0, 0], [25, 25, 250]),
    # theory: the n-ary Whitehead lemma, H^0 = H^1 = 0 for a simple FA (no
    # central extensions); H^2 = 0 pinned
    ("a5", "trivial", 2, [0, 0, 0], [5, 5, 50]),
    # pinned
    ("nhw2", "trivial", 1, [6, 19], [7, 35]),
    # pinned
    ("nhw2", "deformation", 2, [23, 51, 429], [49, 245, 5145]),
])
def test_fa_cohomology_is_pinned(name, kind, p_max, dims_h, dims_c):
    fa = {"a4": a4, "a5": a5, "nhw2": lambda: nhw(2)}[name]()
    rep = fa_cohomology_dims(fa, kind, p_max)
    assert [rep.dims_h[p] for p in range(p_max + 1)] == dims_h
    assert [rep.dims_c[p] for p in range(p_max + 1)] == dims_c


# ---------------------------------------------------------------------------
# pinned preimages: the solution with every non-pivot coordinate zero
# ---------------------------------------------------------------------------

def draw(rng):
    v = 0
    while v == 0:
        v = rng.randint(-3, 3)
    return v


A4_DEFORMATION_WITNESS = {((1, 2, 3),): (-1, 4, 3, 0), ((1, 2, 4),): (0, 2, 0, 0),
                          ((1, 3, 4),): (1, 0, 0, 0)}
NHW2_TRIVIALIZATION = ["0", "0", "0", "0", "0", "0", "-3"]


def a4_deformation_witness(fa):
    """The preimage of the coboundary of a seeded deformation 1-cochain of
    fa (A4), checked to map onto it."""
    rng = random.Random(3)
    beta = NCochain("deformation", 1, 3, 4, 4,
                    {k: tuple(rng.randint(-3, 3) for _ in range(4)) for k in trivial_keys(fa, 1)})
    target = fa_coboundary_deformation(fa, beta)
    w = deformation_preimage(fa, target)
    assert fa_coboundary_deformation(fa, w).data == target.data
    return w.data


def nhw2_trivialization(fa):
    """The basis change that trivializes the extension by the coboundary of
    a seeded 0-cochain of fa (nhw(2))."""
    rng = random.Random(4)
    gamma = NCochain("trivial", 0, 3, 7, 1, {(z,): (draw(rng),) for z in range(1, 8)})
    return [str(v) for v in trivialize_fa_extension(fa, fa_coboundary_trivial(fa, gamma))]


def test_a4_deformation_preimage_is_pinned():
    assert a4_deformation_witness(a4()) == A4_DEFORMATION_WITNESS


def test_nhw2_extension_trivialization_is_pinned():
    assert nhw2_trivialization(nhw(2)) == NHW2_TRIVIALIZATION


@pytest.mark.parametrize("warm", ["twice", "after"])
def test_pinned_preimages_do_not_depend_on_the_memo(warm):
    # the pinned tests call on a fresh algebra; here its complexes are in use:
    # the same call again, or every complex of the algebra ranked first
    for fa, witness, want in ((a4(), a4_deformation_witness, A4_DEFORMATION_WITNESS),
                              (nhw(2), nhw2_trivialization, NHW2_TRIVIALIZATION)):
        if warm == "after":
            for kind in ("trivial", "module", "deformation"):
                fa_cohomology_dims(fa, kind, 1)
        for _ in range(2 if warm == "twice" else 1):
            assert witness(fa) == want


# ---------------------------------------------------------------------------
# properties of the three complexes on seeded random cochains
# ---------------------------------------------------------------------------

def random_cochain(fa, kind, p, seed):
    rng = random.Random(seed)
    dv = 1 if kind == "trivial" else fa.dim
    keys = module_keys(fa, p) if kind == "module" else trivial_keys(fa, p)
    return NCochain(kind, p, fa.arity, fa.dim, dv,
                    {key: tuple(draw(rng) for _ in range(dv)) for key in keys})


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@pytest.mark.parametrize("kind", ["trivial", "module", "deformation"])
def test_kernel_built_cochains_are_what_the_constructor_makes(name, kind):
    # the coboundary operators skip the constructor's pass: their data must
    # already be canonical, also where a value sums no term (unit cochains)
    fa = ALGEBRAS[name]()
    cx = FAComplex(fa, kind, fa.adjoint_rep() if kind == "module" else None)
    keys = module_keys if kind == "module" else trivial_keys
    for p in (0, 1):
        dv = 1 if kind == "trivial" else fa.dim
        unit = NCochain(kind, p, fa.arity, fa.dim, dv, {keys(fa, p)[-1]: (Fraction(1),) * dv})
        for alpha in (unit, random_cochain(fa, kind, p, 11)):
            out = fa_coboundary(cx, alpha)
            rebuilt = NCochain(kind, p + 1, fa.arity, fa.dim, dv, dict(out.data))
            assert out == rebuilt
            assert all(type(v) is Fraction for vec in out.data.values() for v in vec)
            assert all(any(vec) for vec in out.data.values())
            assert ([out.value(key) for key in keys(fa, p + 1)]
                    == [rebuilt.value(key) for key in keys(fa, p + 1)])


def basis_chains(fa, p):
    """(blocks, z) of every basis chain dual to the trivial p-cochains."""
    blocks = list(combinations(range(1, fa.dim + 1), fa.arity - 1))
    return [(list(bs), z) for bs in product(blocks, repeat=p + 1)
            for z in range(1, fa.dim + 1)]


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@pytest.mark.parametrize("p", [0, 1, 2])
def test_duality_pairing_holds_on_every_basis_chain(name, p):
    # at chain length 1 the boundary once carried the sign +1 in place of
    # the (-1)^1 of the trivial coboundary
    fa = ALGEBRAS[name]()
    alpha = random_cochain(fa, "trivial", p, seed=10 + p)
    assert not alpha.is_zero()
    assert duality_pairing_holds(fa, alpha, basis_chains(fa, p))


@pytest.mark.parametrize("name", ["a4", "a5", "nhw2"])
@pytest.mark.parametrize("p", [1, 2])
def test_homology_boundary_equals_the_compose_reference(name, p):
    # the first 300 basis chains one at a time; then every basis chain (a
    # seeded sample of 5,000 of nhw2's 64,827 at p = 2) in one chain, with
    # each block in a seeded order (raw, signed) and a seeded coefficient
    fa = {"a4": a4, "a5": a5, "nhw2": lambda: nhw(2)}[name]()
    rng = random.Random(30 + p)
    chains = basis_chains(fa, p)
    for blocks, z in chains[:300]:
        one = [(tuple(blocks), z, Fraction(1))]
        assert homology_boundary(fa, one) == dense.homology_boundary(fa, one)
    if len(chains) > 5000:
        chains = rng.sample(chains, 5000)
    raw = [(tuple(tuple(rng.sample(b, len(b))) for b in blocks), z,
            Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for blocks, z in chains]
    got = homology_boundary(fa, raw)
    assert got == dense.homology_boundary(fa, raw)
    assert got and all(type(v) is Fraction for v in got.values())


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@pytest.mark.parametrize("kind", ["trivial", "module", "deformation"])
@pytest.mark.parametrize("p", [0, 1])
def test_coboundary_squares_to_zero(name, kind, p):
    fa = ALGEBRAS[name]()
    alpha = random_cochain(fa, kind, p, seed=20 + p)
    if kind == "trivial":
        twice = fa_coboundary_trivial(fa, fa_coboundary_trivial(fa, alpha))
    elif kind == "module":
        cx = FAComplex(fa, kind, fa.adjoint_rep())
        twice = fa_coboundary(cx, fa_coboundary(cx, alpha))
    else:
        twice = fa_coboundary_deformation(fa, fa_coboundary_deformation(fa, alpha))
    assert twice.is_zero()


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@pytest.mark.parametrize("kind", ["trivial", "deformation"])
@pytest.mark.parametrize("p", [0, 1])
def test_coboundary_is_jointly_antisymmetric_in_the_last_slot(name, kind, p):
    fa = ALGEBRAS[name]()
    alpha = random_cochain(fa, kind, p, seed=30 + p)
    assert jointly_antisymmetric_in_last_slot(fa, kind, alpha, p + 1)


@pytest.mark.parametrize("kind,p", [("trivial", 2), ("deformation", 1)])
def test_one_evaluation_of_many_points_reads_each_point(kind, p):
    # the checks above evaluate all their points at once: each point must get
    # its own value, in order, at raw block orders and at repeated indices
    # (the trivial coboundary of every A4 1-cochain vanishes, hence p = 2)
    fa = a4()
    alpha = random_cochain(fa, kind, p, seed=54)
    delta = (fa_coboundary_trivial if kind == "trivial" else fa_coboundary_deformation)(fa, alpha)
    rng = random.Random(54)
    points = [([tuple(rng.sample(range(1, 5), 2)) for _ in range(p + 1)], rng.randint(1, 4))
              for _ in range(60)] + [([(1, 1)] + [(2, 3)] * p, 4)]
    got = coboundary_at(FAComplex(fa, kind), alpha, points)
    assert got == [delta.value((*bs[:-1], bs[-1] + (z,))) for bs, z in points]
    assert any(any(vec) for vec in got) and any(not any(vec) for vec in got)


# ---------------------------------------------------------------------------
# the dimension of the coefficients comes from the complex
# ---------------------------------------------------------------------------

def test_module_complex_takes_its_dimension_from_rho():
    # theory: a simple FA has no invariants and no outer derivations in the
    # adjoint module, H^0 = H^1 = 0; a dim_v knob once defaulted to 1 here
    # and gave dims_c 1, 6 and H 1, 0
    rep = fa_cohomology_dims(a4(), "module", 1, rho=a4().adjoint_rep())
    assert [rep.dims_c[p] for p in range(2)] == [4, 24]
    assert [rep.dims_h[p] for p in range(2)] == [0, 0]


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_the_module_complex_defaults_to_the_adjoint_module(name):
    fa = ALGEBRAS[name]()
    rho = fa.adjoint_rep()
    default, given = FAComplex(fa, "module"), FAComplex(fa, "module", rho)
    for p in range(3):
        assert coboundary_matrix(default, p) == coboundary_matrix(given, p)
    assert fa_cohomology_dims(fa, "module", 1) == fa_cohomology_dims(fa, "module", 1, rho)


def test_the_dimension_of_the_coefficients_is_not_a_parameter():
    # with dim_v=2 the adjoint module complex of A4 once gave H^1 = -2
    rho = a4().adjoint_rep()
    with pytest.raises(TypeError):
        fa_cohomology_dims(a4(), "module", 1, dim_v=2, rho=rho)
    with pytest.raises(ValueError, match="dim_v 2"):
        FAComplex(a4(), "module", rho, 2)


def test_a_target_of_the_wrong_dimension_is_refused():
    # the coboundary of mc_zero_cochain has dim_v = dim: trivialising it as
    # an extension once solved coordinate 0 alone and returned the zero
    # vector as a preimage
    fa = nhw(1)
    target = fa_coboundary_trivial(fa, mc_zero_cochain(fa))
    assert target.dim_v == 4 and not target.is_zero()
    with pytest.raises(ValueError, match="dim_v"):
        trivialize_fa_extension(fa, target)
    with pytest.raises(ValueError, match="dim_v"):
        deformation_preimage(fa, NCochain("deformation", 1, 3, 4, 1, {((1, 2, 3),): (1,)}))
    cx = FAComplex(fa, "module", fa.adjoint_rep())
    with pytest.raises(ValueError, match="dim_v"):
        fa_coboundary(cx, NCochain("module", 0, 3, 4, 1, {(): (1,)}))
    with pytest.raises(ValueError, match="dim_v"):
        coboundary_at(cx, NCochain("module", 0, 3, 4, 1, {(): (1,)}), [([(1, 2)], None)])
    with pytest.raises(ValueError, match="dim_v"):
        fa_coboundary_deformation(fa, NCochain("deformation", 0, 3, 4, 1, {(1,): (1,)}))


def test_an_evaluation_takes_one_block_more_than_the_order():
    # a 1-cochain's coboundary is read at two blocks; three once read zero
    # and one raised a TypeError from inside the key sort
    fa = a4()
    alpha = random_cochain(fa, "trivial", 1, seed=52)
    cx = FAComplex(fa, "trivial")
    assert coboundary_at(cx, alpha, [([(1, 2), (3, 4)], 1)]) == \
        [fa_coboundary_trivial(fa, alpha).value(((1, 2), (3, 4, 1)))]
    with pytest.raises(ValueError, match="takes 2 blocks"):
        coboundary_at(cx, alpha, [([(1, 2)], 3)])
    with pytest.raises(ValueError, match="takes 2 blocks"):
        coboundary_at(FAComplex(fa, "deformation"), random_cochain(fa, "deformation", 1, seed=53),
                      [([(1, 2), (2, 3), (3, 4)], 1)])


@pytest.mark.parametrize("kind", ["trivial", "module", "deformation"])
@pytest.mark.parametrize("block", [(1, 2, 3), (1,), (), (1, 9), (0, 2), (5, 5)])
def test_an_evaluation_refuses_a_malformed_block(kind, block):
    # a block of the wrong length or with an index outside 1..dim once
    # raised a bare KeyError from the block numbering
    fa = a4()
    cx = FAComplex(fa, kind)
    alpha = random_cochain(fa, kind, 1, seed=56)
    with pytest.raises(ValueError, match=re.escape(f"block {block!r} is not 2 indices in 1..4")):
        coboundary_at(cx, alpha, [([(1, 2), (3, 4)], 1), ([block, (1, 2)], 4)])
    with pytest.raises(ValueError, match=re.escape(f"block {block!r}")):
        coboundary_at(cx, alpha, [([(1, 2), block], 4)])


def test_a_complex_checks_no_module(monkeypatch):
    # a complex with a given rho was once built, and rho checked, anew on
    # every coboundary_matrix, coboundary_at and module coboundary call; a
    # module is checked where it is built, and no complex checks it again
    fa = a4()
    rho = Representation(fa, fa.adjoint_rep().mats, 4)
    calls = []
    check = lie.check_representation
    monkeypatch.setattr(lie, "check_representation",
                        lambda fa, rho: calls.append(rho) or check(fa, rho))
    cx = FAComplex(fa, "module", rho)
    alpha = random_cochain(fa, "module", 1, seed=57)
    delta = fa_coboundary(cx, alpha)
    for blocks in product(combinations(range(1, 5), 2), repeat=2):
        assert coboundary_at(cx, alpha, [(blocks, None)]) == [delta.value(blocks)]
    assert fa_coboundary(cx, delta).is_zero() and coboundary_matrix(cx, 2)[1] == 1
    assert calls == []


# ---------------------------------------------------------------------------
# statements of the paper on mc_zero_cochain, central extensions and the
# deformation obstruction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["a4", "a5", "nhw1"])
def test_coboundary_of_mc_zero_cochain_is_the_structure_constants(name):
    fa = {"a4": a4, "a5": a5, "nhw1": lambda: nhw(1)}[name]()
    delta = fa_coboundary_trivial(fa, mc_zero_cochain(fa))
    for (idx,) in (key for key in trivial_keys(fa, 1)):
        assert delta.value((idx,)) == tuple(fa.get(idx, t) for t in range(1, fa.dim + 1))
    if name == "a4":
        assert delta.data[((1, 2, 3),)] == (0, 0, 0, -1)


def test_central_extension_by_a_trivial_one_cocycle():
    fa = nhw(1)
    rep = fa_cohomology_dims(fa, "trivial", 1)
    assert rep.dims_z[1] == 4
    alpha = random_cochain(fa, "trivial", 1, seed=50)
    assert fa_coboundary_trivial(fa, alpha).is_zero()
    ext = fa_central_extension(fa, alpha)
    assert ext.dim == 5 and check_fi(ext).ok
    for (idx,), (v,) in alpha.data.items():
        assert ext.get(idx, 5) == v


def test_central_extension_by_a_non_cocycle_is_refused():
    # every trivial 1-cochain of nhw1 is a cocycle; nhw2 has Z^1 = 20 < 35
    fa = nhw(2)
    alpha = random_cochain(fa, "trivial", 1, seed=51)
    assert not fa_coboundary_trivial(fa, alpha).is_zero()
    with pytest.raises(ValueError, match="not a 1-cocycle"):
        fa_central_extension(fa, alpha)


def deformation_cocycles(fa, seed, count):
    """Seeded integer combinations of a basis of the deformation 1-cocycles."""
    cx = FAComplex(fa, "deformation")
    rows, src = cx.matrix(1), cx.coords(1)
    basis = dense.nullspace([[row.get(c, 0) for c in range(len(src))] for row in rows])
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        cs = [rng.randint(-2, 2) for _ in basis]
        data = {}
        for col, (key, a) in enumerate(src):
            data.setdefault(key, [0] * fa.dim)[a] = sum(c * b[col] for c, b in zip(cs, basis))
        out.append(NCochain("deformation", 1, fa.arity, fa.dim, fa.dim,
                            {k: tuple(v) for k, v in data.items()}))
    return out


@pytest.mark.parametrize("name", ["a4", "nhw1"])
def test_deformation_obstruction_is_a_two_cocycle(name):
    # theory: the obstruction to integrating an infinitesimal deformation is
    # a 2-cocycle; A4 is rigid (H^1 = 0), so its gamma vanishes, while nhw1
    # (H^1 = 9) gives a gamma with 9 entries that is not a coboundary
    fa = a4() if name == "a4" else nhw(1)
    assert fa_cohomology_dims(fa, "deformation", 1).dims_h[1] == (0 if name == "a4" else 9)
    for alpha in deformation_cocycles(fa, seed=7, count=3):
        assert not alpha.is_zero()
        gamma, is_cocycle, pre = deformation_obstruction(fa, alpha)
        assert is_cocycle
        if name == "a4":
            assert gamma.is_zero() and pre is not None
        else:
            assert len(gamma.data) == 9 and pre is None


# ---------------------------------------------------------------------------
# one table set per call: the degrees of a call share D, the actions and the
# placement table, and read what each degree alone reads
# ---------------------------------------------------------------------------

def fa_shear_copy(fa, rng, steps=8):
    """The copy of fa in the basis X'_j = sum_i P_ij X_i, P a product of
    elementary integer shears (det 1, so P^{-1} is integral too)."""
    d = fa.dim
    p = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(steps):
        i, j = rng.sample(range(d), 2)
        s = rng.choice((-1, 1))
        for row in p:
            row[j] += s * row[i]
    pinv = linalg.inverse([[Fraction(x) for x in row] for row in p])
    cols = [[Fraction(p[r][j]) for r in range(d)] for j in range(d)]
    f = {}
    for idx in combinations(range(d), fa.arity):
        w = fa.bracket([cols[a] for a in idx])
        row = {k + 1: v for k in range(d) if (v := sum(pinv[k][r] * w[r] for r in range(d)))}
        if row:
            f[tuple(a + 1 for a in idx)] = row
    return FilippovAlgebra(fa.arity, d, f)


SHARED = {"a4": a4, "a5": a5, "nhw2": lambda: nhw(2),
          "a4-shear": lambda: fa_shear_copy(a4(), random.Random(5))}


def test_shear_copy_is_a_denser_a4():
    fa = SHARED["a4-shear"]()
    assert check_fi(fa).ok
    assert sum(map(len, fa.f.values())) > sum(map(len, a4().f.values()))


@pytest.mark.parametrize("name", sorted(SHARED))
@pytest.mark.parametrize("kind", ["trivial", "module", "deformation"])
def test_degrees_read_the_same_rows_from_one_table_set(name, kind):
    fa = SHARED[name]()
    rho = fa.adjoint_rep() if kind == "module" else None
    shared = FAComplex(fa, kind, rho)
    for p in range(3):
        alone = FAComplex(fa, kind, rho).matrix(p)
        assert [list(row.items()) for row in shared.matrix(p)] == \
            [list(row.items()) for row in alone]


@pytest.mark.parametrize("name", sorted(SHARED))
def test_placement_table_is_insert_sign(name):
    fa = SHARED[name]()
    rng = range(1, fa.dim + 1)
    for kind in ("trivial", "deformation"):
        # place[X][z - 1]: X ^ z by its number among the sorted n-tuples, and its sign
        last = {y: i for i, y in enumerate(combinations(rng, fa.arity))}
        want = [[(last[key], s) if s else None
                 for key, s in (insert_sign(x, fa.arity - 1, z) for z in rng)]
                for x in combinations(rng, fa.arity - 1)]
        assert [list(row) for row in FAComplex(fa, kind).place] == want


def test_a_misspelled_complex_kind_is_refused():
    # "deformaton" once fell through every branch and ran the trivial complex
    fa = a4()
    for call in (lambda: fa_cohomology_dims(fa, "deformaton", 1),
                 lambda: FAComplex(fa, "deformaton"),
                 lambda: jointly_antisymmetric_in_last_slot(
                     fa, "deformaton", random_cochain(fa, "deformation", 0, seed=3), 1)):
        with pytest.raises(ValueError, match="'deformaton'.*trivial, module, deformation"):
            call()


def test_a_module_that_fails_the_representation_conditions_is_refused():
    # the one-dimensional rho sending X_1 ^ X_2 to 1 and every other block to
    # 0 is no A4-module; its complex once reported H = 0, -1, -6 through p = 2
    fa = a4()
    mats = {lab: {(0, 0): 1} if lab == (1, 2) else {} for lab in combinations(range(1, 5), 2)}
    with pytest.raises(ValueError, match="not a representation"):
        Representation(fa, mats, 1)


def test_a_bad_module_names_the_failing_pair():
    # the same rho: [rho(X_1 ^ X_3), rho(X_1 ^ X_4)] = 0, while X_1 ^ X_3 .
    # X_1 ^ X_4 = -X_1 ^ X_2 (f_134^2 = -1 on A4) reads rho = -1
    fa = a4()
    rho = Representation(fa, {lab: {} for lab in combinations(range(1, 5), 2)}, 1)
    rho.mats[(1, 2)] = {(0, 0): 1}
    assert check_representation(fa, rho) == IdentityReport(False, ((1, 3), (1, 4)))
    with pytest.raises(ValueError) as exc:
        Representation(fa, rho.mats, 1)
    assert str(exc.value) == "not a representation: residual at ((1, 3), (1, 4))"
