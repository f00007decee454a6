"""The Filippov complexes as one Leibniz complex of the fundamental objects.

The slow references below are the three hand-written coboundary formulas of
the trivial, module and deformation complexes, their kind switch and the
dense binary Leibniz coboundary that the single Leibniz evaluation of
`nary_cohomology` replaced; it must reproduce them exactly."""

import random
from fractions import Fraction
from itertools import combinations, product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from naryalg import LeibnizAlgebra, linalg
from naryalg.catalog import a4, a5, corrupted, heisenberg, nhw, nilpotent_leibniz, su
from naryalg.claims import leibniz_coboundary, leibniz_extension
from naryalg.cohomology import Cochain, basis_tuples, coboundary, complex_dims, integer_scaling
from naryalg.filippov import FilippovAlgebra
from naryalg.lie import fundamental_compose
from naryalg.nary_cohomology import (FAComplex, LeibnizComplex, NCochain, coboundary_at,
                                     coboundary_matrix, fa_coboundary, fa_coboundary_deformation,
                                     fa_coboundary_trivial, fundamental_tables,
                                     leibniz_rep_conditions, module_keys, trivial_keys)
from naryalg.scalars import LinearForm
from naryalg.tensors import sort_sign

# ---------------------------------------------------------------------------
# slow references
# ---------------------------------------------------------------------------


def ref_trivial_eval(fa, alpha, blocks, z):
    p1 = len(blocks)
    dim_v = alpha.dim_v
    out = [0] * dim_v

    def alpha_at(bs, zz):
        if not bs:
            return alpha.value((zz,))
        key = tuple(tuple(b) for b in bs[:-1]) + (tuple(bs[-1]) + (zz,),)
        return alpha.value(key)

    for i in range(p1):
        for j in range(i + 1, p1):
            comp = fundamental_compose(fa, blocks[i], blocks[j])
            rest = [blocks[t] for t in range(p1) if t != i]
            for lab, v in comp.items():
                rest2 = list(rest)
                rest2[j - 1] = lab
                vec = alpha_at(rest2, z)
                sgn = (-1) ** (i + 1) * v
                for t in range(dim_v):
                    out[t] += sgn * vec[t]
        rest = [blocks[t] for t in range(p1) if t != i]
        for l, v in fa.row(tuple(blocks[i]) + (z,)).items():
            vec = alpha_at(rest, l)
            sgn = (-1) ** (i + 1) * v
            for t in range(dim_v):
                out[t] += sgn * vec[t]
    return tuple(out)


def ref_module_eval(fa, rho, alpha, blocks):
    p1 = len(blocks)
    dim_v = alpha.dim_v
    out = [0] * dim_v

    def rho_mat(labels):
        key, s = sort_sign(labels)
        if s == 0:
            return None, 0
        return rho.mats[key], s

    for i in range(p1):
        rest = [blocks[t] for t in range(p1) if t != i]
        m, s = rho_mat(tuple(blocks[i]))
        if s:
            vec = alpha.value(tuple(rest))
            sgn = (-1) ** i * s
            for a in range(dim_v):
                acc = 0
                for b in range(dim_v):
                    if vec[b] != 0 and m.get((a, b), 0) != 0:
                        acc += m[a, b] * vec[b]
                out[a] += sgn * acc
        for j in range(i + 1, p1):
            comp = fundamental_compose(fa, blocks[i], blocks[j])
            for lab, v in comp.items():
                rest2 = list(rest)
                rest2[j - 1] = lab
                vec = alpha.value(tuple(rest2))
                sgn = (-1) ** (i + 1) * v
                for a in range(dim_v):
                    out[a] += sgn * vec[a]
    return tuple(out)


def ref_deformation_eval(fa, alpha, blocks, z):
    p1 = len(blocks)
    p = p1 - 1
    dim_v = alpha.dim_v
    out = [0] * dim_v

    def alpha_at(bs, zz):
        if not bs:
            return alpha.value((zz,))
        key = tuple(tuple(b) for b in bs[:-1]) + (tuple(bs[-1]) + (zz,),)
        return alpha.value(key)

    vec = ref_trivial_eval(fa, alpha, blocks, z)
    for t in range(dim_v):
        out[t] += vec[t]
    for i in range(p1):
        rest = [blocks[t] for t in range(p1) if t != i]
        av = alpha_at(rest, z)
        for b in range(1, dim_v + 1):
            if av[b - 1] == 0:
                continue
            for l, v in fa.row(tuple(blocks[i]) + (b,)).items():
                out[l - 1] += (-1) ** i * av[b - 1] * v
    last = blocks[-1]
    first = blocks[:-1]
    for i in range(len(last)):
        if p == 0:
            av = alpha.value((last[i],))
        else:
            key = tuple(tuple(b) for b in first[:-1]) + (tuple(first[-1]) + (last[i],),)
            av = alpha.value(key)
        for b in range(1, dim_v + 1):
            if av[b - 1] == 0:
                continue
            lab = last[:i] + (b,) + last[i + 1:]
            for l, v in fa.row(tuple(lab) + (z,)).items():
                out[l - 1] += (-1) ** p * av[b - 1] * v
    return tuple(out)


def ref_apply(fa, alpha, kind, rho):
    n, d = fa.arity, fa.dim
    p_out = alpha.order + 1
    rng = range(1, d + 1)
    blocks = list(combinations(rng, n - 1))
    data = {}
    if kind == "module":
        for bs in product(blocks, repeat=p_out):
            vec = ref_module_eval(fa, rho, alpha, list(bs))
            if any(v != 0 for v in vec):
                data[tuple(bs)] = vec
        return NCochain(kind, p_out, n, d, alpha.dim_v, data)
    ev = ref_trivial_eval if kind == "trivial" else ref_deformation_eval
    lasts = list(combinations(rng, n))
    for bs in product(blocks, repeat=p_out - 1):
        for last in lasts:
            vec = ev(fa, alpha, list(bs) + [last[:-1]], last[-1])
            if any(v != 0 for v in vec):
                data[tuple(bs) + (last,)] = vec
    return NCochain(kind, p_out, n, d, alpha.dim_v, data)


def ref_coboundary_matrix(fa, kind, p, rho):
    """(rows of D delta, D, src, dst) from the reference `ref_apply` of the
    generic cochain on the constants and module matrices scaled by D."""
    dv = {"trivial": 1, "deformation": fa.dim}.get(kind) or rho.dim_v
    keys = module_keys if kind == "module" else trivial_keys
    src = [(key, a) for key in keys(fa, p) for a in range(dv)]
    labels = [] if rho is None else list(rho.mats)
    d, ifa, imats = integer_scaling(fa, [rho.mats[lab] for lab in labels])
    irho = None if rho is None else SimpleNamespace(mats=dict(zip(labels, imats)), dim_v=dv)
    generic = NCochain(kind, p, fa.arity, fa.dim, dv,
                       {key: tuple(LinearForm({i * dv + a: 1}) for a in range(dv))
                        for i, key in enumerate(keys(fa, p))})
    out = ref_apply(ifa, generic, kind, irho).data
    dst = [(key, t) for key in keys(fa, p + 1) for t in range(dv)]
    zero = (0,) * dv
    return [out.get(key, zero)[t] or LinearForm() for key, t in dst], d, src, dst


def ref_leibniz_apply(lb, left, right, omega, p, dim_v):
    d = lb.dim
    out = {}

    def get(key):
        return omega.get(key, (Fraction(0),) * dim_v)

    for key in product(range(1, d + 1), repeat=p + 1):
        vec = [Fraction(0)] * dim_v
        for i in range(p):
            rest = key[:i] + key[i + 1:]
            av = get(rest)
            m = left[key[i] - 1]
            for a in range(dim_v):
                acc = Fraction(0)
                for b in range(dim_v):
                    if av[b] != 0 and m.get((a, b), 0) != 0:
                        acc += m[a, b] * av[b]
                vec[a] += (-1) ** i * acc
        for i in range(p + 1):
            for j in range(i + 1, p + 1):
                for l, v in lb.row(key[i], key[j]).items():
                    rest = list(key[:i] + key[i + 1:])
                    rest[j - 1] = l
                    av = get(tuple(rest))
                    for a in range(dim_v):
                        vec[a] += (-1) ** (i + 1) * v * av[a]
        av = get(key[:p])
        m = right[key[p] - 1]
        for a in range(dim_v):
            acc = Fraction(0)
            for b in range(dim_v):
                if av[b] != 0 and m.get((a, b), 0) != 0:
                    acc += m[a, b] * av[b]
            vec[a] += (-1) ** (p + 1) * acc
        if any(v != 0 for v in vec):
            out[key] = tuple(vec)
    return out


# ---------------------------------------------------------------------------
# the Filippov complexes: identical matrices
# ---------------------------------------------------------------------------

ALGEBRAS = {"a4": a4, "a5": a5, "nhw1": lambda: nhw(1), "nhw2": lambda: nhw(2)}
KINDS = ["trivial", "module", "deformation"]
PARITY_CASES = ([(name, kind, p) for name in ALGEBRAS for kind in KINDS for p in (0, 1)]
                + [(name, kind, 2) for name in ("a4", "nhw1") for kind in KINDS]
                + [("nhw2", "trivial", 2)])


@pytest.mark.parametrize("name,kind,p", PARITY_CASES)
def test_coboundary_matrix_equals_the_three_formulas(name, kind, p):
    fa = ALGEBRAS[name]()
    rho = fa.adjoint_rep() if kind == "module" else None
    cx = FAComplex(fa, kind, rho)
    rows, d, src, dst = ref_coboundary_matrix(fa, kind, p, rho)
    assert coboundary_matrix(cx, p) == (rows, d)
    assert (cx.coords(p), cx.coords(p + 1)) == (src, dst)
    assert all(type(v) is int for row in cx.matrix(p) for v in row.values())


def seeded_cochain(fa, kind, p, rng):
    keys = module_keys if kind == "module" else trivial_keys
    dv = 1 if kind == "trivial" else fa.dim
    return NCochain(kind, p, fa.arity, fa.dim, dv,
                    {key: tuple(rng.randint(-3, 3) for _ in range(dv)) for key in keys(fa, p)})


@pytest.mark.parametrize("name", ["a4", "nhw1"])
@pytest.mark.parametrize("p", [0, 1])
def test_named_evaluations_on_raw_blocks_equal_the_formulas(name, p):
    # raw blocks: unsorted or with a repeated index, and a solitary slot
    # that may repeat an index of the last block
    fa = ALGEBRAS[name]()
    rng = random.Random(60 + p)
    rho = fa.adjoint_rep()
    triv, mod, deform = (seeded_cochain(fa, kind, p, rng) for kind in KINDS)
    chains = list(product(product(range(1, fa.dim + 1), repeat=2), repeat=p + 1))
    assert coboundary_at(FAComplex(fa, "module", rho), mod, [(bs, None) for bs in chains]) == \
        [ref_module_eval(fa, rho, mod, bs) for bs in chains]
    points = [(bs, z) for bs in chains for z in range(1, fa.dim + 1)]
    assert coboundary_at(FAComplex(fa, "trivial"), triv, points) == \
        [ref_trivial_eval(fa, triv, bs, z) for bs, z in points]
    assert coboundary_at(FAComplex(fa, "deformation"), deform, points) == \
        [ref_deformation_eval(fa, deform, bs, z) for bs, z in points]


PARITY_ALGEBRAS = {name: ALGEBRAS[name]() for name in ("a4", "a5", "nhw1")}
ADJOINT = {name: fa.adjoint_rep() for name, fa in PARITY_ALGEBRAS.items()}
# one complex per algebra and kind, the module ones on the given adjoint rho
COMPLEXES = {(name, kind): FAComplex(fa, kind, ADJOINT[name] if kind == "module" else None)
             for name, fa in PARITY_ALGEBRAS.items() for kind in KINDS}
fractions = st.one_of(st.integers(-3, 3), st.fractions(max_denominator=6)).map(Fraction)


def fa_cochains(name, kind):
    """Random Fraction-valued nonzero cochains of degree 0 or 1 of one
    complex of one algebra."""
    fa = PARITY_ALGEBRAS[name]
    dv = 1 if kind == "trivial" else fa.dim
    vectors = st.lists(fractions, min_size=dv, max_size=dv).map(tuple)
    keys = module_keys if kind == "module" else trivial_keys

    def cochain(p):
        data = st.dictionaries(st.sampled_from(keys(fa, p)), vectors, min_size=1, max_size=6)
        return data.map(lambda d: NCochain(kind, p, fa.arity, fa.dim, dv, d))
    return st.integers(0, 1).flatmap(cochain)


@pytest.mark.parametrize("name", sorted(PARITY_ALGEBRAS))
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_operators_equal_the_three_formulas(name, kind, data):
    fa, rho = PARITY_ALGEBRAS[name], ADJOINT[name]
    alpha = data.draw(fa_cochains(name, kind))
    got = {"trivial": lambda: fa_coboundary_trivial(fa, alpha),
           "module": lambda: fa_coboundary(COMPLEXES[name, kind], alpha),
           "deformation": lambda: fa_coboundary_deformation(fa, alpha)}[kind]()
    assert got == ref_apply(fa, alpha, kind, rho)


@pytest.mark.parametrize("name", sorted(PARITY_ALGEBRAS))
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_evaluations_on_raw_blocks_equal_the_three_formulas(name, kind, data):
    # raw blocks: any order, mostly distinct indices but some repeated, and
    # a solitary slot that may repeat an index of the last block
    fa, rho = PARITY_ALGEBRAS[name], ADJOINT[name]
    alpha = data.draw(fa_cochains(name, kind))
    labels = st.integers(1, fa.dim)
    m = fa.arity - 1
    block = st.one_of(st.permutations(range(1, fa.dim + 1)).map(lambda t: tuple(t[:m])),
                      st.lists(labels, min_size=m, max_size=m).map(tuple))
    chain = st.lists(block, min_size=alpha.order + 1, max_size=alpha.order + 1)
    cx = COMPLEXES[name, kind]
    for blocks, z in data.draw(st.lists(st.tuples(chain, labels), min_size=1, max_size=8)):
        if kind == "module":
            assert coboundary_at(cx, alpha, [(blocks, None)]) == \
                [ref_module_eval(fa, rho, alpha, blocks)]
        elif kind == "trivial":
            assert coboundary_at(cx, alpha, [(blocks, z)]) == \
                [ref_trivial_eval(fa, alpha, blocks, z)]
        else:
            assert coboundary_at(cx, alpha, [(blocks, z)]) == \
                [ref_deformation_eval(fa, alpha, blocks, z)]


# ---------------------------------------------------------------------------
# the fundamental objects form a Leibniz algebra
# ---------------------------------------------------------------------------

def fundamental_leibniz(fa):
    """The bracket table of `fundamental_tables`, with the blocks relabelled
    1..C(dim, n-1) in their order."""
    blocks, bracket, *_ = fundamental_tables(fa)
    return LeibnizAlgebra(len(blocks), {(x, y): {z + 1: v for z, v in row}
                                        for x, rows in enumerate(bracket, 1)
                                        for y, row in enumerate(rows, 1)})


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_fundamental_objects_satisfy_the_left_identity(name):
    # X.(Y.Z) = (X.Y).Z + Y.(X.Z) is the fundamental identity read on L
    assert fundamental_leibniz(ALGEBRAS[name]()).check_left_identity().ok


@pytest.mark.parametrize("make,witness", [(a4, (1, 4, 3, 2)), (a5, (1, 7, 3, 2))])
def test_fundamental_objects_of_a_corrupted_algebra_fail_the_left_identity(make, witness):
    assert fundamental_leibniz(corrupted(make())).check_left_identity().witness == witness


# ---------------------------------------------------------------------------
# the binary case: n = 2 and Lie algebras as Leibniz algebras
# ---------------------------------------------------------------------------

def as_leibniz(alg):
    """A Lie algebra as a Leibniz algebra, with its adjoint matrices."""
    rng = range(1, alg.dim + 1)
    lb = LeibnizAlgebra(alg.dim, {(i, j): alg.row((i, j)) for i in rng for j in rng})
    ad = [alg.ad_matrix((i,)) for i in rng]
    return lb, ad, [linalg.sp_scale(-1, m) for m in ad]


@pytest.mark.parametrize("n,p", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)])
def test_binary_module_complex_is_the_dense_leibniz_coboundary(n, p):
    alg = su(n)
    fa = FilippovAlgebra(2, alg.dim, alg.c)
    cx = FAComplex(fa, "module", fa.adjoint_rep())
    rows, src, dst = cx.matrix(p), cx.coords(p), cx.coords(p + 1)
    lb, ad, minus_ad = as_leibniz(alg)
    d = alg.dim
    # the generic cochain: coordinate (key, a) of src is the form x_column
    generic = {tuple(b for (b,) in key): tuple(LinearForm({i * d + a: 1}) for a in range(d))
               for i, (key, _) in enumerate(src[::d])}
    out = ref_leibniz_apply(lb, ad, minus_ad, generic, p, d)
    zero = (0,) * d
    want = [out.get(tuple(b for (b,) in key), zero)[t] or LinearForm() for key, t in dst]
    assert rows == [{c: cx.d * v for c, v in row.items()} for row in want]


@pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_ce_complex_is_a_subcomplex_of_the_leibniz_complex(n, p):
    alg = su(n)
    d = alg.dim
    rng = random.Random(40 + 10 * n + p)
    om = Cochain(p, d, d, {(a, idx): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                           for a in range(1, d + 1) for idx in basis_tuples(d, p)})
    omega = {key: tuple(om.value(key)) for key in product(range(1, d + 1), repeat=p)}
    lb, ad, minus_ad = as_leibniz(alg)
    got = leibniz_coboundary(lb, ad, minus_ad, omega, p, d)
    want = coboundary(alg, alg.adjoint_rep(), om)
    zero = (0,) * d
    assert want.data
    for key in product(range(1, d + 1), repeat=p + 1):
        assert got.get(key, zero) == tuple(want.value(key)), key


def with_trivial(lb):
    zero = [{} for _ in range(lb.dim)]
    return lb, zero, zero, 1


def with_regular(lb):
    """l_X = [X, -] and r_X = [-, X] as sparse matrices on lb itself."""
    rng = range(1, lb.dim + 1)
    return (lb, [{(k - 1, y - 1): v for y in rng for k, v in lb.row(x, y).items()} for x in rng],
            [{(k - 1, y - 1): v for y in rng for k, v in lb.row(y, x).items()} for x in rng],
            lb.dim)


LEIBNIZ_COMPLEXES = {
    "heisenberg-adjoint": lambda: (*as_leibniz(heisenberg()), 3),
    "heisenberg-trivial": lambda: with_trivial(as_leibniz(heisenberg())[0]),
    "nilpotent-regular": lambda: with_regular(nilpotent_leibniz()),
    "nilpotent-trivial": lambda: with_trivial(nilpotent_leibniz()),
}


@pytest.mark.parametrize("name", sorted(LEIBNIZ_COMPLEXES))
@pytest.mark.parametrize("p", [0, 1, 2])
def test_leibniz_complex_matrix_is_the_dense_coboundary(name, p):
    lb, left, right, size = LEIBNIZ_COMPLEXES[name]()
    assert leibniz_rep_conditions(lb, left, right) is None
    cx = LeibnizComplex(lb, left, right, size)
    # the generic cochain: coordinate i of cx.coords(p) is the form x_i
    generic = {key: tuple(LinearForm({i * size + a: 1}) for a in range(size))
               for i, key in enumerate(cx.keys(p))}
    out = ref_leibniz_apply(lb, left, right, generic, p, size)
    zero = (0,) * size
    assert cx.matrix(p) == [out.get(key, zero)[a] or LinearForm() for key, a in cx.coords(p + 1)]
    assert len(cx.coords(p)) == cx.dim(p)


@pytest.mark.parametrize("n,h", [(2, [1, 0, 0, 0, 0]), (3, [1, 0, 0])])
def test_leibniz_cohomology_of_su_n_vanishes_above_degree_zero(n, h):
    # theory: HL^p(g) = 0 for p >= 1 with trivial coefficients when g is
    # semisimple (Pirashvili, Ann. Inst. Fourier 44 (1994) 401)
    lb = as_leibniz(su(n))[0]
    rep = complex_dims(LeibnizComplex(*with_trivial(lb)), len(h) - 1)
    assert [rep.dims_h[p] for p in sorted(rep.dims_h)] == h
    assert rep.dims_c == {p: lb.dim ** p for p in range(len(h))}


def test_a_leibniz_complex_refuses_actions_that_are_no_representation():
    # r_X = ad_X with l = 0 fails r_[X,Y] = r_Y r_X + l_X r_Y; ranked anyway,
    # its delta does not square to zero and su(2) read H = 0, -3, -9
    lb, ad, _ = as_leibniz(su(2))
    zero = [{} for _ in range(3)]
    with pytest.raises(ValueError, match="representation conditions at .'right-compat', 1, 1"):
        LeibnizComplex(lb, zero, ad, 3)


def test_leibniz_coboundary_squares_to_zero_on_a_non_lie_algebra():
    lb = nilpotent_leibniz()
    zero = [{} for _ in range(lb.dim)]
    rng = random.Random(5)
    omega = {(x,): (Fraction(rng.randint(-3, 3)),) for x in range(1, 4)}
    once = leibniz_coboundary(lb, zero, zero, omega, 1, 1)
    assert once
    assert leibniz_coboundary(lb, zero, zero, once, 2, 1) == {}


# ---------------------------------------------------------------------------
# Leibniz extensions
# ---------------------------------------------------------------------------

def test_extension_by_a_two_cocycle_is_a_leibniz_algebra():
    # theory: A + L with [(A1,X1),(A2,X2)] = (l A2 + r A1 + w(X1,X2), [X1,X2])
    # satisfies the left identity iff w is a 2-cocycle
    lb = nilpotent_leibniz()
    zero = [{} for _ in range(lb.dim)]
    rng = random.Random(6)
    omega1 = {(x,): (Fraction(rng.randint(1, 3)),) for x in range(1, 4)}
    omega2 = leibniz_coboundary(lb, zero, zero, omega1, 1, 1)
    assert omega2
    ext = leibniz_extension(lb, zero, zero, omega2, 1)
    assert ext.dim == 4 and ext.check_left_identity().ok
    for (x, y), (v,) in omega2.items():
        assert ext.row(x + 1, y + 1).get(1, 0) == v
    # the bracket on A = <e1> is central
    assert all(not ext.row(1, x) and not ext.row(x, 1) for x in range(1, 5))


def test_extension_by_a_non_cocycle_is_refused():
    lb = as_leibniz(su(2))[0]
    zero = [{} for _ in range(3)]
    omega2 = {(1, 2): (Fraction(1),)}
    assert leibniz_coboundary(lb, zero, zero, omega2, 2, 1)
    with pytest.raises(ValueError, match="not a 2-cocycle"):
        leibniz_extension(lb, zero, zero, omega2, 1)
    # and the table built anyway fails the left identity
    b = {(i + 1, j + 1): {k + 1: v for k, v in lb.row(i, j).items()}
         for i in range(1, 4) for j in range(1, 4)}
    b[(2, 3)][1] = Fraction(1)
    assert not LeibnizAlgebra(4, b).check_left_identity().ok
