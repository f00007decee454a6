"""Cohomology and homology complexes for Filippov and n-Leibniz algebras.

Three complexes share the fundamental-object machinery:

  * trivial action   -- cochains on p fundamental objects plus one element,
                        governing central extensions (with a dual homology);
  * module action    -- cochains on p fundamental objects valued in a module,
                        the complex that mirrors the binary-algebra one;
  * deformation      -- algebra-valued cochains with the extra composite
                        action term, governing infinitesimal deformations.

Cochain coordinates are stored block-canonically: each fundamental-object
block is a sorted (n-1)-tuple with signs tracked on reads; the solitary
element slot of the trivial and deformation complexes is absorbed into the
last block (1-cochains are then fully antisymmetric rank-n tensors, as the
extension problem requires).  The binary (n = 2) specialization of the
deformation complex is the Leibniz-algebra coboundary, implemented here
together with Leibniz extensions.

Each coboundary formula exists once, as an evaluation at one argument key
(`coboundary_{trivial,module,deformation}_eval`); the formulas read the
structure constants through `FilippovAlgebra.f_row` and the composite X . Y
of fundamental objects through `filippov.fundamental_compose`.
`coboundary_matrix` assembles the matrix of delta row by row: it applies the
formula once to the generic cochain whose coordinates are the linear forms
x_1, x_2, .. (see `scalars.LinearForm`), which yields each target coordinate
as a sparse row over the source coordinates.  The formula runs on D f and
D rho, the structure constants and module matrices scaled to plain ints by
their least common denominator D (`cohomology.integer_scaling`); every term
of the three coboundaries carries exactly one constant or one rho entry, so
the evaluation is D delta over the integers, and the rows are divided by D
on return.  Cohomology dimensions and preimages then come from the
fraction-free leading-column elimination of `linalg.integer_echelon`, whose
solutions set every non-pivot coordinate to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product

from . import linalg
from .cohomology import CohomologyReport, integer_scaling, unscale_rows
from .filippov import FilippovAlgebra, check_fi, fundamental_compose
from .scalars import LinearForm, accumulate, is_zero, rat
from .tensors import sort_blocks, sort_sign


# ---------------------------------------------------------------------------
# cochains
# ---------------------------------------------------------------------------

@dataclass
class NCochain:
    """Cochain for one of the three complexes.

    complex_kind: 'trivial' | 'module' | 'deformation'
    order p; arity n; dim_v target dimension (1 for scalars; the algebra
    dimension for the deformation complex; the module dimension otherwise).

    Coordinate keys: 'module' -> (blocks); 'trivial'/'deformation' with
    p >= 1 -> (blocks[:-1], last) where last is the sorted n-tuple absorbing
    the solitary slot; p = 0 -> single labels.  Values are dense target
    vectors (tuples) of length dim_v.
    """

    complex_kind: str
    order: int
    arity: int
    dim: int
    dim_v: int
    data: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for key, vec in self.data.items():
            vec = tuple(rat(v) for v in vec)
            if all(v == 0 for v in vec):
                continue
            ckey, s = sort_blocks(key) if self.order else (key, 1)
            if s == 0:
                continue
            vec = tuple(s * v for v in vec)
            if ckey in clean:
                clean[ckey] = tuple(a + b for a, b in zip(clean[ckey], vec))
                if all(v == 0 for v in clean[ckey]):
                    del clean[ckey]
            else:
                clean[ckey] = vec
        self.data = clean

    def value(self, key):
        """Dense target vector at a raw key (blocks may be unsorted)."""
        if self.order == 0:
            vec = self.data.get(key)
            return vec if vec is not None else (Fraction(0),) * self.dim_v
        ckey, s = sort_blocks(key)
        if s == 0:
            return (Fraction(0),) * self.dim_v
        vec = self.data.get(ckey)
        if vec is None:
            return (Fraction(0),) * self.dim_v
        return tuple(s * v for v in vec)

    def is_zero(self):
        return not self.data


def trivial_keys(fa, p):
    """Canonical coordinate keys of the trivial/deformation cochain spaces."""
    n, d = fa.arity, fa.dim
    rng = range(1, d + 1)
    if p == 0:
        return [(z,) for z in rng]
    blocks = list(combinations(rng, n - 1))
    last = list(combinations(rng, n))
    return [tuple(bs) + (l,) for bs in product(blocks, repeat=p - 1) for l in last]


def module_keys(fa, p):
    n, d = fa.arity, fa.dim
    blocks = list(combinations(range(1, d + 1), n - 1))
    return list(product(blocks, repeat=p))


# ---------------------------------------------------------------------------
# coboundary operators (evaluated on raw argument tuples)
# ---------------------------------------------------------------------------

def coboundary_trivial_eval(fa: FilippovAlgebra, alpha: NCochain, blocks, z):
    """(delta a)(X_1..X_{p+1}, Z) = sum_{i<j} (-1)^i a(.. X_i.X_j at j .., Z)
    + sum_i (-1)^i a(..^i.., X_i . Z); blocks has p+1 entries."""
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
        for l, v in fa.f_row(tuple(blocks[i]) + (z,)).items():
            vec = alpha_at(rest, l)
            sgn = (-1) ** (i + 1) * v
            for t in range(dim_v):
                out[t] += sgn * vec[t]
    return tuple(out)


def coboundary_module_eval(fa: FilippovAlgebra, rho, alpha: NCochain, blocks):
    """(delta a)(X_1..X_{p+1}) = sum_i (-1)^{i+1} rho(X_i) a(..^i..)
    + sum_{i<j} (-1)^i a(..^i.., X_i.X_j at j, ..)."""
    p1 = len(blocks)
    dim_v = alpha.dim_v
    out = [0] * dim_v

    def rho_mat(labels):
        key, s = sort_sign(labels)
        if s == 0:
            return None, 0
        return rho[key], s

    for i in range(p1):
        rest = [blocks[t] for t in range(p1) if t != i]
        m, s = rho_mat(tuple(blocks[i]))
        if s:
            vec = alpha.value(tuple(rest))
            sgn = (-1) ** i * s
            for a in range(dim_v):
                acc = 0
                for b in range(dim_v):
                    if vec[b] != 0 and m[a][b] != 0:
                        acc += m[a][b] * vec[b]
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


def coboundary_deformation_eval(fa: FilippovAlgebra, alpha: NCochain, blocks, z):
    """The deformation coboundary: the trivial-action terms plus the action
    of the fundamental objects on the values and the composite final term

        (-1)^p (a(X_1..X_p, ) . X_{p+1}) . Z ,

    where the inner dot inserts a(.., Y_i) into each slot of the last block.
    """
    p1 = len(blocks)
    p = p1 - 1
    dim_v = alpha.dim_v
    out = [0] * dim_v

    def alpha_at(bs, zz):
        if not bs:
            return alpha.value((zz,))
        key = tuple(tuple(b) for b in bs[:-1]) + (tuple(bs[-1]) + (zz,),)
        return alpha.value(key)

    # bracket-insertion terms (as in the trivial complex)
    vec = coboundary_trivial_eval(fa, alpha, blocks, z)
    for t in range(dim_v):
        out[t] += vec[t]
    # action terms: sum_j (-1)^{j+1} X_j . a(..^j.., Z)
    for i in range(p1):
        rest = [blocks[t] for t in range(p1) if t != i]
        av = alpha_at(rest, z)
        for b in range(1, dim_v + 1):
            if av[b - 1] == 0:
                continue
            for l, v in fa.f_row(tuple(blocks[i]) + (b,)).items():
                out[l - 1] += (-1) ** i * av[b - 1] * v
    # composite final term (a(X_1..X_p, ) . X_{p+1}) . Z: replace each slot
    # Y_i of the last block by a(X_1..X_p, Y_i), then bracket with Z
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
            for l, v in fa.f_row(tuple(lab) + (z,)).items():
                out[l - 1] += (-1) ** p * av[b - 1] * v
    return tuple(out)


# ---------------------------------------------------------------------------
# user-facing operators on canonical cochains
# ---------------------------------------------------------------------------

def fa_coboundary_trivial(fa: FilippovAlgebra, alpha: NCochain) -> NCochain:
    return _apply(fa, alpha, "trivial", None)


def fa_coboundary_module(fa: FilippovAlgebra, rho, alpha: NCochain) -> NCochain:
    from .filippov import check_fa_representation
    if not check_fa_representation(fa, rho):
        raise ValueError("rho fails the representation conditions")
    return _apply(fa, alpha, "module", rho)


def fa_coboundary_deformation(fa: FilippovAlgebra, alpha: NCochain) -> NCochain:
    return _apply(fa, alpha, "deformation", None)


def _apply(fa, alpha, kind, rho):
    n, d = fa.arity, fa.dim
    p_out = alpha.order + 1
    rng = range(1, d + 1)
    blocks = list(combinations(rng, n - 1))
    data = {}
    if kind == "module":
        for bs in product(blocks, repeat=p_out):
            vec = coboundary_module_eval(fa, rho, alpha, list(bs))
            if any(v != 0 for v in vec):
                data[tuple(bs)] = vec
        return NCochain(kind, p_out, n, d, alpha.dim_v, data)
    # trivial/deformation: evaluate each canonical key once (the joint
    # antisymmetry of the last block with the solitary slot is a tested
    # property of these complexes, see jointly_antisymmetric_in_last_slot)
    ev = coboundary_trivial_eval if kind == "trivial" else coboundary_deformation_eval
    lasts = list(combinations(rng, n))
    for bs in product(blocks, repeat=p_out - 1):
        for last in lasts:
            vec = ev(fa, alpha, list(bs) + [last[:-1]], last[-1])
            if any(v != 0 for v in vec):
                data[tuple(bs) + (last,)] = vec
    return NCochain(kind, p_out, n, d, alpha.dim_v, data)


def jointly_antisymmetric_in_last_slot(fa, out_fn, alpha, p_out) -> bool:
    """Verify that a coboundary evaluation is antisymmetric under exchanging
    the solitary slot with any member of the last block (full joint
    antisymmetry then follows from the in-block antisymmetry)."""
    n, d = fa.arity, fa.dim
    rng = range(1, d + 1)
    blocks = list(combinations(rng, n - 1))
    for bs in product(blocks, repeat=p_out - 1):
        for last_blk in blocks:
            for z in rng:
                vec = out_fn(fa, alpha, list(bs) + [last_blk], z)
                swapped = last_blk[:-1] + (z,)
                vec2 = out_fn(fa, alpha, list(bs) + [swapped], last_blk[-1])
                if tuple(-v for v in vec2) != vec:
                    return False
    return True


# ---------------------------------------------------------------------------
# matrices and cohomology dimensions
# ---------------------------------------------------------------------------

def _complex_keys(fa, kind, p):
    if kind == "module":
        return module_keys(fa, p)
    return trivial_keys(fa, p)


def _target_dim(fa, kind, dim_v):
    if kind == "deformation":
        return fa.dim
    return dim_v


def coboundary_matrix(fa: FilippovAlgebra, kind, p, dim_v=1, rho=None):
    """Sparse matrix of delta: C^p -> C^{p+1} over the canonical coordinates,
    as (rows, src, dst): one {column: value} row per (key, target index) in
    dst, the columns indexed by the (key, target index) pairs of src.

    The rows come from a single application of the coboundary to the generic
    cochain whose coordinate src[i] is the linear form x_i, with the
    constants and the module matrices scaled to ints by their common
    denominator D (see `cohomology.coboundary_matrix`); the rows are divided
    by D on return.
    """
    dv = _target_dim(fa, kind, dim_v)
    keys = _complex_keys(fa, kind, p)
    src = [(key, a) for key in keys for a in range(dv)]
    labels = list(rho or ())
    d, ifa, imats = integer_scaling(fa, [rho[lab] for lab in labels])
    irho = None if rho is None else dict(zip(labels, imats))
    generic = NCochain(kind, p, fa.arity, fa.dim, dv,
                       {key: tuple(LinearForm({i * dv + a: 1}) for a in range(dv))
                        for i, key in enumerate(keys)})
    out = _apply(ifa, generic, kind, irho).data
    dst = [(key, t) for key in _complex_keys(fa, kind, p + 1) for t in range(dv)]
    # a target coordinate that no term reached holds the scalar 0
    zero = (0,) * dv
    return unscale_rows([out.get(key, zero)[t] or LinearForm() for key, t in dst], d), src, dst


def fa_cohomology_dims(fa: FilippovAlgebra, kind, p_max, dim_v=1, rho=None) -> CohomologyReport:
    """Exact Z/B/H dimensions of the chosen complex up to degree p_max, by
    ranks over Q; the module matrices must be rational."""
    if kind == "module" and rho is None:
        from .filippov import adjoint_fa_representation
        rho = adjoint_fa_representation(fa)
        dim_v = fa.dim
    dims_c, ranks = {}, {}
    for p in range(0, p_max + 1):
        rows, src, _ = coboundary_matrix(fa, kind, p, dim_v, rho)
        dims_c[p] = len(src)
        ranks[p] = linalg.sparse_rank(rows)
    return CohomologyReport.from_ranks(dims_c, ranks)


# ---------------------------------------------------------------------------
# homology dual to the trivial complex
# ---------------------------------------------------------------------------

def homology_boundary(fa: FilippovAlgebra, chain):
    """chain: (blocks tuple, z, coeff) triples; boundary per the dual of the
    trivial coboundary:

        d(X_1..X_p, Z) = sum_{i<j} (-1)^i (..^i.., X_i.X_j, .., Z)
                       + sum_i (-1)^i (..^i.., X_i . Z)
    """
    out = {}

    def add(blocks, z, v):
        canon, sign = sort_blocks(blocks)
        if sign:
            accumulate(out, (canon, z), sign * v)

    for blocks, z, coeff in chain:
        p = len(blocks)
        for i in range(p):
            for j in range(i + 1, p):
                comp = fundamental_compose(fa, blocks[i], blocks[j])
                rest = [blocks[t] for t in range(p) if t != i]
                for lab, v in comp.items():
                    rest2 = list(rest)
                    rest2[j - 1] = lab
                    add(rest2, z, (-1) ** (i + 1) * coeff * v)
            rest = [blocks[t] for t in range(p) if t != i]
            for l, v in fa.f_row(tuple(blocks[i]) + (z,)).items():
                add(rest, l, (-1) ** (i + 1) * coeff * v)
    return out


def duality_pairing_holds(fa: FilippovAlgebra, alpha: NCochain, blocks, z) -> bool:
    """alpha(boundary(c)) = (delta alpha)(c) on the basis chain c."""
    lhs = Fraction(0)
    for (bs, l), v in homology_boundary(fa, [(tuple(blocks), z, Fraction(1))]).items():
        if alpha.order == 0:
            lhs += v * alpha.value((l,))[0]
        else:
            key = tuple(bs[:-1]) + (tuple(bs[-1]) + (l,),)
            lhs += v * alpha.value(key)[0]
    rhs = coboundary_trivial_eval(fa, alpha, list(blocks), z)[0]
    return lhs == rhs


# ---------------------------------------------------------------------------
# central extensions and deformation obstructions
# ---------------------------------------------------------------------------

def fa_central_extension(fa: FilippovAlgebra, alpha: NCochain) -> FilippovAlgebra:
    """Extend by a central generator with the scalar 1-cocycle alpha."""
    if alpha.order != 1 or alpha.dim_v != 1:
        raise ValueError("need a scalar 1-cochain")
    if not fa_coboundary_trivial(fa, alpha).is_zero():
        raise ValueError("not a 1-cocycle: the extension would violate the identity")
    d = fa.dim
    f = {k: dict(row) for k, row in fa.f.items()}
    for (key,), vec in ((k, v) for k, v in alpha.data.items()):
        row = f.setdefault(key, {})
        row[d + 1] = vec[0]
    ext = FilippovAlgebra(fa.arity, d + 1, f)
    rep = check_fi(ext)
    if not rep.ok:
        raise AssertionError(f"extension fails the identity at {rep.witness}")
    return ext


def trivialize_fa_extension(fa: FilippovAlgebra, alpha: NCochain):
    """Solve alpha = delta(beta) over scalar 0-cochains; returns the basis
    change vector or None when the class is non-trivial."""
    return _preimage_coords(fa, "trivial", alpha)[0]


def deformation_obstruction(fa: FilippovAlgebra, alpha: NCochain):
    """gamma(X, Y, Z) = a(X, a(Y, Z)) - a(a(X, ).Y, Z) - a(Y, a(X, Z)) for an
    algebra-valued deformation 1-cocycle; returns (gamma, gamma_is_cocycle,
    preimage or None)."""
    if alpha.order != 1 or alpha.complex_kind != "deformation":
        raise ValueError("need a deformation 1-cochain")
    if not fa_coboundary_deformation(fa, alpha).is_zero():
        raise ValueError("alpha is not a deformation 1-cocycle")
    n, d = fa.arity, fa.dim
    rng = range(1, d + 1)
    blocks = list(combinations(rng, n - 1))

    def a_val(block, z):
        return alpha.value((tuple(block) + (z,),))

    data = {}
    for bx in blocks:
        for by in blocks:
            for z in rng:
                out = [Fraction(0)] * d
                # a(X, a(Y,Z))
                av = a_val(by, z)
                for b in range(1, d + 1):
                    if av[b - 1] == 0:
                        continue
                    vec = a_val(bx, b)
                    for t in range(d):
                        out[t] += av[b - 1] * vec[t]
                # - a(Y, a(X,Z))
                av = a_val(bx, z)
                for b in range(1, d + 1):
                    if av[b - 1] == 0:
                        continue
                    vec = a_val(by, b)
                    for t in range(d):
                        out[t] -= av[b - 1] * vec[t]
                # - a( a(X, ).Y , Z): insert a(X, Y_i) into slot i of Y
                for i in range(n - 1):
                    av = a_val(bx, by[i])
                    for b in range(1, d + 1):
                        if av[b - 1] == 0:
                            continue
                        lab = by[:i] + (b,) + by[i + 1:]
                        key, s = sort_sign(lab)
                        if s == 0:
                            continue
                        vec = a_val(key, z)
                        for t in range(d):
                            out[t] -= s * av[b - 1] * vec[t]
                if any(v != 0 for v in out):
                    data[(bx, by + (z,))] = tuple(out)
    gamma = NCochain("deformation", 2, n, d, d, data)
    # gamma must be consistent on raw keys: rebuild via evaluations is implicit
    g_cocycle = fa_coboundary_deformation(fa, gamma).is_zero()
    pre = deformation_preimage(fa, gamma)
    return gamma, g_cocycle, pre


def deformation_preimage(fa: FilippovAlgebra, target: NCochain):
    """Solve delta(beta) = target over deformation (p-1)-cochains."""
    sol, src = _preimage_coords(fa, "deformation", target)
    if sol is None:
        return None
    dv = fa.dim
    data = {}
    for col, (key, a) in enumerate(src):
        if sol[col] != 0:
            vec = list(data.get(key, (Fraction(0),) * dv))
            vec[a] += sol[col]
            data[key] = tuple(vec)
    return NCochain("deformation", target.order - 1, fa.arity, fa.dim, dv, data)


def _preimage_coords(fa, kind, target):
    """(x, src): the coordinates x over src of one (p-1)-cochain beta with
    delta(beta) = target, non-pivot coordinates zero (x is None when target
    is not a coboundary)."""
    rows, src, dst = coboundary_matrix(fa, kind, target.order - 1)
    rhs = [target.value(key)[t] for key, t in dst]
    return linalg.sparse_solve(rows, len(src), rhs), src


def mc_zero_cochain(fa: FilippovAlgebra) -> NCochain:
    """alpha0(X) = -X; its trivial coboundary has the structure constants as
    coordinates (the Maurer-Cartan statement for these algebras)."""
    data = {(z,): tuple(Fraction(-1 if t == z - 1 else 0) for t in range(fa.dim))
            for z in range(1, fa.dim + 1)}
    return NCochain("trivial", 0, fa.arity, fa.dim, fa.dim, data)


# ---------------------------------------------------------------------------
# Leibniz algebras (binary, non-antisymmetric)
# ---------------------------------------------------------------------------

@dataclass
class LeibnizAlgebra:
    """Bracket tensor B_{ij}^k without symmetry; validity = left identity
    [X,[Y,Z]] = [[X,Y],Z] + [Y,[X,Z]]."""

    dim: int
    b: dict = field(default_factory=dict)  # (i, j) -> {k: value}

    def __post_init__(self):
        clean = {}
        for (i, j), row in self.b.items():
            row2 = {k: rat(v) for k, v in row.items() if not is_zero(v)}
            if row2:
                clean[(i, j)] = row2
        self.b = clean

    def row(self, i, j):
        return self.b.get((i, j), {})

    def left_identity_witness(self):
        d = self.dim
        for x in range(1, d + 1):
            for y in range(1, d + 1):
                for z in range(1, d + 1):
                    for s in range(1, d + 1):
                        tot = Fraction(0)
                        for l, v in self.row(y, z).items():
                            tot += v * self.row(x, l).get(s, Fraction(0))
                        for l, v in self.row(x, y).items():
                            tot -= v * self.row(l, z).get(s, Fraction(0))
                        for l, v in self.row(x, z).items():
                            tot -= v * self.row(y, l).get(s, Fraction(0))
                        if tot != 0:
                            return (x, y, z, s)
        return None

    def double_bracket_anticommutativity(self):
        """[[X,Y],Z] = -[[Y,X],Z], the residual antisymmetry any valid
        bracket retains."""
        d = self.dim
        for x in range(1, d + 1):
            for y in range(1, d + 1):
                for z in range(1, d + 1):
                    for s in range(1, d + 1):
                        tot = Fraction(0)
                        for l, v in self.row(x, y).items():
                            tot += v * self.row(l, z).get(s, Fraction(0))
                        for l, v in self.row(y, x).items():
                            tot += v * self.row(l, z).get(s, Fraction(0))
                        if tot != 0:
                            return False
        return True


def leibniz_rep_conditions(lb: LeibnizAlgebra, left, right):
    """The three compatibility conditions of a (left, right) action pair:

        [l_X, l_Y] = l_{[X,Y]}
        [l_X, r_Y] = r_{[X,Y]}
        r_{[X,Y]}  = r_Y r_X + l_X r_Y

    as exact matrix identities; returns the first violation or None.
    """
    d = lb.dim

    def lmat(i):
        return left[i - 1]

    def rmat(i):
        return right[i - 1]

    size = len(left[0])

    def bracket_mat(mats, i, j):
        out = linalg.zeros(size, size)
        for k, v in lb.row(i, j).items():
            out = linalg.mat_add(out, linalg.mat_scale(v, mats[k - 1]))
        return out

    for i in range(1, d + 1):
        for j in range(1, d + 1):
            c1 = linalg.mat_sub(linalg.commutator(lmat(i), lmat(j)), bracket_mat(left, i, j))
            if not linalg.is_zero_matrix(c1):
                return ("left-left", i, j)
            c2 = linalg.mat_sub(linalg.commutator(lmat(i), rmat(j)), bracket_mat(right, i, j))
            if not linalg.is_zero_matrix(c2):
                return ("left-right", i, j)
            c3 = linalg.mat_sub(bracket_mat(right, i, j),
                                linalg.mat_add(linalg.mat_mul(rmat(j), rmat(i)),
                                               linalg.mat_mul(lmat(i), rmat(j))))
            if not linalg.is_zero_matrix(c3):
                return ("right-compat", i, j)
    return None


def leibniz_coboundary(lb: LeibnizAlgebra, left, right, omega: dict, p: int, dim_v: int):
    """Coboundary on raw p-cochains omega: tuple(length p) -> target vector:

        (s w)(X_1..X_{p+1}) = sum_{i<=p} (-1)^{i+1} l_{X_i} w(..^i..)
          + sum_{i<j} (-1)^i w(..^i.., [X_i, X_j] at j, ..)
          + (-1)^{p+1} r_{X_{p+1}} w(X_1..X_p)

    Note the first sum stops at p, not p+1.
    """
    wit = leibniz_rep_conditions(lb, left, right)
    if wit is not None:
        raise ValueError(f"actions fail the representation conditions at {wit}")
    return _leibniz_apply(lb, left, right, omega, p, dim_v)


def _leibniz_apply(lb, left, right, omega, p, dim_v):
    d = lb.dim
    out = {}

    def get(key):
        return omega.get(key, (Fraction(0),) * dim_v)

    for key in product(range(1, d + 1), repeat=p + 1):
        vec = [Fraction(0)] * dim_v
        for i in range(p):  # left actions: first p slots only
            rest = key[:i] + key[i + 1:]
            av = get(rest)
            m = left[key[i] - 1]
            for a in range(dim_v):
                acc = Fraction(0)
                for b in range(dim_v):
                    if av[b] != 0 and m[a][b] != 0:
                        acc += m[a][b] * av[b]
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
                if av[b] != 0 and m[a][b] != 0:
                    acc += m[a][b] * av[b]
            vec[a] += (-1) ** (p + 1) * acc
        if any(v != 0 for v in vec):
            out[key] = tuple(vec)
    return out


def leibniz_extension(lb: LeibnizAlgebra, left, right, omega2: dict, dim_a: int) -> LeibnizAlgebra:
    """Extension on A + L with bracket
    [(A1,X1),(A2,X2)] = (l_{X1} A2 + r_{X2} A1 + w(X1,X2), [X1,X2]);
    basis order: A-part first (1..dim_a), then L-part."""
    s_omega = _leibniz_apply(lb, left, right, omega2, 2, dim_a)
    if s_omega:
        raise ValueError("omega2 is not a 2-cocycle")
    d = lb.dim
    b = {}
    for (i, j), row in lb.b.items():
        b[(dim_a + i, dim_a + j)] = {dim_a + k: v for k, v in row.items()}
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            row = b.setdefault((dim_a + i, dim_a + j), {})
            vec = omega2.get((i, j))
            if vec:
                for a in range(dim_a):
                    if vec[a] != 0:
                        row[a + 1] = row.get(a + 1, Fraction(0)) + vec[a]
        for a in range(1, dim_a + 1):
            # [X_i, A_a] = left action; [A_a, X_i] = right action
            lrow = {t + 1: left[i - 1][t][a - 1] for t in range(dim_a)
                    if left[i - 1][t][a - 1] != 0}
            if lrow:
                b[(dim_a + i, a)] = lrow
            rrow = {t + 1: right[i - 1][t][a - 1] for t in range(dim_a)
                    if right[i - 1][t][a - 1] != 0}
            if rrow:
                b[(a, dim_a + i)] = rrow
    ext = LeibnizAlgebra(dim_a + d, b)
    wit = ext.left_identity_witness()
    if wit is not None:
        raise AssertionError(f"extension fails the left identity at {wit}")
    return ext


def shifted_cocycle(lb, left, right, omega2, omega1, dim_a):
    """omega2 + s(omega1): cocycles differing by a coboundary give isomorphic
    extensions under (A, X) -> (A + omega1(X), X)."""
    shift = _leibniz_apply(lb, left, right, omega1, 1, dim_a)
    out = dict(omega2)
    for key, vec in shift.items():
        new = tuple(a + b for a, b in zip(out.get(key, (Fraction(0),) * dim_a), vec))
        if any(v != 0 for v in new):
            out[key] = new
        elif key in out:
            del out[key]
    return out
