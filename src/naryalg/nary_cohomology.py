"""Filippov-algebra cohomology as Leibniz cohomology of the fundamental objects.

The fundamental objects X = X_1 ^ .. ^ X_{n-1} of an n-Lie algebra g span a
Leibniz algebra L = wedge^{n-1} g under the bracket
X . Y = sum_k (Y_1, .., [X, Y_k], .., Y_{n-1}) (`filippov.fundamental_compose`),
and L acts on g by X . Z = [X_1, .., X_{n-1}, Z] (Daletskii-Takhtajan,
Lett. Math. Phys. 39 (1997) 127).  Every complex of this module is the
Leibniz complex of L with coefficients in a module M with a left action l
and a right action r (Loday-Pirashvili, Math. Ann. 296 (1993) 139):

  (delta w)(X_1..X_{p+1}) = sum_{i<=p} (-1)^{i+1} l_{X_i} w(..^i..)
                          + (-1)^{p+1} r_{X_{p+1}} w(X_1..X_p)
                          + sum_{i<j} (-1)^i w(..^i.., X_i . X_j at j, ..)

One function, `_leibniz_delta`, evaluates it.  The complexes differ only in
their coefficient module and in the keys of their coordinates:

  complex      M      l_X                        r_X                     keys
  trivial      g*     w -> -w(X . -)             -l_X                    trivial_keys
  module       V      rho(X)                     -rho(X)                 module_keys
  deformation  End g  f -> X . f(-) - f(X . -)   -l_X f - (f . X) . (-)  trivial_keys
  binary       given  left[X]                    right[X]                all p-tuples

where (f . X) . Z = sum_k [X_1, .., f(X_k), .., X_{n-1}, Z]; the binary row
is `leibniz_coboundary` on a `LeibnizAlgebra` with given action matrices.

A value in g* or End g is a function of one element Z, so a trivial or
deformation p-cochain is a function w(X_1..X_p)(Z) of p fundamental objects
and one solitary element.  Its keys absorb Z into the last block: a key is
(X_1, .., X_{p-1}, X_p ^ Z) with X_p ^ Z a sorted n-tuple.  The 1-cochains
are then the rank-n antisymmetric tensors that the extension problem needs,
since a central extension adds constants f(X_1..X_{n-1}, Z) antisymmetric in
all n arguments; that the coboundary keeps this joint antisymmetry is a
tested property (`jointly_antisymmetric_in_last_slot`).  Module keys are the
p-tuples of sorted blocks.  Signs of unsorted blocks are tracked on reads.

`_leibniz_delta` reads L's bracket and L's action on g from tables that each
application builds once (`fundamental_tables`).  `coboundary_matrix`
assembles the matrix of delta row by row: it applies the coboundary once to
the generic cochain whose coordinates are the linear forms x_1, x_2, ..
(see `scalars.LinearForm`), which yields each target coordinate as a sparse
row over the source coordinates.  The tables are built from D f and D rho,
the structure constants and module matrices scaled to plain ints by their
least common denominator D (`cohomology.integer_scaling`); every term of
delta carries exactly one constant or one rho entry, so the evaluation is
D delta over the integers, and the rows are divided by D on return.
Cohomology dimensions and preimages then come from the fraction-free
leading-column elimination of `linalg.integer_echelon`, whose solutions set
every non-pivot coordinate to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product

from . import linalg
from .cohomology import CohomologyReport, integer_scaling, unscale_rows
from .filippov import FARepresentation, FilippovAlgebra, check_fi, fundamental_compose
from .scalars import LinearForm, accumulate, is_zero, rat
from .tensors import sort_blocks, sort_sign


# ---------------------------------------------------------------------------
# cochains
# ---------------------------------------------------------------------------

@dataclass
class NCochain:
    """Cochain for one of the three Filippov complexes.

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
# the Leibniz coboundary
# ---------------------------------------------------------------------------

def _leibniz_delta(bracket, left, right, read, size, args):
    """{key: (delta w)(X_1..X_{p+1}) at the point} over args, an iterable of
    (key, (X_1, .., X_{p+1}), point); only nonzero values are kept.

    bracket[X, Y] is X . Y as {element of L: value}.  An action table maps
    (X, point) to {point Q: [(t, b, v), ..]}: coordinate t of the action of
    X on w, at the point, is the sum of v * w(Q)[b].  read(xs, Q) is the
    value of w(xs) at Q, a vector of length size.
    """
    out = {}
    for key, xs, point in args:
        vec = [0] * size
        last = len(xs) - 1
        for i, x in enumerate(xs):
            rest = xs[:i] + xs[i + 1:]
            sgn = (-1) ** i
            # (-1)^{i+1} l_{X_i} for i <= p, (-1)^{p+1} r_{X_{p+1}} (1-based)
            acts, asgn = (left, sgn) if i < last else (right, -sgn)
            for q, terms in acts[x, point].items():
                w = read(rest, q)
                for t, b, v in terms:
                    vec[t] += asgn * v * w[b]
            for j in range(i + 1, last + 1):
                for y, v in bracket[x, xs[j]].items():
                    w = read(rest[:j - 1] + (y,) + rest[j:], point)
                    c = -sgn * v
                    for t in range(size):
                        vec[t] += c * w[t]
        if any(vec):
            out[key] = tuple(vec)
    return out


def _matrix_terms(m, sign=1):
    """The action terms of sign * m, a sparse matrix, on the whole fiber."""
    return [(a, b, sign * v) for (a, b), v in sorted(m.items())]


# ---------------------------------------------------------------------------
# the Filippov complexes
# ---------------------------------------------------------------------------

def fundamental_tables(fa: FilippovAlgebra):
    """(blocks, bracket, action) of L = wedge^{n-1} g: the sorted blocks,
    bracket[X, Y] = X . Y as {block: value} and action[X, z] = X . z as
    {l: value}, for sorted blocks X, Y and z in 1..dim."""
    rng = range(1, fa.dim + 1)
    blocks = list(combinations(rng, fa.arity - 1))
    bracket = {(x, y): fundamental_compose(fa, x, y).entries for x in blocks for y in blocks}
    action = {(x, z): fa.f_row(x + (z,)) for x in blocks for z in rng}
    return blocks, bracket, action


def _fa_actions(fa, kind, rho, size):
    """(bracket, left, right) of the complex `kind` on cochains of dimension
    size, as `_leibniz_delta` reads them (see the module docstring)."""
    blocks, bracket, action = fundamental_tables(fa)
    if kind == "module":
        left = {(x, None): {None: _matrix_terms(rho.mats[x])} for x in blocks}
        right = {(x, None): {None: _matrix_terms(rho.mats[x], -1)} for x in blocks}
        return bracket, left, right
    rng = range(1, fa.dim + 1)
    left, right = {}, {}
    for (x, z), row in action.items():
        # -w(X . z) and its negative, on each coordinate of the fiber
        lq = {l: [(t, t, -v) for t in range(size)] for l, v in row.items()}
        rq = {l: [(t, t, v) for t in range(size)] for l, v in row.items()}
        if kind == "deformation":
            # X . f(z), and -(f . X) . z = -sum_k [X_1, .., f(X_k), .., X_{n-1}, z]
            ad = [(l - 1, b - 1, v) for b in rng for l, v in action[x, b].items()]
            lq.setdefault(z, []).extend(ad)
            rq.setdefault(z, []).extend((t, b, -v) for t, b, v in ad)
            for k, y in enumerate(x):
                for b in rng:
                    lab, s = sort_sign(x[:k] + (b,) + x[k + 1:])
                    if s:
                        rq.setdefault(y, []).extend((l - 1, b - 1, -s * v)
                                                    for l, v in action[lab, z].items())
        left[x, z], right[x, z] = lq, rq
    return bracket, left, right


def _target_dim(fa, kind, rho=None):
    """dim_v of the complex: 1 for trivial, rho.dim_v for module, fa.dim for
    deformation."""
    if kind == "module":
        return rho.dim_v
    return fa.dim if kind == "deformation" else 1


def _check_dim_v(fa, kind, rho, cochain):
    want = _target_dim(fa, kind, rho)
    if cochain.dim_v != want:
        raise ValueError(f"a cochain of dim_v {cochain.dim_v} does not fit the {kind} "
                         f"complex (dim_v {want})")


def _fa_delta(fa, alpha, kind, rho, args):
    """`_leibniz_delta` of the complex `kind` on alpha over args.  The trivial
    complex takes any dim_v: the trivial module tensored with Q^dim_v."""
    if kind != "trivial":
        _check_dim_v(fa, kind, rho, alpha)
    bracket, left, right = _fa_actions(fa, kind, rho, alpha.dim_v)
    if kind == "module":
        def read(xs, _):
            return alpha.value(xs)
    else:
        def read(xs, z):
            return alpha.value(xs[:-1] + (xs[-1] + (z,),)) if xs else alpha.value((z,))
    return _leibniz_delta(bracket, left, right, read, alpha.dim_v, args)


def _eval(fa, alpha, kind, rho, blocks, z):
    """delta alpha at raw blocks (sorted here, with their sign) and z."""
    xs, s = sort_blocks(blocks)
    zero = (0,) * alpha.dim_v
    vec = _fa_delta(fa, alpha, kind, rho, [(None, xs, z)]).get(None, zero) if s else zero
    return tuple(s * v for v in vec)


def coboundary_trivial_eval(fa: FilippovAlgebra, alpha: NCochain, blocks, z):
    """(delta alpha)(X_1..X_{p+1}, Z) of the trivial complex; blocks has p+1
    entries."""
    return _eval(fa, alpha, "trivial", None, blocks, z)


def coboundary_module_eval(fa: FilippovAlgebra, rho, alpha: NCochain, blocks):
    """(delta alpha)(X_1..X_{p+1}) of the module complex of rho."""
    return _eval(fa, alpha, "module", rho, blocks, None)


def coboundary_deformation_eval(fa: FilippovAlgebra, alpha: NCochain, blocks, z):
    """(delta alpha)(X_1..X_{p+1}, Z) of the deformation complex."""
    return _eval(fa, alpha, "deformation", None, blocks, z)


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
    keys = _complex_keys(fa, kind, alpha.order + 1)
    if kind == "module":
        args = ((key, key, None) for key in keys)
    else:  # the last block of a key is X_{p+1} ^ Z
        args = ((key, key[:-1] + (key[-1][:-1],), key[-1][-1]) for key in keys)
    data = _fa_delta(fa, alpha, kind, rho, args)
    return NCochain(kind, alpha.order + 1, fa.arity, fa.dim, alpha.dim_v, data)


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


def coboundary_matrix(fa: FilippovAlgebra, kind, p, rho=None):
    """Sparse matrix of delta: C^p -> C^{p+1} over the canonical coordinates,
    as (rows, src, dst): one {column: value} row per (key, target index) in
    dst, the columns indexed by the (key, target index) pairs of src.

    The rows come from a single application of the coboundary to the generic
    cochain whose coordinate src[i] is the linear form x_i, with the
    constants and the module matrices scaled to ints by their common
    denominator D (see `cohomology.coboundary_matrix`); the rows are divided
    by D on return.
    """
    dv = _target_dim(fa, kind, rho)
    keys = _complex_keys(fa, kind, p)
    src = [(key, a) for key in keys for a in range(dv)]
    labels = [] if rho is None else list(rho.mats)
    d, ifa, imats = integer_scaling(fa, [rho.mats[lab] for lab in labels])
    irho = None if rho is None else FARepresentation(dict(zip(labels, imats)), dv)
    generic = NCochain(kind, p, fa.arity, fa.dim, dv,
                       {key: tuple(LinearForm({i * dv + a: 1}) for a in range(dv))
                        for i, key in enumerate(keys)})
    out = _apply(ifa, generic, kind, irho).data
    dst = [(key, t) for key in _complex_keys(fa, kind, p + 1) for t in range(dv)]
    # a target coordinate that no term reached holds the scalar 0
    zero = (0,) * dv
    return unscale_rows([out.get(key, zero)[t] or LinearForm() for key, t in dst], d), src, dst


def fa_cohomology_dims(fa: FilippovAlgebra, kind, p_max, rho=None) -> CohomologyReport:
    """Exact Z/B/H dimensions of the chosen complex up to degree p_max, by
    ranks over Q; the module matrices must be rational, and the module
    complex defaults to the adjoint module."""
    if kind == "module" and rho is None:
        from .filippov import adjoint_fa_representation
        rho = adjoint_fa_representation(fa)
    dims_c, ranks = {}, {}
    for p in range(0, p_max + 1):
        rows, src, _ = coboundary_matrix(fa, kind, p, rho)
        dims_c[p] = len(src)
        ranks[p] = linalg.rank(rows)
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
    _check_dim_v(fa, kind, None, target)
    rows, src, dst = coboundary_matrix(fa, kind, target.order - 1)
    rhs = [target.value(key)[t] for key, t in dst]
    return linalg.solve(rows, len(src), rhs), src


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


def leibniz_rep_conditions(lb: LeibnizAlgebra, left, right):
    """The three compatibility conditions of a (left, right) action pair of
    sparse matrices:

        [l_X, l_Y] = l_{[X,Y]}
        [l_X, r_Y] = r_{[X,Y]}
        r_{[X,Y]}  = r_Y r_X + l_X r_Y

    as exact matrix identities; returns the first violation or None.
    """
    def bracket_mat(mats, i, j):
        return linalg.sp_sum((v, mats[k - 1]) for k, v in lb.row(i, j).items())

    for i in range(1, lb.dim + 1):
        li, ri = left[i - 1], right[i - 1]
        for j in range(1, lb.dim + 1):
            lj, rj = left[j - 1], right[j - 1]
            if linalg.sp_commutator(li, lj) != bracket_mat(left, i, j):
                return ("left-left", i, j)
            if linalg.sp_commutator(li, rj) != bracket_mat(right, i, j):
                return ("left-right", i, j)
            if bracket_mat(right, i, j) != linalg.sp_sum([(1, linalg.sp_mul(rj, ri)),
                                                          (1, linalg.sp_mul(li, rj))]):
                return ("right-compat", i, j)
    return None


def leibniz_coboundary(lb: LeibnizAlgebra, left, right, omega: dict, p: int, dim_v: int):
    """The Leibniz coboundary of the module docstring on raw p-cochains
    omega: tuple (length p) -> target vector of length dim_v, with the sparse
    matrices l_X = left[X - 1] and r_X = right[X - 1]; returns the nonzero
    values of delta omega on all (p+1)-tuples.  Note that the first sum stops
    at p, not p+1."""
    wit = leibniz_rep_conditions(lb, left, right)
    if wit is not None:
        raise ValueError(f"actions fail the representation conditions at {wit}")
    rng = range(1, lb.dim + 1)
    bracket = {(x, y): lb.row(x, y) for x in rng for y in rng}
    lt = {(x, None): {None: _matrix_terms(left[x - 1])} for x in rng}
    rt = {(x, None): {None: _matrix_terms(right[x - 1])} for x in rng}
    zero = (0,) * dim_v
    args = ((xs, xs, None) for xs in product(rng, repeat=p + 1))
    return _leibniz_delta(bracket, lt, rt, lambda xs, _: omega.get(xs, zero), dim_v, args)


def leibniz_extension(lb: LeibnizAlgebra, left, right, omega2: dict, dim_a: int) -> LeibnizAlgebra:
    """Extension on A + L with bracket
    [(A1,X1),(A2,X2)] = (l_{X1} A2 + r_{X2} A1 + w(X1,X2), [X1,X2]);
    basis order: A-part first (1..dim_a), then L-part."""
    if leibniz_coboundary(lb, left, right, omega2, 2, dim_a):
        raise ValueError("omega2 is not a 2-cocycle")
    d = lb.dim
    b = {}
    for (i, j), row in lb.b.items():
        b[(dim_a + i, dim_a + j)] = {dim_a + k: v for k, v in row.items()}
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            vec = omega2.get((i, j), ())
            b.setdefault((dim_a + i, dim_a + j), {}).update((a + 1, v) for a, v in enumerate(vec))
        # [X_i, A_a] = left action; [A_a, X_i] = right action
        for (t, a), v in left[i - 1].items():
            b.setdefault((dim_a + i, a + 1), {})[t + 1] = v
        for (t, a), v in right[i - 1].items():
            b.setdefault((a + 1, dim_a + i), {})[t + 1] = v
    ext = LeibnizAlgebra(dim_a + d, b)
    wit = ext.left_identity_witness()
    if wit is not None:
        raise AssertionError(f"extension fails the left identity at {wit}")
    return ext

