"""Chevalley-Eilenberg cohomology for an arbitrary representation: the
coboundary in both its argument form and (for the trivial representation)
its epsilon-contracted coordinates form, exact cohomology dimensions,
the Casimir-built homotopy operator behind Whitehead's lemma, central
extensions, and deformation cocycles with their obstruction classes.

A V-valued p-cochain (`Cochain`) is a rank-p `tensors.AntisymTensor`: its
value at a strictly increasing index tuple is the target vector with
coordinates Omega^A_{i_1..i_p}, held as a sparse `LinearForm` {A: value}
(A = 1 for scalar-valued cochains).

The matrix of s is assembled row by row: `coboundary` runs once on the
generic cochain whose coordinates are the linear forms x_1, x_2, .. (see
`scalars.LinearForm`), which yields every target coordinate as a sparse row
over the source coordinates.  It runs on D C and D rho, the structure
constants and representation matrices scaled to plain ints by their least
common denominator D (1 for A4, A5 and nhw2, 2 for su(3), 6 for su(4)).
Every term of s carries exactly one constant or one rho entry, so this
evaluation is D s, assembled without a `Fraction`; `coboundary_matrix`
divides by D on return (int where integral, else `Fraction`).  Ranks and
preimages then come from the fraction-free leading-column elimination of
`linalg.integer_echelon`, whose solutions set every non-pivot coordinate to
zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations

from . import linalg
from .lie import LieAlgebra, Representation, check_jacobi
from .scalars import ZERO, LinearForm, common_denominator, rat
from .tensors import AntisymTensor, shuffle_splits


class Cochain(AntisymTensor):
    """Order-p cochain with values in a dim_v target (dim_v = 1: scalars):
    the rank-p `AntisymTensor` on 1..alg_dim whose value at i_1..i_p is the
    target vector {A: Omega^A_{i_1..i_p}}, a sparse `LinearForm`.

    It is built from, and `data` gives back, coordinates keyed (A, index
    tuple); a target A outside 1..dim_v is rejected.  `get(a, idx)` reads
    one coordinate and `value(idx)` the dense target vector, both through
    the tensor's signed read.
    """

    def __init__(self, order, alg_dim, dim_v=1, data=None):
        vectors = {}
        for (a, idx), v in (data or {}).items():
            if not 1 <= a <= dim_v:
                raise ValueError(f"target index {a} outside 1..{dim_v}")
            if v:
                vectors.setdefault(idx, LinearForm())[a] = v
        self.dim_v = dim_v
        super().__init__(order, alg_dim, vectors, LinearForm())

    @property
    def data(self):
        """{(A, sorted index tuple): nonzero coordinate}."""
        return {(a, key): v for key, vec in self.entries.items() for a, v in sorted(vec.items())}

    def get(self, a, idx):
        return super().get(idx).get(a, ZERO)

    def value(self, idx):
        """Target vector at the given arguments (dense list)."""
        vec = super().get(idx)
        return [vec.get(a, ZERO) for a in range(1, self.dim_v + 1)]


def basis_tuples(r, p):
    return list(combinations(range(1, r + 1), p))


def coboundary(alg: LieAlgebra, rho, om: Cochain) -> Cochain:
    """Argument form of the coboundary:

        (s Om)(X_1..X_{p+1}) = sum_i (-1)^{i+1} rho(X_i) Om(..^i..)
                             + sum_{j<k} (-1)^{j+k} Om([X_j,X_k], ..^j..^k..)

    `rho` is None for the trivial representation, else a Representation
    acting on the target.
    """
    rows = None
    if rho is not None:
        if rho.dim_v != om.dim_v:
            raise ValueError("representation/target dimension mismatch")
        rows = [_matrix_rows(m) for m in rho.mats]
    p = om.rank
    r = om.dim
    if p >= r:
        return Cochain(p + 1, r, om.dim_v, {})
    data = {}
    for idx in combinations(range(1, r + 1), p + 1):
        for a in range(1, om.dim_v + 1):
            tot = 0
            if rows is not None:
                for i in range(p + 1):
                    rest = idx[:i] + idx[i + 1:]
                    for b, coeff in rows[idx[i] - 1].get(a - 1, ()):
                        tot += (-1) ** i * coeff * om.get(b + 1, rest)
            for j in range(p + 1):
                for k in range(j + 1, p + 1):
                    rest = tuple(idx[t] for t in range(p + 1) if t not in (j, k))
                    # positions are 0-based here; the 1-based (-1)^{j+k}
                    sign = (-1) ** (j + k)
                    for l, v in alg.c_row(idx[j], idx[k]).items():
                        if l not in rest:  # a repeated index reads zero
                            tot += sign * v * om.get(a, (l,) + rest)
            if tot:
                data[(a, idx)] = tot
    return Cochain(p + 1, r, om.dim_v, data)


def _matrix_rows(m):
    """{row: [(column, value), ..]} of a sparse matrix, columns ascending."""
    rows = {}
    for (a, b), v in sorted(m.items()):
        rows.setdefault(a, []).append((b, v))
    return rows


def coboundary_coords(alg: LieAlgebra, om: Cochain) -> Cochain:
    """Coordinates form for the trivial representation:

        (s Om)_{i_1..i_{p+1}} = -1/2 * 1/(p-1)! *
            eps^{j..}_{i..} C_{j_1 j_2}^k Om_{k j_3..j_{p+1}}

    The epsilon contraction is the shuffle sum over (2, p-1) splits times
    2 (pair arrangements) times (p-1)! (tail arrangements), so the
    prefactors cancel against a bare shuffle sum up to the -1/2 * 2 = -1.
    """
    if om.dim_v != 1:
        raise ValueError("coordinates form applies to scalar-valued cochains")
    p = om.rank
    r = om.dim
    data = {}
    for idx in combinations(range(1, r + 1), p + 1):
        tot = Fraction(0)
        for (pair, rest), sign in shuffle_splits(idx, [2, p - 1]):
            row = alg.c.get(pair)
            if row:
                for k, v in row.items():
                    tot += sign * v * om.get(1, (k,) + rest)
        if tot != 0:
            data[(1, idx)] = -tot
    return Cochain(p + 1, r, 1, data)


# ---------------------------------------------------------------------------
# matrices of s and cohomology dimensions
# ---------------------------------------------------------------------------

def coord_basis(r, p, dim_v):
    return [(a, idx) for a in range(1, dim_v + 1) for idx in basis_tuples(r, p)]


def integer_scaling(alg, mats=()):
    """(D, D C, [D m for m in mats]): D is the least common denominator of the
    structure constants and the values of the sparse matrices, and the scaled
    constants and matrices hold plain ints.  The values must be rational: a
    Gaussian value with a nonzero imaginary part raises ValueError."""
    mats = [{key: rat(v) for key, v in m.items()} for m in mats]
    d = common_denominator(chain((v for _, _, v in alg.entries()),
                                (v for m in mats for v in m.values())))
    return d, alg.scaled(d), [{key: v.numerator * (d // v.denominator) for key, v in m.items()}
                              for m in mats]


def unscale_rows(rows, d):
    """The rows of d * delta divided by d: int where integral, else Fraction."""
    if d == 1:
        return rows
    return [LinearForm({c: v // d if v % d == 0 else Fraction(v, d) for c, v in row.items()})
            for row in rows]


def coboundary_matrix(alg: LieAlgebra, rho, p, dim_v):
    """Sparse matrix of s: C^p -> C^{p+1} in the canonical coordinate bases,
    as (rows, src, dst): one {column: value} row per coordinate in dst, the
    columns indexed by src.

    The rows come from a single evaluation of `coboundary` on the generic
    cochain whose coordinate src[i] is the linear form x_i, with the
    constants and representation matrices scaled by their common denominator
    D to ints; s is linear in them, so that evaluation yields D s over the
    integers, and the rows are divided by D on return.
    """
    src = coord_basis(alg.dim, p, dim_v)
    dst = coord_basis(alg.dim, p + 1, dim_v)
    d, ialg, imats = integer_scaling(alg, () if rho is None else rho.mats)
    irho = None if rho is None else Representation(ialg, imats, rho.dim_v, check=False)
    generic = Cochain(p, alg.dim, dim_v,
                      {key: LinearForm({i: 1}) for i, key in enumerate(src)})
    out = coboundary(ialg, irho, generic).data
    return unscale_rows([out.get(key, LinearForm()) for key in dst], d), src, dst


@dataclass
class CohomologyReport:
    dims_c: dict
    dims_z: dict
    dims_b: dict
    dims_h: dict

    @classmethod
    def from_ranks(cls, dims_c, ranks):
        """Z/B/H from dim C^p and the rank of each differential C^p -> C^{p+1}."""
        dims_z = {p: c - ranks[p] for p, c in dims_c.items()}
        dims_b = {p: ranks[p - 1] if p else 0 for p in dims_c}
        return cls(dims_c, dims_z, dims_b, {p: dims_z[p] - dims_b[p] for p in dims_c})


def cohomology_dims(alg: LieAlgebra, rho, p_max, dim_v=None) -> CohomologyReport:
    """Exact Z/B/H dimensions for degrees 0..p_max by ranks over Q; the
    representation matrices must be rational."""
    if dim_v is None:
        dim_v = 1 if rho is None else rho.dim_v
    dims_c, ranks = {}, {}
    for p in range(0, p_max + 1):
        rows, src, _ = coboundary_matrix(alg, rho, p, dim_v)
        dims_c[p] = len(src)
        ranks[p] = linalg.rank(rows)
    return CohomologyReport.from_ranks(dims_c, ranks)


# ---------------------------------------------------------------------------
# Whitehead homotopy operator
# ---------------------------------------------------------------------------

def quadratic_casimir(alg: LieAlgebra, rho: Representation):
    """I_2(rho) = k^{ij} rho_i rho_j as a sparse matrix; raises through the
    inverse Killing form."""
    from .lie import killing_form
    kinv = linalg.inverse(killing_form(alg))
    mats = rho.mats
    return linalg.sp_sum((kinv[i][j], linalg.sp_mul(mats[i], mats[j]))
                         for i in range(alg.dim) for j in range(alg.dim) if kinv[i][j] != 0)


def homotopy_contraction(alg: LieAlgebra, rho, om: Cochain) -> Cochain:
    """(tau Om)^A_{i_1..i_{p-1}} = k^{ij} rho(X_i)^A_B Om^B_{j i_1..i_{p-1}}."""
    from .lie import killing_form
    kinv = linalg.inverse(killing_form(alg))
    rows = [_matrix_rows(m) for m in rho.mats]
    p = om.rank
    data = {}
    for idx in combinations(range(1, om.dim + 1), p - 1):
        for a in range(1, om.dim_v + 1):
            tot = Fraction(0)
            for i in range(1, om.dim + 1):
                for j in range(1, om.dim + 1):
                    kij = kinv[i - 1][j - 1]
                    if kij == 0:
                        continue
                    for b, coeff in rows[i - 1].get(a - 1, ()):
                        tot += kij * coeff * om.get(b + 1, (j,) + idx)
            if tot != 0:
                data[(a, idx)] = tot
    return Cochain(p - 1, om.dim, om.dim_v, data)


def whitehead_homotopy(alg: LieAlgebra, rho, om: Cochain) -> Cochain:
    """Return the (p-1)-cochain tau(Om) I_2(rho)^{-1} whose coboundary
    reproduces the cocycle Om (requires invertible Killing form and a scalar,
    invertible quadratic Casimir)."""
    cas = quadratic_casimir(alg, rho)
    c0 = cas.get((0, 0), 0)
    if cas != linalg.sp_scale(c0, linalg.sp_identity(rho.dim_v)):
        raise ValueError("quadratic Casimir is not scalar (rho not irreducible)")
    if c0 == 0:
        raise ValueError("quadratic Casimir is singular (rho trivial?)")
    return homotopy_contraction(alg, rho, om).scale(Fraction(1) / c0)


def laplacian_identity_holds(alg: LieAlgebra, rho, om: Cochain) -> bool:
    """(s tau + tau s) Om = I_2(rho) Om entrywise on the given cochain."""
    c0 = quadratic_casimir(alg, rho).get((0, 0), 0)
    left = coboundary(alg, rho, homotopy_contraction(alg, rho, om)) \
        + homotopy_contraction(alg, rho, coboundary(alg, rho, om))
    return left == om.scale(c0)


# ---------------------------------------------------------------------------
# central extensions
# ---------------------------------------------------------------------------

def central_extension(alg: LieAlgebra, om2: Cochain) -> LieAlgebra:
    """Extend by one central generator using a scalar 2-cocycle:
    [X~_i, X~_j] = C_ij^k X~_k + Om(X_i, X_j) Xi."""
    if om2.rank != 2 or om2.dim_v != 1:
        raise ValueError("need a scalar 2-cochain")
    if not coboundary(alg, None, om2).is_zero():
        raise ValueError("not a 2-cocycle: extension would break the Jacobi identity")
    r = alg.dim
    entries = []
    for (i, j), row in alg.c.items():
        for k, v in row.items():
            entries.append(((i, j, k), v))
    for (a, idx), v in om2.data.items():
        entries.append(((idx[0], idx[1], r + 1), v))
    ext = LieAlgebra.from_entries(r + 1, entries)
    rep = check_jacobi(ext)
    if not rep.ok:
        raise AssertionError(f"extension failed the Jacobi identity at {rep.witness}")
    return ext


def trivialize_extension(alg: LieAlgebra, om2: Cochain):
    """Solve s(Om1) = Om2 for a 1-cochain; returns the basis-change vector
    Om1 (X~'_k = X~_k - Om1_k Xi) or None when the class is non-trivial."""
    rows, src, dst = coboundary_matrix(alg, None, 1, 1)
    return linalg.solve(rows, len(src), [om2.get(1, idx) for _, idx in dst])


# ---------------------------------------------------------------------------
# deformations
# ---------------------------------------------------------------------------

@dataclass
class DeformationReport:
    is_cocycle: bool
    is_coboundary: bool
    obstruction: Cochain | None
    obstruction_is_cocycle: bool | None
    obstruction_is_coboundary: bool | None
    obstruction_potential: Cochain | None


def deformation_check(alg: LieAlgebra, alpha: Cochain) -> DeformationReport:
    """First-order deformation analysis of an algebra-valued 2-cochain.

    Checks the ad-cocycle condition; when it holds, builds the quadratic
    obstruction gamma(X,Y,Z) = alpha(X, alpha(Y,Z)) + cycl., verifies it is a
    3-cocycle, and classifies it in degree-3 cohomology by an exact solve.
    """
    if alpha.rank != 2 or alpha.dim_v != alg.dim:
        raise ValueError("need an algebra-valued 2-cochain")
    rho = alg.adjoint_rep()
    s_alpha = coboundary(alg, rho, alpha)
    if not s_alpha.is_zero():
        return DeformationReport(False, False, None, None, None, None)

    is_cob = _in_coboundary_image(alg, rho, alpha)

    r = alg.dim
    gdata = {}
    for idx in combinations(range(1, r + 1), 3):
        vec = _alpha_nested_cyclic(alg, alpha, idx)
        for a in range(1, r + 1):
            if vec[a - 1] != 0:
                gdata[(a, idx)] = vec[a - 1]
    gamma = Cochain(3, r, r, gdata)
    g_cocycle = coboundary(alg, rho, gamma).is_zero()
    pot = _coboundary_preimage(alg, rho, gamma)
    return DeformationReport(True, is_cob, gamma, g_cocycle, pot is not None, pot)


def _alpha_nested_cyclic(alg, alpha, idx):
    """alpha(X, alpha(Y, Z)) + cyclic over the three slots, as a vector."""
    r = alg.dim
    out = [Fraction(0)] * r
    x, y, z = idx
    for (i, j, k) in ((x, y, z), (y, z, x), (z, x, y)):
        inner = alpha.value((j, k))
        for l in range(1, r + 1):
            if inner[l - 1] == 0:
                continue
            for a in range(1, r + 1):
                out[a - 1] += inner[l - 1] * alpha.get(a, (i, l))
    return out


def _in_coboundary_image(alg, rho, om):
    return _coboundary_preimage(alg, rho, om) is not None


def _coboundary_preimage(alg, rho, om):
    """Exact solve s(beta) = om over the (p-1)-cochain coordinates."""
    p = om.rank
    rows, src, dst = coboundary_matrix(alg, rho, p - 1, om.dim_v)
    coords = om.data
    sol = linalg.solve(rows, len(src), [coords.get(key, ZERO) for key in dst])
    if sol is None:
        return None
    data = {src[i]: sol[i] for i in range(len(src)) if sol[i] != 0}
    return Cochain(p - 1, om.dim, om.dim_v, data)


def mc_cochain(alg: LieAlgebra) -> Cochain:
    """The algebra-valued identity 1-cochain omega(X_i) = X_i."""
    data = {(a, (a,)): Fraction(1) for a in range(1, alg.dim + 1)}
    return Cochain(1, alg.dim, alg.dim, data)
