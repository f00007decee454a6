"""Chevalley-Eilenberg cohomology for an arbitrary representation: the
coboundary, exact cohomology dimensions, and the trivialization of central
extensions.  The Casimir-built homotopy operator behind Whitehead's lemma,
central extensions and deformation cocycles with their obstruction classes
are in `claims`.

A V-valued p-cochain (`Cochain`) is a rank-p `tensors.AntisymTensor`: its
value at a strictly increasing index tuple is the target vector with
coordinates Omega^A_{i_1..i_p}, held as a sparse `LinearForm` {A: value}
(A = 1 for scalar-valued cochains).

The coboundary s is evaluated in one place, `_ce_rows`: it writes D s into
sparse integer rows {column: int}, one per target coordinate of
`coord_basis`, column (A, idx) of C^p at (A - 1) * C(dim, p) + the index of
idx in `basis_tuples`.  It reads D C and D rho, the constants and matrices
scaled to plain ints by their least common denominator D (1 for A4, A5 and
nhw2, 2 for su(3), 6 for su(4); `integer_scaling`): every term of s carries
one constant or one rho entry.  Once per degree it lists the slot pairs
(j, k) with their signs, the constants as a table [i][j] of (l, value)
pairs, and for every sorted (p-1)-tuple r the placement of each l into r:
the column of r + l and the sign of the one bisection that sorts it, or
None when l is in r.  A term is then one list read, and with dim_v = 1 the
bracket terms of a target are its row, not a copy.

A `CEComplex` is the one handle on a complex, holding what every degree
reads; `coboundary_matrix(cx, p)` gives D s_p as (rows, D).  With rho None
its D, D C and unimodular flag (below) are built once per algebra, for every
dim_v, and memoized on it (`BracketTensor.memoized`); a given rho, a
`lie.Representation` keyed (i,) and checked when it was built, builds them
once per complex and is not checked again.  No list, matrix, rank or
solution is kept.  For every complex of this module and of
`nary_cohomology`, s is ranked, applied and inverted in one place each, on
the rows of D s that `cx.matrix(p)` gives: `complex_dims` ranks them,
`apply` dots them with a cochain's coordinates and divides by D, and
`preimage` solves D s x' = y and returns x = D x', the solution of s x = y.

Ranks and preimages.  Both come from the fraction-free elimination of
`linalg.integer_echelon`, whose solutions set every non-pivot coordinate to
zero.  `complex_dims` ranks each degree on a complement of the image before
it.  Since im s_{p-1} lies in ker s_p, the coordinates of C^p where an
echelon basis of im s_{p-1} leads (the pinned coordinates) can be left out:
the others span a complement of im s_{p-1}, on which s_p has its full rank.
`linalg.complement_rank` eliminates s_p on its transpose, one row per
unpinned column, with the coordinates of C^{p+1} numbered shortest row of
D s first, and its leads pin the coordinates of C^{p+1}.  Exactly dim H^p of
its rows reduce to zero, against dim C^p - rank s_p from scratch.  The step
needs s^2 = 0, so only a closed complex (`cx.closed`) pins: the trivial
`CEComplex` of an algebra that satisfies the Jacobi identity (the verdict of
`lie.check_jacobi`, memoized on the algebra as `check_fi`'s is), a
`nary_cohomology.FAComplex` of one that satisfies the FI, and a
`LeibnizComplex` whose algebra satisfies the left identity.  A CE complex
with a given rho is not tested, since the test costs more than the step
saves.  On a complex that is not closed nothing is pinned, and the same
loop ranks every degree in full.

Poincare duality.  For the trivial representation (any dim_v) of a
unimodular algebra, tr ad_X = sum_j C_{ij}^j = 0 for every X_i, the Hodge
star conjugates s on C^p, by a signed permutation, to the transpose of s on
C^{n-1-p} (n = dim g), so the two differentials have the same rank: the
duality behind H^p = H^{n-p} (Koszul, Bull. SMF 78 (1950) 65).  The identity
needs only an antisymmetric table, not the Jacobi identity, but it fails
without unimodularity: on r2, [X_1, X_2] = X_2, H = 1, 1, 0 while the
mirrored ranks would give 1, 2, 1.  A `CEComplex` therefore tests the
trace exactly once and, when it vanishes, names the mirror of every degree p
with n-1-p < p, whose rank `complex_dims` reads instead of ranking it;
module complexes and non-unimodular algebras rank every degree.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from math import comb

from . import linalg
from .lie import LieAlgebra, check_jacobi
from .scalars import ZERO, LinearForm, accumulate, common_denominator, rat
from .tensors import AntisymTensor, FieldEq


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

    `rho` is None for the trivial representation, else a
    `lie.Representation` acting on the target, keyed (i,); its matrices
    must be rational.
    """
    cx, p = CEComplex(alg, rho, om.dim_v), om.rank
    return Cochain(p + 1, alg.dim, om.dim_v, dict(zip(cx.coords(p + 1), apply(cx, p, om.data))))


def _ce_rows(cx, p):
    """The rows of D s: C^p -> C^{p+1} of the complex cx: one {column: int}
    per coordinate of `coord_basis(dim, p + 1, dim_v)` (see the module
    docstring for the columns and the tables of a degree)."""
    mrows, dim_v, n = cx.mrows, cx.dim_v, cx.alg.dim
    col = {idx: i for i, idx in enumerate(basis_tuples(n, p))}
    targets = basis_tuples(n, p + 1)
    # positions are 0-based here; the 1-based (-1)^{j+k}
    pairs = [(j, k, -1 if (j + k) & 1 else 1) for j, k in combinations(range(p + 1), 2)]
    bracket, place = [], {}
    if pairs:  # p >= 1: the constants [i][j] and the placements into each (p-1)-tuple
        bracket = [[()] * (n + 1) for _ in range(n + 1)]
        for (i, j), row in cx.ialg.c.items():
            bracket[i][j] = tuple(row.items())
        for rest in basis_tuples(n, p - 1):
            put = place[rest] = [None] * (n + 1)
            for l in range(1, n + 1):
                pos = bisect_left(rest, l)
                if pos == len(rest) or rest[pos] != l:  # a repeated index reads zero
                    put[l] = col[rest[:pos] + (l,) + rest[pos:]], -1 if pos & 1 else 1
    acts = any(mrows)
    rows = [None] * (dim_v * len(targets))
    for m, idx in enumerate(targets):
        br = {}  # the bracket terms, the same for every target coordinate A
        for j, k, sign in pairs:
            terms = bracket[idx[j]][idx[k]]
            if terms:
                put = place[idx[:j] + idx[j + 1:k] + idx[k + 1:]]
                for l, v in terms:
                    at = put[l]
                    if at:
                        accumulate(br, at[0], at[1] * sign * v)
        # (-1)^i rho(X_i) on the column of idx without i
        faces = [(col[idx[:i] + idx[i + 1:]], -1 if i & 1 else 1, mrows[x - 1])
                 for i, x in enumerate(idx)] if acts else ()
        for a in range(dim_v):  # a single target coordinate keeps br itself
            row = rows[a * len(targets) + m] = br if dim_v == 1 else {
                a * len(col) + i: v for i, v in br.items()}
            for rest, s, mr in faces:
                for b, v in mr.get(a, ()):
                    accumulate(row, b * len(col) + rest, s * v)
    return rows


def _matrix_rows(m):
    """{row: [(column, value), ..]} of a sparse matrix, columns ascending."""
    rows = {}
    for (a, b), v in sorted(m.items()):
        rows.setdefault(a, []).append((b, v))
    return rows


# ---------------------------------------------------------------------------
# matrices of s and cohomology dimensions
# ---------------------------------------------------------------------------

def coord_basis(r, p, dim_v):
    return [(a, idx) for a in range(1, dim_v + 1) for idx in basis_tuples(r, p)]


def integer_scaling(alg, mats=()):
    """(D, D C, [D m for m in mats]): D is the least common denominator of the
    structure constants and the values of the sparse matrices, and the scaled
    constants (`BracketTensor.integer_scaled`) and matrices hold plain ints.
    The values must be rational: a Gaussian value with a nonzero imaginary
    part raises ValueError."""
    mats = [{key: rat(v) for key, v in m.items()} for m in mats]
    d, ialg = alg.integer_scaled(common_denominator([v for m in mats for v in m.values()]))
    return d, ialg, [{key: v.numerator * (d // v.denominator) for key, v in m.items()}
                     for m in mats]


def apply_rows(rows, x, d):
    """The values row . x / d of the rows of d * delta on the coordinates x,
    a sparse {column: value} vector."""
    scale = 1 if d == 1 else Fraction(1, d)
    return [sum(v * x[c] for c, v in row.items() if c in x) * scale for row in rows]


def column_vector(cx, p, x):
    """x, a sparse {coordinate: value} over `cx.coords(p)`, keyed by column;
    a coordinate outside C^p reads nothing."""
    col = {c: i for i, c in enumerate(cx.coords(p))}
    return {col[c]: v for c, v in x.items() if c in col}


def apply(cx, p, x):
    """delta_p x on the complex cx, x a sparse {coordinate: value} over
    `cx.coords(p)`: one value per coordinate of `cx.coords(p + 1)`, in order,
    the rows of D delta_p (`cx.matrix`) dotted with x and divided by D."""
    return apply_rows(cx.matrix(p), column_vector(cx, p, x), cx.d)


def preimage(cx, p, y):
    """One x with delta_p x = y, as a list over `cx.coords(p)` with every
    non-pivot coordinate zero, or None when y, a sparse {coordinate: value}
    over `cx.coords(p + 1)`, is not a coboundary.  It solves D delta_p x' = y
    on the rows of `cx.matrix(p)` and returns x = D x': those augmented rows
    are the rows of delta_p x = y with each column of x scaled by D, so the
    elimination takes the same pivots and x is the same solution."""
    x = linalg.solve(cx.matrix(p), cx.dim(p), [y.get(c, 0) for c in cx.coords(p + 1)])
    return x if x is None or cx.d == 1 else [v * cx.d if v else v for v in x]


def coboundary_matrix(cx, p):
    """s: C^p -> C^{p+1} of the `CEComplex` cx as (rows, D), s = rows / D:
    the int rows of D s (`_ce_rows`), which give its rank, one per coordinate
    of `cx.coords(p + 1)`, their columns indexed by `cx.coords(p)`."""
    return _ce_rows(cx, p), cx.d


class CohomologyReport(FieldEq):
    _fields = ("dims_c", "dims_z", "dims_b", "dims_h")

    def __init__(self, dims_c, dims_z, dims_b, dims_h):
        self.dims_c, self.dims_z, self.dims_b, self.dims_h = dims_c, dims_z, dims_b, dims_h

    @classmethod
    def from_ranks(cls, dims_c, ranks):
        """Z/B/H from dim C^p and the rank of each differential C^p -> C^{p+1}."""
        dims_z = {p: c - ranks[p] for p, c in dims_c.items()}
        dims_b = {p: ranks[p - 1] if p else 0 for p in dims_c}
        return cls(dims_c, dims_z, dims_b, {p: dims_z[p] - dims_b[p] for p in dims_c})


def _unimodular(alg: LieAlgebra):
    """tr ad_{X_i} = sum_j C_{ij}^j = 0 for every i, summed exactly."""
    tr = [0] * (alg.dim + 1)
    for (a, b), row in alg.c.items():
        tr[a] += row.get(b, 0)
        tr[b] -= row.get(a, 0)
    return not any(tr)


class CEComplex:
    """The complex of rho (None: the trivial module Q^dim_v, dim_v default
    1) as `complex_dims`, `apply` and `preimage` read it: D, D C and the rows
    of each D rho_(i,) matrix for `_ce_rows`, dim C^p, its coordinates, the
    mirror rule and whether it is closed (module docstring).  A given rho is
    a `lie.Representation`, checked when it was built: the complex checks
    it no further."""

    kind = "ce"

    def __init__(self, alg, rho=None, dim_v=None):
        if dim_v is None:
            dim_v = 1 if rho is None else rho.dim_v
        elif rho is not None and rho.dim_v != dim_v:
            raise ValueError("representation/target dimension mismatch")
        self.alg, self.rho, self.dim_v = alg, rho, dim_v
        if rho is None:
            self.d, self.ialg, self.unimodular = alg.memoized("ce", lambda: (
                *integer_scaling(alg)[:2], _unimodular(alg)))
            self.mrows = [{}] * alg.dim
        else:
            self.d, self.ialg, imats = integer_scaling(
                alg, [rho.mats[(i,)] for i in range(1, alg.dim + 1)])
            self.mrows = [_matrix_rows(m) for m in imats]
            self.unimodular = False

    @property
    def closed(self):
        """Whether rho is None and the algebra passes the memoized
        `check_jacobi` (module docstring)."""
        return self.rho is None and check_jacobi(self.alg).ok

    def dim(self, p):
        return comb(self.alg.dim, p) * self.dim_v

    def coords(self, p):
        """The coordinates (A, idx) of C^p, in column order."""
        return coord_basis(self.alg.dim, p, self.dim_v)

    def mirror(self, p):
        """n-1-p when the complex is trivial, the algebra unimodular and n-1-p < p."""
        q = self.alg.dim - 1 - p
        return q if self.unimodular and q < p else None

    def matrix(self, p):
        """The integer rows of D s_p."""
        return coboundary_matrix(self, p)[0]


def complex_dims(cx, p_max) -> CohomologyReport:
    """Exact Z/B/H dimensions of the complex cx (`CEComplex`,
    `nary_cohomology.FAComplex` or `LeibnizComplex`) for degrees 0..p_max, by
    ranks over Q.  A degree with a mirror q takes rank s_q (0 when q < 0) and
    is neither assembled nor eliminated.  Every other degree ranks
    `cx.matrix` by `linalg.complement_rank` outside the coordinates the
    degree before it pinned; only a closed complex (`cx.closed`) pins
    (module docstring)."""
    dims_c, ranks, pinned, closed = {}, {}, set(), cx.closed
    for p in range(p_max + 1):
        dims_c[p] = cx.dim(p)
        q = cx.mirror(p)
        if q is None:
            ranks[p], leads = linalg.complement_rank(cx.matrix(p), pinned)
            if closed:
                pinned = leads
        else:
            ranks[p] = ranks.get(q, 0)
    return CohomologyReport.from_ranks(dims_c, ranks)


def cohomology_dims(alg: LieAlgebra, rho, p_max) -> CohomologyReport:
    """Exact Z/B/H dimensions of the complex of rho (None: the trivial
    module Q) for degrees 0..p_max; the representation matrices must be
    rational.  With rho None and a unimodular algebra, a degree p above its
    mirror n-1-p takes its rank from the mirror (`CEComplex.mirror`).  The
    trivial module Q^dim_v is `complex_dims(CEComplex(alg, None, dim_v),
    p_max)`."""
    return complex_dims(CEComplex(alg, rho), p_max)


# ---------------------------------------------------------------------------
# central extensions
# ---------------------------------------------------------------------------


def trivialize_extension(alg: LieAlgebra, om2: Cochain):
    """Solve s(Om1) = Om2 for a 1-cochain; returns the basis-change vector
    Om1 (X~'_k = X~_k - Om1_k Xi) or None when the class is non-trivial."""
    return preimage(CEComplex(alg), 1, om2.data)
