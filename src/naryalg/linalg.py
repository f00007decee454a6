"""Exact linear algebra over the rationals: one sparse operator-matrix
format, one eliminator, and the reductions of bilinear forms.

Operator matrices -- ad maps, representation matrices, su(n) generators,
gamma matrices and the brackets built from them -- are sparse maps {(row,
column): nonzero value} with 0-based indices and int, `Fraction` or
`GaussianRational` values; no zero is stored, so a matrix is zero exactly
when its map is empty, and two matrices are equal exactly when their maps
are.  A map does not know its size: the object that holds the matrices
does (`lie.Representation.dim_v` for a module of any arity, the dimension
of an algebra for its ad maps).  The
kernel is `sp_mul`, `sp_commutator`, `sp_trace` (Tr ab without forming
ab), `sp_scale`, `sp_identity` and `sp_sum` (linear combinations, through
`scalars.accumulate`).

The su(n) generators and the gamma matrices are built on the same format
with Gaussian-integer (ℤ[i]) values held as int pairs (re, im): every
generalized Gell-Mann matrix, doubled, and every gamma matrix has at most
one nonzero per row, in {±1, ±i} (or a small integer on a doubled Cartan
diagonal), so their arithmetic is integer products and sums.  `zi_mul`,
`zi_trace`, `zi_commutator`, `zi_anticommutator`, `zi_kron`, `zi_scale`
and `zi_sum` are that kernel's operations, and `zi_wrap` turns a ℤ[i] matrix, scaled by
a rational (1/2 undoes the doubling), into `GaussianRational` values.  The
Clifford realization stays on this kernel throughout: its brackets of
pairwise anticommuting gammas are ordered products
(`filippov.anticommuting_brackets`), expanded by `zi_trace`.

Bilinear forms -- metrics, Killing and Kasymov forms -- stay dense r x r
lists of rows; `det`, `signature` and `inverse` read them that way.

Every rank, solve and inverse runs through `integer_echelon`, which reduces
sparse rows {column: nonzero value} over the integers, fraction-free
(Bareiss, Math. Comp. 22 (1968) 565, with content removal):

  * empty rows are dropped; each other row enters as a primitive integer
    row: multiplied by the lcm of its denominators, then divided by the gcd
    of its numerators (`primitive_row`);
  * rows are taken shortest first, with leading-column pivots.  A row r that
    leads where basis row b leads becomes (b_lead/g) r - (r_lead/g) b, with
    g = gcd(b_lead, r_lead), and is divided by its content again; this goes
    on until r is zero or leads in a column no basis row leads in.

Each step scales r by a nonzero rational and subtracts a multiple of b, so
the row space never changes.  The leading columns of the result depend only
on the row space: they are the lexicographically first independent columns.
`rank` counts them.  `complement_rank`, the kernel of
`cohomology.complex_dims`, always reduces the transpose, and numbers its
columns by the length of the rows they come from, shortest first: on nine
seeded dense copies of su(3) the largest basis entry of delta_3 then stays
within 6 bits, where the natural order reaches 32-35 bits on two of them
and slows their elimination several-fold.  `solve` back-substitutes in
`Fraction`s, dividing by each basis row's lead, and sets every non-pivot
coordinate to zero; that solution is unique.  `inverse` solves for each
column of the identity, and `echelon` is the basis scaled to 1 at each
lead.

Exact integers need no modulus: no prime can divide a pivot by accident, so
no certificate or fallback is needed, and content removal keeps the entries
small (on su(4) the largest basis entry stays below 10^7).

`integer_echelon` reads `.numerator` and `.denominator`, so its entries are
rational.  Two reductions keep their own loops.  `det` runs in any exact
field: an `.alg` metric block may be written over Q(i), and a metric is
nondegenerate exactly when its determinant is nonzero, the verdict that
`nondegenerate` returns as a `tensors.IdentityReport`, the package's one
report type.  `signature` reduces rows and columns together (a
congruence, not a row echelon form), since Sylvester's law of inertia is
about congruence.

All arithmetic is exact, so ranks and solutions are deterministic and free
of rounding; this is what turns the cohomology dimensions into integers
rather than tolerance statements.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd

from .scalars import GaussianRational, accumulate, common_denominator, is_zero
from .tensors import IdentityReport


# ---------------------------------------------------------------------------
# dense bilinear forms
# ---------------------------------------------------------------------------

def zeros(n, m):
    return [[Fraction(0)] * m for _ in range(n)]


def identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# sparse operator matrices
# ---------------------------------------------------------------------------

def sp_identity(size):
    return {(i, i): 1 for i in range(size)}


def sp_scale(c, a):
    """The matrix c a."""
    return {key: c * v for key, v in a.items()} if c else {}


def sp_sum(terms):
    """The matrix sum c m over the (c, m) pairs of terms."""
    out = {}
    for c, m in terms:
        for key, v in m.items():
            accumulate(out, key, c * v)
    return out


def sp_mul(a, b):
    """The product of two matrices."""
    rows = {}
    for (k, j), w in b.items():
        rows.setdefault(k, []).append((j, w))
    out = {}
    for (i, k), v in a.items():
        for j, w in rows.get(k, ()):
            accumulate(out, (i, j), v * w)
    return out


def sp_trace(a, b):
    """Tr ab, without forming the product."""
    tot = 0
    for (i, k), v in a.items():
        w = b.get((k, i))
        if w is not None:
            tot += v * w
    return tot


def sp_commutator(a, b):
    out = sp_mul(a, b)
    for key, v in sp_mul(b, a).items():
        accumulate(out, key, -v)
    return out


# ---------------------------------------------------------------------------
# sparse Gaussian-integer matrices
# ---------------------------------------------------------------------------

def _zi_add(out, key, re, im):
    """out[key] += re + im i, for a nonzero re + im i, on a map without zero
    values."""
    old = out.get(key)
    if old is not None:
        re += old[0]
        im += old[1]
        if not (re or im):
            del out[key]
            return
    out[key] = (re, im)


def zi_mul(a, b):
    """The product of two ℤ[i] matrices."""
    rows = {}
    for (k, j), w in b.items():
        rows.setdefault(k, []).append((j, w))
    out = {}
    for (i, k), (ar, ai) in a.items():
        for j, (br, bi) in rows.get(k, ()):
            _zi_add(out, (i, j), ar * br - ai * bi, ar * bi + ai * br)
    return out


def zi_trace(a, b):
    """Tr ab as (re, im), without forming the product."""
    re = im = 0
    for (i, k), (ar, ai) in a.items():
        w = b.get((k, i))
        if w is not None:
            br, bi = w
            re += ar * br - ai * bi
            im += ar * bi + ai * br
    return re, im


def zi_scale(c, a):
    """The ℤ[i] matrix c a, for a nonzero Gaussian integer c = (re, im)."""
    cr, ci = c
    return {key: (cr * ar - ci * ai, cr * ai + ci * ar) for key, (ar, ai) in a.items()}


def zi_sum(terms):
    """The ℤ[i] matrix sum c m over the (c, m) pairs of terms, int c."""
    out = {}
    for c, m in terms:
        for key, (re, im) in m.items():
            _zi_add(out, key, c * re, c * im)
    return out


def _zi_bracket(a, b, sign):
    return zi_sum([(1, zi_mul(a, b)), (sign, zi_mul(b, a))])


def zi_commutator(a, b):
    return _zi_bracket(a, b, -1)


def zi_anticommutator(a, b):
    return _zi_bracket(a, b, 1)


def zi_kron(a, b, b_size):
    """The Kronecker product of a ℤ[i] matrix and a b_size-square one; row
    (i, k) of the product is row i * b_size + k."""
    return {(i * b_size + k, j * b_size + l): (ar * br - ai * bi, ar * bi + ai * br)
            for (i, j), (ar, ai) in a.items() for (k, l), (br, bi) in b.items()}


def zi_identity(size):
    return {(i, i): (1, 0) for i in range(size)}


def zi_wrap(a, scale=1):
    """The matrix scale * a with `GaussianRational` values."""
    return {key: GaussianRational(scale * re, scale * im) for key, (re, im) in a.items()}


# ---------------------------------------------------------------------------
# determinant and signature
# ---------------------------------------------------------------------------

def det(a):
    """Exact determinant by fraction-free-style elimination with row swaps."""
    n = len(a)
    m = [row[:] for row in a]
    sign = 1
    d = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if not is_zero(m[i][c])), None)
        if pivot is None:
            return Fraction(0) * d
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        d = d * m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if not is_zero(m[i][c]):
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return sign * d


def nondegenerate(g) -> IdentityReport:
    """The verdict det g != 0 on a bilinear form g, which may be Gaussian;
    it has no witness."""
    return IdentityReport(not is_zero(det(g)))


def signature(sym):
    """(n_plus, n_minus, n_zero) of a rational symmetric matrix, found by
    exact simultaneous row/column reduction (Lagrange diagonalization)."""
    n = len(sym)
    m = [row[:] for row in sym]
    plus = minus = zero = 0
    idx = list(range(n))
    work = [row[:] for row in m]
    used = [False] * n
    for _ in range(n):
        # find a nonzero diagonal entry among unused coordinates
        k = next((i for i in idx if not used[i] and work[i][i] != 0), None)
        if k is None:
            # try to create one from an off-diagonal pair
            pair = None
            for i in idx:
                if used[i]:
                    continue
                for j in idx:
                    if not used[j] and i != j and work[i][j] != 0:
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                zero += sum(1 for i in idx if not used[i])
                break
            i, j = pair
            # row/col operation: e_i -> e_i + e_j makes diagonal nonzero
            for c in range(n):
                work[i][c] += work[j][c]
            for r in range(n):
                work[r][i] += work[r][j]
            k = i
        d = work[k][k]
        if d > 0:
            plus += 1
        else:
            minus += 1
        used[k] = True
        for i in idx:
            if i != k and not used[i] and work[i][k] != 0:
                f = work[i][k] / d
                for c in range(n):
                    work[i][c] -= f * work[k][c]
                for r in range(n):
                    work[r][i] -= f * work[r][k]
    return plus, minus, zero


# ---------------------------------------------------------------------------
# the eliminator
# ---------------------------------------------------------------------------

def primitive_row(row):
    """The row scaled by a positive rational to coprime integers: {column:
    int}, zero values dropped.  Its span is the row's span."""
    den = common_denominator(row.values())
    if den == 1:
        out = {c: v.numerator for c, v in row.items() if v}
    else:
        out = {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}
    g = gcd(*out.values())
    if g > 1:
        out = {c: v // g for c, v in out.items()}
    return out


def integer_echelon(rows):
    """Echelon basis of the span of sparse rational rows over the integers:
    {leading column: primitive integer row}.  The input rows are not changed.

    A row leading where basis row b leads becomes (b_lead/g) row -
    (row_lead/g) b, with g = gcd(b_lead, row_lead), and is then divided by
    its content; no `Fraction` is built."""
    basis = {}
    for row in sorted(filter(None, rows), key=len):
        row = primitive_row(row)
        while row:
            lead = min(row)
            prow = basis.get(lead)
            if prow is None:
                basis[lead] = row
                break
            a, f = prow[lead], row[lead]
            g = gcd(a, f)
            a, f = a // g, f // g
            if a < 0:
                a, f = -a, -f
            if a != 1:
                row = {c: a * v for c, v in row.items()}
            for c, v in prow.items():
                w = row.get(c, 0) - f * v
                if w:
                    row[c] = w
                else:
                    del row[c]
            g = gcd(*row.values())
            if g > 1:
                row = {c: v // g for c, v in row.items()}
    return basis


def echelon(rows):
    """Echelon basis of the span of sparse rows: {leading column: row}, each
    row scaled to 1 at its leading column (`Fraction` values).  The input
    rows are not changed."""
    return {lead: {c: Fraction(v, row[lead]) for c, v in row.items()}
            for lead, row in integer_echelon(rows).items()}


def rank(rows) -> int:
    """The rank of sparse rows: the size of their echelon basis."""
    return len(integer_echelon(rows))


def complement_rank(rows, pinned):
    """(rank, leads) of the rows of D delta_p, one per coordinate of C^{p+1},
    restricted to the columns of C^p outside pinned: the rank of delta_p
    when pinned are the leads of an echelon basis of im delta_{p-1} and
    delta_p delta_{p-1} = 0.  It reduces the transpose over the coordinates
    of C^{p+1} numbered shortest row first (an empty row takes no number);
    leads are the rows where that echelon basis of im delta_p leads: the
    pinned set of delta_{p+1}."""
    lens = list(map(len, rows))
    order = sorted(compress(range(len(rows)), lens), key=lens.__getitem__)
    cols = {}
    for at, i in enumerate(order):
        for c, v in rows[i].items():
            if c not in pinned:
                col = cols.get(c)
                if col is None:
                    cols[c] = {at: v}
                else:
                    col[at] = v
    basis = integer_echelon(cols.values())
    return len(basis), {order[lead] for lead in basis}


def solve(rows, ncols, rhs):
    """One exact solution x (a list of ncols `Fraction`s) of rows . x = rhs,
    with every non-pivot coordinate zero, or None if inconsistent."""
    aug = [{**row, ncols: b} if not is_zero(b) else row
           for row, b in zip(rows, rhs, strict=True)]
    basis = integer_echelon(aug)
    if ncols in basis:
        return None
    x = [Fraction(0)] * ncols
    for lead in sorted(basis, reverse=True):
        row = basis[lead]
        x[lead] = Fraction(row.get(ncols, 0) - sum(
            (v * x[c] for c, v in row.items() if lead < c < ncols), Fraction(0)), row[lead])
    return x


def inverse(a):
    """The inverse of a square rational matrix (dense rows in and out): its
    column j solves a x = e_j.  Raises ValueError when a is singular."""
    n = len(a)
    rows = [{j: v for j, v in enumerate(row) if v} for row in a]
    cols = [solve(rows, n, [int(i == j) for i in range(n)]) for j in range(n)]
    if None in cols:
        raise ValueError("matrix is singular")
    return [list(row) for row in zip(*cols)]
