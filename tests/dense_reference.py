"""Slow dense references for the exact fast paths.

Dense `Fraction` Gauss-Jordan elimination, the reference the fraction-free
`linalg.integer_echelon` is compared against.  Matrices are lists of row
lists.  `rref` pivots on the first nonzero entry of each column in turn, so
its pivots are the lexicographically first independent columns; `nullspace`
takes one basis vector per free column and `solve` sets every free
coordinate to zero.

The su(n) generators, the closure residual, the symmetrized traces and the
gamma matrices on dense `GaussianRational` products, the references for the
sparse ℤ[i] kernel of `linalg`.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, permutations

from naryalg import linalg
from naryalg.lie import LieAlgebra, SymInvariantPoly
from naryalg.scalars import GaussianRational, is_zero


def rref(mat):
    """Reduced row-echelon form; returns (rref_matrix, pivot_columns)."""
    m = [row[:] for row in mat]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if not is_zero(m[i][c])), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and not is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(mat) -> int:
    return len(rref(mat)[1])


def nullspace(mat):
    """Basis of the right nullspace (deterministic: free columns in order)."""
    if not mat:
        return []
    r, pivots = rref(mat)
    cols = len(mat[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][fc]
        basis.append(v)
    return basis


def solve(a, b):
    """One exact solution x of a x = b, or None if inconsistent."""
    if not a:
        return [] if all(is_zero(x) for x in b) else None
    rows, cols = len(a), len(a[0])
    aug = [a[i][:] + [b[i]] for i in range(rows)]
    r, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for i, pc in enumerate(pivots):
        x[pc] = r[i][cols]
    return x


def sparse(mat):
    """The rows of a dense matrix as {column: nonzero value} dicts."""
    return [{j: v for j, v in enumerate(row) if not is_zero(v)} for row in mat]


# ---------------------------------------------------------------------------
# su(n) and gamma matrices on dense Gaussian products
# ---------------------------------------------------------------------------

def sun_generators(n):
    """(algebra, hermitian, trace_norms, antihermitian) of su(n), built on
    dense `GaussianRational` matrices X_i with Tr(X_i X_i) = 1/2 off the
    diagonal and l(l+1)/4 on the l-th Cartan generator."""
    half = Fraction(1, 2)

    def gmat(f):
        return [[f(a, b) for b in range(n)] for a in range(n)]

    herm = []
    for a in range(n):
        for b in range(a + 1, n):
            herm.append(gmat(lambda x, y, a=a, b=b:
                             GaussianRational(half) if (x, y) in ((a, b), (b, a))
                             else GaussianRational(0)))
            herm.append(gmat(lambda x, y, a=a, b=b:
                             GaussianRational(0, -half) if (x, y) == (a, b)
                             else GaussianRational(0, half) if (x, y) == (b, a)
                             else GaussianRational(0)))
    for l in range(1, n):
        herm.append(gmat(lambda x, y, l=l:
                         GaussianRational(half) if x == y and x < l
                         else GaussianRational(-Fraction(l, 2)) if x == y == l
                         else GaussianRational(0)))

    r = n * n - 1
    norms = []
    for m in herm:
        t = linalg.trace(linalg.mat_mul(m, m))
        assert t.im == 0
        norms.append(t.re)
    entries = []
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            cm = linalg.commutator(herm[i - 1], herm[j - 1])
            for k in range(1, r + 1):
                coeff = linalg.trace(linalg.mat_mul(cm, herm[k - 1]))
                c = GaussianRational(0, -1) * coeff / GaussianRational(norms[k - 1])
                assert c.im == 0, "structure constants must be real"
                if c.re != 0:
                    entries.append(((i, j, k), c.re))
    alg = LieAlgebra.from_entries(r, entries)
    antiherm = [linalg.mat_scale(GaussianRational(0, -1), m) for m in herm]
    return alg, herm, norms, antiherm


def closure_residual(alg, mats):
    """None when [rho_i, rho_j] - C_ij^k rho_k = 0 exactly; else first (i, j)."""
    for i in range(1, alg.dim + 1):
        for j in range(i + 1, alg.dim + 1):
            m = linalg.commutator(mats[i - 1], mats[j - 1])
            for k, v in alg.c_row(i, j).items():
                m = linalg.mat_sub(m, linalg.mat_scale(v, mats[k - 1]))
            if not linalg.is_zero_matrix(m):
                return (i, j)
    return None


def _factorial(m):
    f = 1
    for q in range(2, m + 1):
        f *= q
    return f


def symmetrized_trace_poly(herm, m):
    """sTr(X_{i_1}..X_{i_m}) of dense hermitian matrices, weight one."""
    r = len(herm)
    prefix = {}

    def product_of(seq):
        if len(seq) == 1:
            return herm[seq[0] - 1]
        got = prefix.get(seq)
        if got is None:
            got = linalg.mat_mul(product_of(seq[:-1]), herm[seq[-1] - 1])
            prefix[seq] = got
        return got

    fact = _factorial(m)
    terms = {}
    for idx in combinations_with_replacement(range(1, r + 1), m):
        perms = set(permutations(idx))
        tot = GaussianRational(0)
        for p in perms:
            tot = tot + linalg.trace(product_of(p))
        tot = tot * (fact // len(perms))
        assert tot.im == 0
        v = tot.re / fact
        if v != 0:
            terms[idx] = v
    return SymInvariantPoly(m, r, terms)


def kron(a, b):
    n, m = len(a), len(b)
    na, ma = len(a[0]), len(b[0])
    return [[a[i // m][j // ma] * b[i % m][j % ma]
             for j in range(na * ma)] for i in range(n * m)]


def gamma_matrices(d_even):
    """(gammas, chirality) by the recursive sigma-block pattern on dense
    `GaussianRational` matrices."""
    g0, g1, gi = GaussianRational(0), GaussianRational(1), GaussianRational(0, 1)
    s1 = [[g0, g1], [g1, g0]]
    s2 = [[g0, -gi], [gi, g0]]

    def ident(size):
        return [[g1 if i == j else g0 for j in range(size)] for i in range(size)]

    def chirality(gammas):
        prod = gammas[0]
        for g in gammas[1:]:
            prod = linalg.mat_mul(prod, g)
        sq = linalg.mat_mul(prod, prod)
        if linalg.mat_eq(sq, ident(len(prod))):
            return prod
        assert linalg.mat_eq(sq, linalg.mat_scale(-g1, ident(len(prod))))
        return linalg.mat_scale(gi, prod)

    gam = [s1, s2]
    while len(gam) < d_even:
        prev = gam
        gam = [kron(g, s1) for g in prev]
        gam.append(kron(chirality(prev), s1))
        gam.append(kron(ident(len(prev[0])), s2))
    return gam, chirality(gam)
