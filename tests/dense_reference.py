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

The dense operator-matrix layer (`mat_mul`, `commutator`, `trace`, ..) and
every function of the package that acts on operator matrices, as first
written on it: the references for the sparse {(row, column): value} maps
that the package uses.  `to_dense` and `to_map` convert between the two.

The four antisymmetric containers and the two wedges as they stood before
`tensors.AntisymTensor` replaced them: the CE `Cochain`, the Poly-valued
`PolyMultivector` with its `_SignedComponents` read table and its `wedge`,
the exterior-algebra `Multivector` and `wedge_antisym`.  They are the
references of the container parity tests.

The CE coboundary as first written, term by term on a `cohomology.Cochain`,
its epsilon-contracted coordinates form for scalar cochains, and its matrix
from one evaluation on the generic cochain of linear forms: the references
of the integer row kernel of `cohomology`.

The identity scans as they stood before they read the signed row table of
the integer-scaled constants: the Jacobi scan with one `c_get` per (l, s),
the three forms of the Filippov identity on `f_row` reads of `Fraction`
constants, the Killing form, the Kasymov form as a `Fraction` loop of
`f_row`/`f_get` reads, and the metric invariance scans of a Lie and of a
Filippov algebra.  They are the references of the identity, trace-form and
metric parity tests.

`shuffle_splits` as the recursive generator that derived the signs of every
index tuple afresh, and the Schouten bracket, `gps_check` and `np_check` as
they stood before they read integer term maps: `Fraction` Polys from the
signed table of the tensor, with the self-bracket computed as a whole
`schouten_bracket` and every Sigma pair of the Nambu-Poisson algebraic scan
read.  They are the references of the Poisson parity tests; every
reference here takes its shuffles from this `shuffle_splits`.

The pair resolution of the epsilon symbol with one `gen_kronecker` call per
symbol, the slow reference of the pair half of
`tensors.eps_identities_check`.

The plus/minus split of the inner derivations of the euclidean 3-algebra on
R^4 into two su(2) blocks, with its report type and its invariance scan on
wedge-label pairs: the A4 reference of `filippov.gauge_algebra`.  The
homology boundary as first written, with one `fundamental_compose` tensor
per block pair and one `f_row` per (block, z): the reference of
`nary_cohomology.homology_boundary`, which reads `fundamental_tables`.

The bridge from invariant polynomials to cocycles and generalized Lie
algebras as it stood before it ran on integer tables: the invariance scan
over every (l, multiset) with one sorting `k.get` per term, the cocycle
construction with one `k.get` per rho, the cocycle residual scan over every
sorted (p+1)-tuple, the nested-bracket residuals with one `merge_sign` and
one sort per term, the GJI and mixed-identity checks on the `Fraction`
tables, and the raised-index GLA constants over dense inverse-Killing rows;
the invariance scan of a cocycle over every (i, sorted tuple) and the
polynomial vanishing identity over every ordered pair split, both with one
sorting read per term.  They are the references of the bridge parity tests.

The two coboundary row kernels as they stood before they read index-coded
tables: the CE rows with one `insert_sign` and one tuple-keyed column read
per term, and the Leibniz rows on the tuple-keyed fundamental tables, their
(block, point)-keyed actions, a placement by `insert_sign` and a read
closure per term.  They are the references of the row-kernel parity tests.

`cohomology_dims` ranking every degree, before the upper half of the trivial
complex of a unimodular algebra was read from its Poincare mirror: the
reference of the duality tests.

`parse_alg`, the .alg reader as it stood before it split each line once and
memoized its scalars: one regex match per token, each token's column worked
out as it is read.  It is the reference of the parser fuzz test, for the
parsed file and for the line, column and message of every `ParseError`.
"""

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product

from naryalg import cohomology, linalg, nary_cohomology
from naryalg.algfile import KINDS, AlgebraFile, ParseError
from naryalg.claims import ray_equal
from naryalg.filippov import (FARepresentation, FilippovAlgebra, adjoint_fa_representation,
                              fundamental_compose, lowered_form, simple_fa)
from naryalg.gla import GLAlgebra, lie_as_gla
from naryalg.lie import LieAlgebra, Representation, SymInvariantPoly, killing_form
from naryalg.poly import Poly, add_product
from naryalg.scalars import (ZERO, GaussianRational, LinearForm, accumulate, is_zero, parse_scalar,
                             rat)
from naryalg.tensors import (AntisymTensor, IdentityReport, fold_antisym, gen_kronecker,
                             insert_sign, merge_sign, perm_sign, sort_blocks, sort_sign)


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
        t = trace(mat_mul(m, m))
        assert t.im == 0
        norms.append(t.re)
    entries = []
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            cm = commutator(herm[i - 1], herm[j - 1])
            for k in range(1, r + 1):
                coeff = trace(mat_mul(cm, herm[k - 1]))
                c = GaussianRational(0, -1) * coeff / GaussianRational(norms[k - 1])
                assert c.im == 0, "structure constants must be real"
                if c.re != 0:
                    entries.append(((i, j, k), c.re))
    alg = LieAlgebra.from_entries(r, entries)
    antiherm = [mat_scale(GaussianRational(0, -1), m) for m in herm]
    return alg, herm, norms, antiherm


def closure_residual(alg, mats):
    """None when [rho_i, rho_j] - C_ij^k rho_k = 0 exactly; else first (i, j)."""
    for i in range(1, alg.dim + 1):
        for j in range(i + 1, alg.dim + 1):
            m = commutator(mats[i - 1], mats[j - 1])
            for k, v in alg.c_row(i, j).items():
                m = mat_sub(m, mat_scale(v, mats[k - 1]))
            if not is_zero_matrix(m):
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
            got = mat_mul(product_of(seq[:-1]), herm[seq[-1] - 1])
            prefix[seq] = got
        return got

    fact = _factorial(m)
    terms = {}
    for idx in combinations_with_replacement(range(1, r + 1), m):
        perms = set(permutations(idx))
        tot = GaussianRational(0)
        for p in perms:
            tot = tot + trace(product_of(p))
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
            prod = mat_mul(prod, g)
        sq = mat_mul(prod, prod)
        if mat_eq(sq, ident(len(prod))):
            return prod
        assert mat_eq(sq, mat_scale(-g1, ident(len(prod))))
        return mat_scale(gi, prod)

    gam = [s1, s2]
    while len(gam) < d_even:
        prev = gam
        gam = [kron(g, s1) for g in prev]
        gam.append(kron(chirality(prev), s1))
        gam.append(kron(ident(len(prev[0])), s2))
    return gam, chirality(gam)

# ---------------------------------------------------------------------------
# the dense operator-matrix layer
# ---------------------------------------------------------------------------

def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    zero = Fraction(0) * a[0][0] * b[0][0]
    out = [[zero] * m for _ in range(n)]
    for i in range(n):
        row_a = a[i]
        row_o = out[i]
        for l in range(k):
            v = row_a[l]
            if is_zero(v):
                continue
            row_b = b[l]
            for j in range(m):
                w = row_b[j]
                if not is_zero(w):
                    row_o[j] = row_o[j] + v * w
    return out


def mat_eq(a, b):
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def transpose(a):
    return [list(r) for r in zip(*a)]


def trace(a):
    return sum((a[i][i] for i in range(len(a))), Fraction(0) * a[0][0])


def commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def anticommutator(a, b):
    return mat_add(mat_mul(a, b), mat_mul(b, a))


def is_zero_matrix(a):
    return all(is_zero(x) for row in a for x in row)


def to_dense(m, size):
    """The size x size dense matrix of a sparse {(row, column): value} map."""
    out = [[Fraction(0)] * size for _ in range(size)]
    for (i, j), v in m.items():
        out[i][j] = v
    return out


def to_map(a):
    """The sparse {(row, column): nonzero value} map of a dense matrix."""
    return {(i, j): v for i, row in enumerate(a) for j, v in enumerate(row) if not is_zero(v)}


def lie_ad_matrix(alg, i):
    """(ad_{X_i})^k_j = C_{ij}^k as a dim x dim matrix."""
    m = linalg.zeros(alg.dim, alg.dim)
    for j in range(1, alg.dim + 1):
        for k, v in alg.c_row(i, j).items():
            m[k - 1][j - 1] = v
    return m


def fa_ad_matrix(fa, labels):
    """(ad_{a_1..a_{n-1}})^l_b = f_{a_1..a_{n-1} b}^l."""
    m = linalg.zeros(fa.dim, fa.dim)
    key, s = sort_sign(labels)
    if s == 0:
        return m
    for b in range(1, fa.dim + 1):
        for l, v in fa.f_row(key + (b,)).items():
            m[l - 1][b - 1] = s * v
    return m


def multibracket(mats):
    """sum_sigma sign X_s1 .. X_sn by subset dynamic programming on dense
    products (first-slot expansion of the bracket)."""
    n = len(mats)
    if n == 1:
        return mats[0]
    table = {1 << i: mats[i] for i in range(n)}
    for mask in range(3, 1 << n):
        if mask in table:
            continue
        acc = None
        for pos, i in enumerate(i for i in range(n) if mask & (1 << i)):
            term = mat_scale((-1) ** pos, mat_mul(mats[i], table[mask & ~(1 << i)]))
            acc = term if acc is None else mat_add(acc, term)
        table[mask] = acc
    return table[(1 << n) - 1]


def multibracket_weighted(mats):
    f = 1
    for q in range(2, len(mats) + 1):
        f *= q
    return mat_scale(Fraction(1, f), multibracket(mats))


# ---------------------------------------------------------------------------
# the package's operator-matrix functions on dense matrices
# ---------------------------------------------------------------------------

def associator_check(mats) -> bool:
    """The alternated associator of any three matrices equals
    [[A,B],C] + [[B,C],A] + [[C,A],B] and both vanish (associativity)."""
    def assoc(a, b, c):
        return mat_sub(mat_mul(mat_mul(a, b), c),
                              mat_mul(a, mat_mul(b, c)))
    for a in mats:
        for b in mats:
            for c in mats:
                alt = linalg.zeros(len(a), len(a))
                for s, (x, y, z) in [(1, (a, b, c)), (1, (b, c, a)), (1, (c, a, b)),
                                     (-1, (b, a, c)), (-1, (a, c, b)), (-1, (c, b, a))]:
                    alt = mat_add(alt, mat_scale(Fraction(s), assoc(x, y, z)))
                cyc = mat_add(
                    commutator(commutator(a, b), c),
                    mat_add(commutator(commutator(b, c), a),
                                   commutator(commutator(c, a), b)))
                if not mat_eq(alt, cyc) or not is_zero_matrix(cyc):
                    return False
    return True


def resolve_even_bracket(mats):
    """Expansion of a 2s-bracket into ordered products of two-brackets via the
    pairwise epsilon resolution; returns (terms, matrix) where each term is
    (sign, [(i, j), ...]) with 0-based positions, and asserts the expansion
    equals the direct multibracket on the given matrices."""
    n = len(mats)
    if n % 2 or n > 6:
        raise ValueError("resolution implemented for even n <= 6")

    def expand(positions):
        if len(positions) == 2:
            return [(1, [tuple(positions)])]
        out = []
        for s in range(len(positions)):
            for t in range(s + 1, len(positions)):
                rest = [positions[q] for q in range(len(positions)) if q not in (s, t)]
                sign = (-1) ** (s + t + 1)
                for sub_sign, pairs in expand(rest):
                    out.append((sign * sub_sign, [(positions[s], positions[t])] + pairs))
        return out

    terms = expand(list(range(n)))
    size = len(mats[0])
    acc = linalg.zeros(size, size)
    for sign, pairs in terms:
        prod = None
        for (i, j) in pairs:
            cm = commutator(mats[i], mats[j])
            prod = cm if prod is None else mat_mul(prod, cm)
        acc = mat_add(acc, mat_scale(Fraction(sign), prod))
    direct = multibracket(mats)
    if not mat_eq(acc, direct):
        raise AssertionError("two-bracket resolution disagrees with the multibracket")
    return terms, acc


def odd_arity_defect(mats):
    """For an odd number n of matrices, the shuffle-alternated double bracket

        sum_{|A|=n} sign(A, rest) [[X_A], X_rest]

    equals n times the full (2n-1)-bracket; returns (lhs, n * bracket)."""
    total = len(mats)
    n = (total + 1) // 2
    if n % 2 == 0 or total != 2 * n - 1:
        raise ValueError("need 2n-1 matrices with n odd")
    size = len(mats[0])
    acc = linalg.zeros(size, size)
    for aidx in combinations(range(total), n):
        rest = [i for i in range(total) if i not in aidx]
        sign = merge_sign(aidx, tuple(rest))
        inner = multibracket([mats[i] for i in aidx])
        outer = multibracket([inner] + [mats[i] for i in rest])
        acc = mat_add(acc, mat_scale(Fraction(sign), outer))
    rhs = mat_scale(Fraction(n), multibracket(mats))
    return acc, rhs


def ad_of_sum(fa, s):
    m = linalg.zeros(fa.dim, fa.dim)
    for labels, v in s.items():
        m = mat_add(m, mat_scale(v, fa_ad_matrix(fa, labels)))
    return m


def compose_matches_commutator(fa, x_labels, y_labels) -> bool:
    """ad_{X.Y} = [ad_X, ad_Y] as matrices."""
    lhs = ad_of_sum(fa, fundamental_compose(fa, x_labels, y_labels))
    rhs = commutator(fa_ad_matrix(fa, x_labels), fa_ad_matrix(fa, y_labels))
    return mat_eq(lhs, rhs)


def _flat(m):
    return [x for row in m for x in row]


def _span_rows(mats, size):
    """The system sum_k x_k mats[k] = M as sparse rows, one per entry (i, j)
    of a size x size matrix M: {k: mats[k][i][j]}.  `linalg.solve(rows,
    len(mats), _flat(M))` gives the coordinates of M in the span of mats, or
    None when M lies outside it."""
    return [{k: m[i][j] for k, m in enumerate(mats) if m[i][j]}
            for i in range(size) for j in range(size)]


def so_dual_generators(fa):
    """For the euclidean simple algebras: M~^{a b} = 1/(n-1)! eps^{a b c..}
    ad_{c..}; the 1/(n-1)! exactly cancels the sum over arrangements of the
    contracted block, so on sorted labels M~^{ab} = sum_rest sign * ad_rest.
    Returns the dict (a, b) -> matrix, a < b."""
    d = fa.dim
    out = {}
    for a, b in combinations(range(1, d + 1), 2):
        m = linalg.zeros(d, d)
        for rest in combinations(range(1, d + 1), d - 2):
            sign = gen_kronecker(tuple(range(1, d + 1)), (a, b) + rest)
            if sign:
                m = mat_add(m, mat_scale(Fraction(sign), fa_ad_matrix(fa, rest)))
        out[(a, b)] = m
    return out


def orthogonal_relations_hold(fa) -> bool:
    """[M~^{a1 a2}, M~^{b1 b2}] = -d^{a1 b2} M~^{a2 b1} - d^{a2 b1} M~^{a1 b2}
    + d^{a1 b1} M~^{a2 b2} + d^{a2 b2} M~^{a1 b1}, entrywise.

    The generators carry an extra (-1)^n: the lowered structure constants of
    the euclidean simple algebras are (-1)^n eps, and the relations as
    written fix the +eps representative (the global generator sign is a basis
    choice; the commutator side is quadratic in it, the right side linear).
    """
    d = fa.dim
    mt = so_dual_generators(fa)
    overall = Fraction((-1) ** fa.arity)

    def m(a, b):
        if a == b:
            return linalg.zeros(d, d)
        if a < b:
            return mat_scale(overall, mt[(a, b)])
        return mat_scale(-overall, mt[(b, a)])

    def delta(a, b):
        return Fraction(1 if a == b else 0)

    for a1, a2 in combinations(range(1, d + 1), 2):
        for b1, b2 in combinations(range(1, d + 1), 2):
            lhs = commutator(m(a1, a2), m(b1, b2))
            rhs = linalg.zeros(d, d)
            for c, mm in ((-delta(a1, b2), m(a2, b1)), (-delta(a2, b1), m(a1, b2)),
                          (delta(a1, b1), m(a2, b2)), (delta(a2, b2), m(a1, b1))):
                if c:
                    rhs = mat_add(rhs, mat_scale(c, mm))
            if not mat_eq(lhs, rhs):
                return False
    return True


@dataclass
class So4SplitReport:
    k1_matches_pattern: bool
    k2_is_epsilon_ray: bool
    k2_signature: tuple
    k1_invariant: bool
    k2_invariant: bool
    split_commutes: bool
    split_su2_pattern: bool
    k1_sum_of_blocks: bool
    k2_difference_of_blocks: bool


def _wedge_pairs(d):
    return list(combinations(range(1, d + 1), 2))


def _invariance_residual_on_pairs(fa, kval):
    """Z . k(X, Y) = k(Z.X, Y) + k(X, Z.Y) = 0 over basis wedge labels, where
    k is a dict on sorted wedge-label pairs."""
    def kread(x, y):
        kx, sx = sort_sign(x)
        ky, sy = sort_sign(y)
        if sx == 0 or sy == 0:
            return Fraction(0)
        key = (kx, ky) if (kx, ky) in kval else (ky, kx)
        return sx * sy * kval.get(key, Fraction(0))

    labels = _wedge_pairs(fa.dim)
    for z in labels:
        for x in labels:
            for y in labels:
                tot = Fraction(0)
                for lab, v in fundamental_compose(fa, z, x).items():
                    tot += v * kread(lab, y)
                for lab, v in fundamental_compose(fa, z, y).items():
                    tot += v * kread(x, lab)
                if tot != 0:
                    return (z, x, y)
    return None


def k2_invariant_and_so4_split(fa):
    """The two rank-two invariants of the euclidean 3-algebra on R^4 and the
    plus/minus split of its inner-derivation algebra.

    k1 (the Killing form on wedge pairs) must equal
    -(d_{a1b1} d_{a2b2} - d_{b1a2} d_{a1b2}); k2 (the lowered structure
    constants read as a pair form) must be a ray multiple of the rank-4
    epsilon with split signature (3,3).  The combinations
    P_i = (M_{i4} + 1/2 eps_{iab} M_{ab})/2 and the minus partner must give
    two commuting su(2)-pattern blocks, and in the (P, Q) basis k1 and k2
    must be the sum and the difference of the two block Killing forms.
    """
    if fa.arity != 3 or fa.dim != 4:
        raise ValueError("this analysis is specific to the euclidean 3-algebra on R^4")
    pairs = _wedge_pairs(4)

    # k1 = Tr(ad ad); ray-equal to the pattern
    # -(d_{a1b1} d_{a2b2} - d_{b1a2} d_{a1b2})  (here: -2x the pattern)
    _, k1_mat = kasymov_form_by_rows(fa)
    k1_vals = {(pairs[i], pairs[j]): k1_mat[i][j]
               for i in range(6) for j in range(i, 6) if k1_mat[i][j]}
    pattern = {}
    for i, (a1, a2) in enumerate(pairs):
        for j, (b1, b2) in enumerate(pairs):
            if i <= j:
                want = -(Fraction(1 if a1 == b1 and a2 == b2 else 0)
                         - Fraction(1 if b1 == a2 and a1 == b2 else 0))
                if want:
                    pattern[((a1, a2), (b1, b2))] = want
    k1_ok = ray_equal(k1_vals, pattern)

    # k2 = lowered structure constants as a pair form
    low = lowered_form(fa, linalg.identity(4))
    k2_vals = {}
    k2_mat = linalg.zeros(6, 6)
    for i, pa in enumerate(pairs):
        for j, pb in enumerate(pairs):
            v = low.get(pa + pb)
            k2_mat[i][j] = v
            if i <= j and v != 0:
                k2_vals[(pa, pb)] = v
    eps_vals = {}
    for i, pa in enumerate(pairs):
        for j, pb in enumerate(pairs):
            if i <= j:
                v = gen_kronecker((1, 2, 3, 4), pa + pb)
                if v:
                    eps_vals[(pa, pb)] = v
    k2_eps = ray_equal(k2_vals, eps_vals)
    k2_sig = linalg.signature(k2_mat)[:2]

    k1_inv = _invariance_residual_on_pairs(fa, k1_vals) is None
    k2_inv = _invariance_residual_on_pairs(fa, k2_vals) is None

    # plus/minus generators, built on the dual rotation basis of iCS16;
    # the sorted-pair sum absorbs the 1/2 of the epsilon contraction
    half = Fraction(1, 2)
    duals = so_dual_generators(fa)

    def eps3(i, a, b):
        return gen_kronecker((1, 2, 3), (i, a, b))

    p_mats, q_mats = [], []
    for i in (1, 2, 3):
        base = duals[(i, 4)]
        extra = linalg.zeros(4, 4)
        for a, b in combinations((1, 2, 3), 2):
            s = eps3(i, a, b)
            if s:
                extra = mat_add(extra, mat_scale(Fraction(s), duals[(a, b)]))
        p_mats.append(mat_scale(half, mat_add(base, extra)))
        q_mats.append(mat_scale(half, mat_sub(base, extra)))

    commutes = all(is_zero_matrix(commutator(p, q))
                   for p in p_mats for q in q_mats)

    def su2_pattern(ms):
        # [T_i, T_j] = c eps_{ijk} T_k for one fixed nonzero c
        scale = None
        for i, j in combinations((1, 2, 3), 2):
            cm = commutator(ms[i - 1], ms[j - 1])
            k = next(x for x in (1, 2, 3) if x not in (i, j))
            s = eps3(i, j, k)
            target = mat_scale(Fraction(s), ms[k - 1])
            # find c with cm = c * target
            flat_t = [x for row in target for x in row]
            flat_c = [x for row in cm for x in row]
            nz = next((t for t, x in enumerate(flat_t) if x != 0), None)
            if nz is None:
                return None
            c = flat_c[nz] / flat_t[nz]
            if any(flat_c[t] != c * flat_t[t] for t in range(len(flat_t))):
                return None
            if scale is None:
                scale = c
            elif scale != c:
                return None
        return scale if scale else None

    sp = su2_pattern(p_mats)
    sq = su2_pattern(q_mats)
    pattern_ok = sp is not None and sq is not None

    # express k1, k2 in the (P, Q) basis and compare with block Killing forms:
    # write each new generator in wedge-pair coordinates, then transform the
    # bilinear forms.
    sum_ok = diff_ok = False
    if pattern_ok and commutes:
        basis = p_mats + q_mats
        span = _span_rows([fa_ad_matrix(fa, pa) for pa in pairs], 4)
        coords_new = [linalg.solve(span, 6, _flat(m)) for m in basis]
        k1_new = [[sum(coords_new[u][i] * coords_new[v][j] * k1_mat[i][j]
                       for i in range(6) for j in range(6)) for v in range(6)]
                  for u in range(6)]
        k2_new = [[sum(coords_new[u][i] * coords_new[v][j] * k2_mat[i][j]
                       for i in range(6) for j in range(6)) for v in range(6)]
                  for u in range(6)]

        def blocks(m):
            a = [row[:3] for row in m[:3]]
            b = [row[3:] for row in m[3:]]
            off1 = [row[3:] for row in m[:3]]
            off2 = [row[:3] for row in m[3:]]
            return a, b, off1, off2

        def kill3(ms):
            return [[trace(mat_mul(_ad3(ms, i), _ad3(ms, j)))
                     for j in range(3)] for i in range(3)]

        def _ad3(ms, i):
            # adjoint matrix of the 3-dim span in its own basis
            span = _span_rows(ms, len(ms[0]))
            out = linalg.zeros(3, 3)
            for j in range(3):
                co = linalg.solve(span, 3, _flat(commutator(ms[i], ms[j])))
                for k in range(3):
                    out[k][j] = co[k]
            return out

        kp = kill3(p_mats)
        kq = kill3(q_mats)

        def block_scales(form, kpm, kqm):
            # form must be block-diagonal with blocks lam_p * kp, lam_q * kq;
            # returns (lam_p, lam_q) or None
            a, b, o1, o2 = blocks(form)
            zero33 = linalg.zeros(3, 3)
            if not (mat_eq(o1, zero33) and mat_eq(o2, zero33)):
                return None
            out = []
            for blk, ref in ((a, kpm), (b, kqm)):
                flat_b = [x for row in blk for x in row]
                flat_r = [x for row in ref for x in row]
                nz = next((t for t, x in enumerate(flat_r) if x != 0), None)
                if nz is None:
                    return None
                lam = flat_b[nz] / flat_r[nz]
                if any(flat_b[t] != lam * flat_r[t] for t in range(9)):
                    return None
                out.append(lam)
            return tuple(out)

        # "sum": both blocks on one common positive ray of the block Killing
        # forms; "difference": same common ray with opposite signs.
        s1 = block_scales(k1_new, kp, kq)
        sum_ok = s1 is not None and s1[0] == s1[1] and s1[0] != 0
        s2 = block_scales(k2_new, kp, kq)
        diff_ok = s2 is not None and s2[0] == -s2[1] and s2[0] != 0

    return So4SplitReport(k1_ok, k2_eps, k2_sig, k1_inv, k2_inv,
                          commutes, pattern_ok, sum_ok, diff_ok)


def homology_boundary(fa, chain):
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
            rest = [blocks[t] for t in range(p) if t != i]
            for j in range(i + 1, p):
                comp = fundamental_compose(fa, blocks[i], blocks[j])
                for lab, v in comp.items():
                    rest2 = list(rest)
                    rest2[j - 1] = lab
                    add(rest2, z, (-1) ** (i + 1) * coeff * v)
            for l, v in fa.f_row(tuple(blocks[i]) + (z,)).items():
                add(rest, l, (-1) ** (i + 1) * coeff * v)
    return out


def check_fa_representation(fa, rho) -> IdentityReport:
    """rho: sorted wedge label -> matrix, extended with antisymmetry.  Both
    defining conditions must hold as matrix identities; the first failing
    pair is the witness:

      [rho(X), rho(Y)] = rho(X.Y)
      rho(X_1..X_{n-2}, [Y_1..Y_n]) =
          sum_i (-1)^{n-i} rho(Y_1..^i..Y_n) rho(X_1..X_{n-2} Y_i)
    """
    d, n = fa.dim, fa.arity
    labels = list(combinations(range(1, d + 1), n - 1))
    size = len(rho[labels[0]])

    def rho_get(lab):
        key, s = sort_sign(lab)
        if s == 0:
            return linalg.zeros(size, size)
        m = rho[key]
        return m if s == 1 else mat_scale(Fraction(-1), m)

    for x in labels:
        for y in labels:
            lhs = commutator(rho_get(x), rho_get(y))
            rhs = linalg.zeros(size, size)
            for lab, v in fundamental_compose(fa, x, y).items():
                rhs = mat_add(rhs, mat_scale(v, rho_get(lab)))
            if not mat_eq(lhs, rhs):
                return IdentityReport(False, (x, y))

    for xs in combinations(range(1, d + 1), n - 2):
        for ys in combinations(range(1, d + 1), n):
            lhs = linalg.zeros(size, size)
            for l, v in fa.f.get(ys, {}).items():
                lhs = mat_add(lhs, mat_scale(v, rho_get(xs + (l,))))
            rhs = linalg.zeros(size, size)
            for i in range(n):
                rest = ys[:i] + ys[i + 1:]
                term = mat_mul(rho_get(rest), rho_get(xs + (ys[i],)))
                rhs = mat_add(rhs, mat_scale(Fraction((-1) ** (n - i - 1)), term))
            if not mat_eq(lhs, rhs):
                return IdentityReport(False, (xs, ys))
    return IdentityReport(True)


def clifford_realization(n: int):
    """(induced, report): gamma-matrix realization of the euclidean simple
    algebras.

    n odd (3, 5): weight-one bracket [g_{a_1},..,g_{a_n}, chirality]' equals
    -eps_{a_1..a_{n+1}} g_{a_{n+1}} on D = n+1 gammas.  n even (4): the D = n
    gammas plus the chirality obey [g^{A_1},..,g^{A_n}]' = eps^{A_1..A_{n+1}}
    g^{A_{n+1}}.  Either way the induced structure constants are compared
    entrywise against the determinant-product algebra of the same arity.
    """
    if not 3 <= n <= 5:
        raise ValueError("desk scale is 3 <= n <= 5")
    if n % 2:
        d = n + 1
        gam, _ = gamma_matrices(d)
        basis = gam
        prod = gam[0]
        for g in gam[1:]:
            prod = mat_mul(prod, g)
        ref = simple_fa(n, [1] * (n + 1))

        # the normalization of the top gamma is free; fix the phase by the
        # bracket identity itself, probing one tuple before full expansion
        probe_idx = tuple(range(1, n + 1))
        want_b = n + 1
        want = mat_scale(
            GaussianRational(-gen_kronecker(tuple(range(1, d + 1)), probe_idx + (want_b,))),
            gam[want_b - 1])
        chosen = None
        for phase in (GaussianRational(1), GaussianRational(-1),
                      GaussianRational(0, 1), GaussianRational(0, -1)):
            fixed = mat_scale(phase, prod)
            val = multibracket_weighted([gam[i - 1] for i in probe_idx] + [fixed])
            if mat_eq(val, want):
                chosen = fixed
                break
        if chosen is None:
            f, identity_ok = _expand_bracket(basis, n, prod)
        else:
            f, clean = _expand_bracket(basis, n, chosen)
            identity_ok = clean and f == ref.f
    else:
        d = n
        gam, chi = gamma_matrices(d)
        basis = gam + [chi]
        f, identity_ok = _expand_bracket(basis, n, None)

    dim_fa = n + 1
    induced = FilippovAlgebra(n, dim_fa, f)
    ref = simple_fa(n, [1] * (n + 1))
    # n odd: the gamma identity carries -eps = (-1)^n eps; n even: +eps.
    # simple_fa uses (-1)^n eps in both cases, so the two must coincide.
    matches = induced.arity == ref.arity and induced.dim == ref.dim and induced.f == ref.f
    return induced, IdentityReport(identity_ok and matches)


def clifford_double_commutator():
    """6 [[g_a, g_b] top, g_c] = [top, g_a, g_b, g_c] over all a, b, c on
    the four euclidean gammas, top = g_1 g_2 g_3 g_4, with dense products
    and the full weight-one multibracket."""
    gam, _ = gamma_matrices(4)
    top = gam[0]
    for g in gam[1:]:
        top = mat_mul(top, g)
    # both sides are linear in the top gamma, so the plain product serves
    dc = True
    for a in range(4):
        for b in range(4):
            for c in range(4):
                lhs = mat_scale(GaussianRational(6), commutator(
                    mat_mul(commutator(gam[a], gam[b]), top), gam[c]))
                rhs = multibracket([top, gam[a], gam[b], gam[c]])
                if not mat_eq(lhs, rhs):
                    dc = False
    return IdentityReport(dc)


def _expand_bracket(basis, n, fixed):
    """Structure constants of the weight-one multibracket over the given
    matrix basis (with an optional fixed extra slot), expanded by trace
    orthogonality Tr(g_a g_b) = size * delta_ab; returns (f, all_real)."""
    dim_fa = len(basis)
    size = len(basis[0])
    f = {}
    clean = True
    for idx in combinations(range(1, dim_fa + 1), n):
        args = [basis[i - 1] for i in idx] + ([fixed] if fixed is not None else [])
        val = multibracket_weighted(args)
        row = {}
        for b in range(1, dim_fa + 1):
            g = basis[b - 1]
            # Tr(val g) without forming the product
            tr = GaussianRational(0)
            for i, val_row in enumerate(val):
                for k, x in enumerate(val_row):
                    if x:
                        tr += x * g[k][i]
            coeff = tr / GaussianRational(size)
            if coeff.im != 0:
                clean = False
            if coeff.re != 0:
                row[b] = coeff.re
        if row:
            f[idx] = row
    return f, clean


def trace_extension_bracket(bracket_n1, traces, mats):
    """[A_1..A_n] = sum_i (-1)^{i-1} <A_i> [A_1..^i..A_n] given an
    (n-1)-bracket and a linear `traces` functional."""
    out = None
    for i, a in enumerate(mats):
        t = traces(a)
        if is_zero(t):
            continue
        sub = bracket_n1([m for q, m in enumerate(mats) if q != i])
        term = mat_scale(t * Fraction((-1) ** i), sub)
        out = term if out is None else mat_add(out, term)
    if out is None:
        size = len(mats[0])
        return linalg.zeros(size, size)
    return out


def trace_extension_structure(bracket_n, basis):
    """Expand an antisymmetric matrix n-bracket over the given matrix basis
    into structure constants and validate the characteristic identity."""
    d = len(basis)
    size = len(basis[0])
    span = _span_rows(basis, size)
    n = getattr(bracket_n, "arity")
    f = {}
    for idx in combinations(range(1, d + 1), n):
        val = bracket_n([basis[i - 1] for i in idx])
        co = linalg.solve(span, d, _flat(val))
        if co is None:
            raise ValueError("bracket leaves the span of the basis")
        row = {b + 1: co[b] for b in range(d) if co[b] != 0}
        if row:
            f[idx] = row
    fa = FilippovAlgebra(n, d, f)
    return fa


def leibniz_rep_conditions(lb, left, right):
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
            out = mat_add(out, mat_scale(v, mats[k - 1]))
        return out

    for i in range(1, d + 1):
        for j in range(1, d + 1):
            c1 = mat_sub(commutator(lmat(i), lmat(j)), bracket_mat(left, i, j))
            if not is_zero_matrix(c1):
                return ("left-left", i, j)
            c2 = mat_sub(commutator(lmat(i), rmat(j)), bracket_mat(right, i, j))
            if not is_zero_matrix(c2):
                return ("left-right", i, j)
            c3 = mat_sub(bracket_mat(right, i, j),
                                mat_add(mat_mul(rmat(j), rmat(i)),
                                               mat_mul(lmat(i), rmat(j))))
            if not is_zero_matrix(c3):
                return ("right-compat", i, j)
    return None


def quadratic_casimir(alg, mats):
    """I_2(rho) = k^{ij} rho_i rho_j; raises through the inverse Killing form."""
    kinv = linalg.inverse(killing_form(alg))
    n = len(mats[0])
    out = linalg.zeros(n, n)
    for i in range(alg.dim):
        for j in range(alg.dim):
            if kinv[i][j] != 0:
                out = mat_add(out, mat_scale(kinv[i][j],
                                                           mat_mul(mats[i], mats[j])))
    return out


# ---------------------------------------------------------------------------
# the antisymmetric containers before AntisymTensor
# ---------------------------------------------------------------------------

@dataclass
class Cochain:
    """Order-p cochain with values in a dim_v target (dim_v = 1: scalars)."""

    order: int
    alg_dim: int
    dim_v: int = 1
    data: dict = field(default_factory=dict)  # (A, sorted tuple) -> value

    def __post_init__(self):
        clean = {}
        for (a, idx), v in self.data.items():
            key, s = sort_sign(idx)
            if s:
                accumulate(clean, (a, key), s * rat(v))
        self.data = clean

    def get(self, a, idx):
        key, s = sort_sign(idx)
        v = self.data.get((a, key)) if s else None
        return ZERO if v is None else s * v

    def value(self, idx):
        """Target vector at the given arguments (dense list)."""
        return [self.get(a, idx) for a in range(1, self.dim_v + 1)]

    def is_zero(self):
        return not self.data

    def __add__(self, other):
        d = dict(self.data)
        for k, v in other.data.items():
            accumulate(d, k, v)
        return Cochain(self.order, self.alg_dim, self.dim_v, d)

    def scale(self, c):
        if is_zero(c):
            return Cochain(self.order, self.alg_dim, self.dim_v, {})
        return Cochain(self.order, self.alg_dim, self.dim_v,
                       {k: c * v for k, v in self.data.items()})

    def __sub__(self, other):
        return self + other.scale(-1)

    def __eq__(self, other):
        return (isinstance(other, Cochain) and self.order == other.order
                and self.alg_dim == other.alg_dim and self.dim_v == other.dim_v
                and self.data == other.data)


class _SignedComponents(dict):
    """Raw index tuple -> the component it reads: the stored Poly, its
    negation, or the shared zero `self.zero`.  A missing tuple is sorted
    once and stored."""

    __slots__ = ("comps", "zero", "negated")

    def __init__(self, comps, dim):
        super().__init__()
        self.comps = comps
        self.zero = Poly.zero(dim)
        self.negated = {}  # sorted key -> the negated component

    def __missing__(self, idx):
        key, s = sort_sign(idx)
        p = self.comps.get(key) if s else None
        if p is None:
            p = self.zero
        elif s < 0:
            q = self.negated.get(key)
            if q is None:
                q = self.negated[key] = -p
            p = q
        self[idx] = p
        return p


@dataclass
class PolyMultivector:
    """Order-p antisymmetric contravariant tensor on R^m with Poly entries,
    stored on sorted index tuples; `signed` is the component table every
    read goes through."""

    order: int
    dim: int
    comps: dict = field(default_factory=dict)  # sorted tuple -> Poly
    signed: _SignedComponents = field(init=False, repr=False)

    def __post_init__(self):
        clean = {}
        for idx, p in self.comps.items():
            key, s = sort_sign(idx)
            if s:
                accumulate(clean, key, p if s == 1 else -p)
        self.comps = clean
        self.signed = _SignedComponents(clean, self.dim)

    def get(self, idx) -> Poly:
        return self.signed[tuple(idx)]

    def is_zero(self):
        return not self.comps

    def __add__(self, other):
        comps = dict(self.comps)
        for k, p in other.comps.items():
            accumulate(comps, k, p)
        return PolyMultivector(self.order, self.dim, comps)

    def scale(self, c):
        return PolyMultivector(self.order, self.dim,
                               {k: p * c for k, p in self.comps.items()})

    def __sub__(self, other):
        return self + other.scale(Fraction(-1))

    def __eq__(self, other):
        return (isinstance(other, PolyMultivector) and self.order == other.order
                and self.dim == other.dim and self.comps == other.comps)

    def is_constant(self):
        return all(p.is_constant() for p in self.comps.values())


def wedge(a: PolyMultivector, b: PolyMultivector) -> PolyMultivector:
    """Shuffle-normalized wedge: (a ^ b)^M = sum_{I+J=M} sign a^I b^J."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    comps = {}
    for ka, pa in a.comps.items():
        for kb, pb in b.comps.items():
            if not set(ka) & set(kb):
                accumulate(comps, tuple(sorted(ka + kb)), pa * pb * merge_sign(ka, kb))
    return PolyMultivector(a.order + b.order, a.dim, comps)


class Multivector(dict):
    """Element of the exterior algebra on generators 1..dim: canonical map
    from sorted tuples to coefficients."""

    def __init__(self, dim, data=()):
        super().__init__()
        self.dim = dim
        for idx, v in dict(data).items():
            self.add(idx, v)

    def add(self, idx, v):
        key, s = sort_sign(idx)
        if s:
            accumulate(self, key, s * v)

    def is_zero(self):
        return not self


def wedge_antisym(a, b) -> AntisymTensor:
    """Weight-free wedge on coordinates: (a ^ b)_M = shuffle sum a_A b_B."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    rank = a.rank + b.rank
    ent = {}
    for ka, va in a.entries.items():
        for kb, vb in b.entries.items():
            if not set(ka) & set(kb):
                accumulate(ent, tuple(sorted(ka + kb)), merge_sign(ka, kb) * va * vb)
    return AntisymTensor(rank, a.dim, ent)


# ---------------------------------------------------------------------------
# the CE coboundary on LinearForm cochains, before the integer row kernel
# ---------------------------------------------------------------------------

def ce_coboundary(alg, rho, om):
    """The argument form of the CE coboundary evaluated term by term on a
    `cohomology.Cochain`, every read through the cochain's signed table:

        (s Om)(X_1..X_{p+1}) = sum_i (-1)^{i+1} rho(X_i) Om(..^i..)
                             + sum_{j<k} (-1)^{j+k} Om([X_j,X_k], ..^j..^k..)
    """
    rows = None
    if rho is not None:
        if rho.dim_v != om.dim_v:
            raise ValueError("representation/target dimension mismatch")
        rows = []
        for m in rho.mats:
            by_row = {}
            for (a, b), v in sorted(m.items()):
                by_row.setdefault(a, []).append((b, v))
            rows.append(by_row)
    p, r = om.rank, om.dim
    if p >= r:
        return cohomology.Cochain(p + 1, r, om.dim_v, {})
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
                    sign = (-1) ** (j + k)
                    for l, v in alg.c_row(idx[j], idx[k]).items():
                        if l not in rest:
                            tot += sign * v * om.get(a, (l,) + rest)
            if tot:
                data[(a, idx)] = tot
    return cohomology.Cochain(p + 1, r, om.dim_v, data)


def ce_coboundary_coords(alg, om):
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
    return cohomology.Cochain(p + 1, r, 1, data)


def ce_coboundary_matrix(alg, rho, p, dim_v):
    """(rows, D, src, dst) of D s from one `ce_coboundary` on the generic
    cochain whose coordinate src[i] is the linear form x_i, on the constants
    and matrices scaled to ints by their common denominator D."""
    src = cohomology.coord_basis(alg.dim, p, dim_v)
    dst = cohomology.coord_basis(alg.dim, p + 1, dim_v)
    d, ialg, imats = cohomology.integer_scaling(alg, () if rho is None else rho.mats)
    irho = None if rho is None else Representation(ialg, imats, rho.dim_v, check=False)
    generic = cohomology.Cochain(p, alg.dim, dim_v,
                                 {key: LinearForm({i: 1}) for i, key in enumerate(src)})
    out = ce_coboundary(ialg, irho, generic).data
    return [out.get(key, LinearForm()) for key in dst], d, src, dst


def cohomology_dims_all_degrees(alg, rho, p_max, dim_v=None):
    """`cohomology.cohomology_dims` as it stood before it read ranks from
    their Poincare mirror: every degree 0..p_max assembled and ranked."""
    if dim_v is None:
        dim_v = 1 if rho is None else rho.dim_v
    dims_c, ranks = {}, {}
    cx = cohomology.CEComplex(alg, rho, dim_v)
    for p in range(0, p_max + 1):
        dims_c[p] = len(cx.coords(p))
        ranks[p] = linalg.rank(cx.matrix(p))
    return cohomology.CohomologyReport.from_ranks(dims_c, ranks)


# ---------------------------------------------------------------------------
# the coboundary row kernels on tuple-keyed tables, before index coding
# ---------------------------------------------------------------------------

def ce_rows(cx, p):
    """(D, the rows of D s: C^p -> C^{p+1}) of the `cohomology.CEComplex`
    cx, read from its D, D C and D rho rows: one {column: int} per
    coordinate of `coord_basis(dim, p + 1, dim_v)`, every l of C_{i_j i_k}^l
    placed by `insert_sign` and every column read from a map keyed by index
    tuples."""
    d, ialg, mrows, dim_v = cx.d, cx.ialg, cx.mrows, cx.dim_v
    col = {idx: i for i, idx in enumerate(cohomology.basis_tuples(ialg.dim, p))}
    targets = cohomology.basis_tuples(ialg.dim, p + 1)
    rows = [None] * (dim_v * len(targets))
    for n, idx in enumerate(targets):
        br = {}  # the bracket terms, the same for every target coordinate A
        for j, k in combinations(range(p + 1), 2):
            # positions are 0-based here; the 1-based (-1)^{j+k}
            sign, rest = -1 if (j + k) & 1 else 1, idx[:j] + idx[j + 1:k] + idx[k + 1:]
            for l, v in ialg.c.get((idx[j], idx[k]), {}).items():
                key, s = insert_sign(rest, 0, l)
                if s:  # a repeated index reads zero
                    accumulate(br, col[key], s * sign * v)
        for a in range(dim_v):
            row = rows[a * len(targets) + n] = {a * len(col) + i: v for i, v in br.items()}
            for i, x in enumerate(idx):
                terms = mrows[x - 1].get(a)
                if terms:
                    rest = col[idx[:i] + idx[i + 1:]]
                    for b, v in terms:
                        accumulate(row, b * len(col) + rest, -v if i & 1 else v)
    return d, rows


def leibniz_delta(bracket, left, right, read, size, args):
    """The rows of delta at each (X_1..X_{p+1}, point) of args, in order:
    `size` rows {column: value} per point.  bracket[X, Y] is X . Y as
    {element of L: value}; an action table maps (X, point) to {point Q:
    [(t, b, v), ..]}; read(xs, Q) is (base, sign) with w(xs)(Q)[b] = sign *
    (coordinate base + b), or None where w(xs)(Q) reads zero."""
    rows = []
    for xs, point in args:
        vec = [{} for _ in range(size)]
        last = len(xs) - 1
        for i, x in enumerate(xs):
            rest = xs[:i] + xs[i + 1:]
            sgn = -1 if i & 1 else 1
            # (-1)^{i+1} l_{X_i} for i <= p, (-1)^{p+1} r_{X_{p+1}} (1-based)
            acts, asgn = (left, sgn) if i < last else (right, -sgn)
            for q, terms in acts[x, point].items():
                at = read(rest, q)
                if at is not None:
                    base, s = at
                    s *= asgn
                    for t, b, v in terms:
                        accumulate(vec[t], base + b, s * v)
            for j in range(i + 1, last + 1):
                for y, v in bracket[x, xs[j]].items():
                    at = read(rest[:j - 1] + (y,) + rest[j:], point)
                    if at is not None:
                        base, s = at
                        c = -sgn * s * v
                        for t in range(size):
                            accumulate(vec[t], base + t, c)
        rows.extend(vec)
    return rows


def _matrix_terms(m, sign=1):
    return [(a, b, sign * v) for (a, b), v in sorted(m.items())]


def keyed_fundamental_tables(fa):
    """(blocks, bracket, action) of L = wedge^{n-1} g keyed by sorted
    blocks: bracket[X, Y] = X . Y as {block: value}, action[X, z] = X . z
    as {l: value}."""
    rng = range(1, fa.dim + 1)
    blocks = list(combinations(rng, fa.arity - 1))
    action = {(x, z): fa.f_row(x + (z,)) for x in blocks for z in rng}
    bracket = {}
    for x in blocks:
        for y in blocks:
            out = {}
            for k, yk in enumerate(y):
                for l, v in action[x, yk].items():
                    key, s = insert_sign(y[:k] + y[k + 1:], k, l)
                    if s:
                        accumulate(out, key, s * v)
            bracket[x, y] = out
    return blocks, bracket, action


def keyed_fa_actions(fa, tables, kind, rho, size):
    """(bracket, left, right) of the complex `kind`, keyed by (block, point)."""
    blocks, bracket, action = tables
    if kind == "module":
        left = {(x, None): {None: _matrix_terms(rho.mats[x])} for x in blocks}
        right = {(x, None): {None: _matrix_terms(rho.mats[x], -1)} for x in blocks}
        return bracket, left, right
    rng = range(1, fa.dim + 1)
    left, right = {}, {}
    for x in blocks:
        if kind == "deformation":
            ad = [(l - 1, b - 1, v) for b in rng for l, v in action[x, b].items()]
            subs = [(y, b - 1, *insert_sign(x[:k] + x[k + 1:], k, b))
                    for k, y in enumerate(x) for b in rng]
        for z in rng:
            lq = {l: [(t, t, -v) for t in range(size)] for l, v in action[x, z].items()}
            rq = {l: [(t, t, v) for t in range(size)] for l, v in action[x, z].items()}
            if kind == "deformation":
                lq.setdefault(z, []).extend(ad)
                rq.setdefault(z, []).extend((t, b, -v) for t, b, v in ad)
                for y, b, lab, s in subs:
                    if s:
                        rq.setdefault(y, []).extend((l - 1, b, -s * v)
                                                    for l, v in action[lab, z].items())
            left[x, z], right[x, z] = lq, rq
    return bracket, left, right


def fa_rows(fa, kind, p, rho=None, size=None, points=None):
    """(D, the rows of D delta_p) of the Filippov complex `kind` on
    tuple-keyed tables: at the canonical points of C^{p+1} in key order, or
    at the given (sorted blocks, z) points (z None for the module complex).
    Column (key, a) of the i-th key of C^p is i * size + a."""
    if kind == "module" and rho is None:
        rho = adjoint_fa_representation(fa)
    size = size or (1 if kind == "trivial" else fa.dim if rho is None else rho.dim_v)
    labels = [] if rho is None else list(rho.mats)
    d, ifa, imats = cohomology.integer_scaling(fa, [rho.mats[lab] for lab in labels])
    irho = None if rho is None else FARepresentation(dict(zip(labels, imats)), size)
    bracket, left, right = keyed_fa_actions(ifa, keyed_fundamental_tables(ifa), kind, irho, size)
    keys = nary_cohomology.module_keys if kind == "module" else nary_cohomology.trivial_keys
    if points is None:
        points = ([(key, None) for key in keys(fa, p + 1)] if kind == "module" else
                  [(key[:-1] + (key[-1][:-1],), key[-1][-1]) for key in keys(fa, p + 1)])
    cols = {key: i * size for i, key in enumerate(keys(fa, p))}
    if kind == "module":
        def read(xs, _):
            return cols[xs], 1
    elif p == 0:
        def read(_, z):
            return cols[(z,)], 1
    else:
        def read(xs, z):
            key, s = insert_sign(xs[-1], len(xs[-1]), z)
            return (cols[xs[:-1] + (key,)], s) if s else None
    return d, leibniz_delta(bracket, left, right, read, size, points)


def leibniz_rows(lb, left, right, size, p):
    """The rows of delta_p of the Leibniz complex of lb with the sparse
    action matrices l_X = left[X - 1], r_X = right[X - 1], keyed by all
    p-tuples of 1..dim."""
    rng = range(1, lb.dim + 1)
    bracket = {(x, y): lb.row(x, y) for x in rng for y in rng}
    lq = {(x, None): {None: _matrix_terms(left[x - 1])} for x in rng}
    rq = {(x, None): {None: _matrix_terms(right[x - 1])} for x in rng}
    cols = {key: i * size for i, key in enumerate(product(rng, repeat=p))}

    def read(xs, _):
        return cols[xs], 1
    return leibniz_delta(bracket, lq, rq, read, size,
                         [(key, None) for key in product(rng, repeat=p + 1)])


# ---------------------------------------------------------------------------
# the identity scans on per-read sorting accessors and Fraction constants
# ---------------------------------------------------------------------------

def check_jacobi(alg):
    """Exact residual scan of C_{[ij}^l C_{k]l}^s = 0 over all (i<j<k, s)."""
    r = alg.dim
    for i, j, k in combinations(range(1, r + 1), 3):
        for s in range(1, r + 1):
            tot = Fraction(0)
            for l, v in alg.c_row(i, j).items():
                tot += v * alg.c_get(l, k, s)
            for l, v in alg.c_row(j, k).items():
                tot += v * alg.c_get(l, i, s)
            for l, v in alg.c_row(k, i).items():
                tot += v * alg.c_get(l, j, s)
            if tot != 0:
                return IdentityReport(False, (i, j, k, s))
    return IdentityReport(True)


def killing_form_by_rows(alg):
    """k_ij = C_il^s C_js^l (= Tr ad_i ad_j), symmetric by construction."""
    r = alg.dim
    k = linalg.zeros(r, r)
    for i in range(1, r + 1):
        for j in range(i, r + 1):
            tot = Fraction(0)
            for l in range(1, r + 1):
                for s, v in alg.c_row(i, l).items():
                    tot += v * alg.c_get(j, s, l)
            k[i - 1][j - 1] = tot
            k[j - 1][i - 1] = tot
    return k


def kasymov_form_by_rows(fa):
    """(wedge labels, k): k(X, Y) = Tr(ad_X ad_Y) as a symmetric matrix over
    the sorted wedge labels, on `f_row`/`f_get` reads of `Fraction`
    constants."""
    labels = list(combinations(range(1, fa.dim + 1), fa.arity - 1))
    mat = linalg.zeros(len(labels), len(labels))
    for i, la in enumerate(labels):
        for j in range(i, len(labels)):
            tot = Fraction(0)
            for c in range(1, fa.dim + 1):
                for l, v in fa.f_row(labels[j] + (c,)).items():
                    tot += v * fa.f_get(la + (l,), c)
            mat[i][j] = mat[j][i] = tot
    return labels, mat


def check_metric_invariance(alg, g):
    """(invariance, nondegenerate): C_{li}^s g_{sj} + C_{lj}^s g_{is} = 0
    for all l, i, j, and an exact determinant test of nondegeneracy (g may
    be Gaussian)."""
    r = alg.dim
    if any(g[i][j] != g[j][i] for i in range(r) for j in range(r)):
        raise ValueError("metric must be symmetric")
    nondeg = not is_zero(linalg.det(g))
    for l in range(1, r + 1):
        for i in range(1, r + 1):
            row_li = alg.c_row(l, i)
            for j in range(i, r + 1):
                tot = Fraction(0)
                for s, v in row_li.items():
                    tot += v * g[s - 1][j - 1]
                for s, v in alg.c_row(l, j).items():
                    tot += v * g[i - 1][s - 1]
                if tot != 0:
                    return IdentityReport(False, (l, i, j)), IdentityReport(nondeg)
    return IdentityReport(True), IdentityReport(nondeg)


def metric_fa_scan(fa, g):
    """(invariance, nondegenerate) of g under a Filippov algebra,
    f_{a.. b}^l g_{lc} + f_{a.. c}^l g_{bl} = 0 for all (a.., b <= c), on
    `f_row` reads of `Fraction` constants."""
    d, n = fa.dim, fa.arity
    if any(g[i][j] != g[j][i] for i in range(d) for j in range(d)):
        raise ValueError("metric must be symmetric")
    nondeg = not is_zero(linalg.det(g))
    for a_idx in combinations(range(1, d + 1), n - 1):
        for b in range(1, d + 1):
            for c in range(b, d + 1):
                tot = Fraction(0)
                for l, v in fa.f_row(a_idx + (b,)).items():
                    tot += v * g[l - 1][c - 1]
                for l, v in fa.f_row(a_idx + (c,)).items():
                    tot += v * g[b - 1][l - 1]
                if tot != 0:
                    return IdentityReport(False, (a_idx, b, c)), IdentityReport(nondeg)
    return IdentityReport(True), IdentityReport(nondeg)


def _fi_accumulate(out, coeff, row):
    """out[s] += coeff * row[s] for every s of `row`."""
    for s, w in row.items():
        out[s] = out.get(s, 0) + coeff * w


def _first_difference(lhs, rhs, d):
    """The least s in 1..d at which the two {s: value} dicts differ."""
    for s in range(1, d + 1):
        if lhs.get(s, 0) != rhs.get(s, 0):
            return s
    return None


def fi_derivation(fa):
    n, d = fa.arity, fa.dim
    for a_idx in combinations(range(1, d + 1), n - 1):
        for b_idx in combinations(range(1, d + 1), n):
            lhs = {}
            for l, v in fa.f.get(b_idx, {}).items():
                _fi_accumulate(lhs, v, fa.f_row(a_idx + (l,)))
            rhs = {}
            for k in range(n):
                for l, v in fa.f_row(a_idx + (b_idx[k],)).items():
                    _fi_accumulate(rhs, v, fa.f_row(b_idx[:k] + (l,) + b_idx[k + 1:]))
            s = _first_difference(lhs, rhs, d)
            if s is not None:
                return IdentityReport(False, (a_idx, b_idx, s))
    return IdentityReport(True)


def fi_short(fa):
    # antisymmetrize (a_1..a_n, b_1) jointly; b_2..b_{n-1} stay free
    n, d = fa.arity, fa.dim
    for u in combinations(range(1, d + 1), n + 1):
        splits = [(a_blk, b1_blk, sign, fa.f.get(a_blk, {}))
                  for (a_blk, b1_blk), sign in shuffle_splits(u, [n, 1])]
        for spect in combinations(range(1, d + 1), n - 2):
            tot = {}
            for a_blk, b1_blk, sign, a_row in splits:
                for l, v in a_row.items():
                    _fi_accumulate(tot, sign * v, fa.f_row(b1_blk + spect + (l,)))
            s = _first_difference(tot, {}, d)
            if s is not None:
                return IdentityReport(False, (u, spect, s))
    return IdentityReport(True)


def fi_ghost(fa):
    # f_{c..}^l f_{b.. l}^s = (-1)^{n-1}/(n-1)! * f_{b.. [c_1}^l f_{c_2..c_n] l}^s
    # summed over all n! arrangements of c; the signs are taken once per call
    n, d = fa.arity, fa.dim
    fact = 1
    for q in range(2, n):
        fact *= q
    weight = Fraction((-1) ** (n - 1), fact)
    perms = [(p[0], p[1:], perm_sign(p)) for p in permutations(range(n))]
    for b_idx in combinations(range(1, d + 1), n - 1):
        for c_idx in combinations(range(1, d + 1), n):
            lhs = {}
            for l, v in fa.f.get(c_idx, {}).items():
                _fi_accumulate(lhs, v, fa.f_row(b_idx + (l,)))
            rhs = {}
            for first, rest, sgn in perms:
                row = fa.f_row(b_idx + (c_idx[first],))
                if not row:
                    continue
                rest_idx = tuple(c_idx[i] for i in rest)
                for l, v in row.items():
                    _fi_accumulate(rhs, sgn * v, fa.f_row(rest_idx + (l,)))
            rhs = {s: weight * v for s, v in rhs.items()}
            s = _first_difference(lhs, rhs, d)
            if s is not None:
                return IdentityReport(False, (b_idx, c_idx, s))
    return IdentityReport(True)


FI_REFERENCE = {"derivation": fi_derivation, "short": fi_short, "ghost": fi_ghost}


# ---------------------------------------------------------------------------
# shuffles, the Schouten bracket and the Poisson scans on Fraction Polys
# ---------------------------------------------------------------------------

def shuffle_splits(m, sizes):
    """Yield (blocks, sign) over ordered partitions of sorted tuple `m`."""
    if not sizes:
        yield (), 1
        return
    k = sizes[0]
    rest_sizes = sizes[1:]
    idx = range(len(m))
    for chosen in combinations(idx, k):
        block = tuple(m[i] for i in chosen)
        rest = tuple(m[i] for i in idx if i not in chosen)
        s = merge_sign(block, rest)
        for blocks, s2 in shuffle_splits(rest, rest_sizes):
            yield (block,) + blocks, s * s2


class _PolyGradients(dict):
    """Index tuple -> [(nu, d_nu of the Poly component)] over the variables
    the component depends on, ascending."""

    def __init__(self, table):
        super().__init__()
        self.table = table

    def __missing__(self, key):
        p = self.table[key]
        used = sorted({nu for e in p.terms for nu, k in enumerate(e, 1) if k})
        out = self[key] = [(nu, p.diff(nu)) for nu in used]
        return out


def schouten_bracket(a, b):
    """[A, B] on the signed Poly tables of A and B, one term map per output."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    p, q = a.rank, b.rank
    m = a.dim
    out_order = p + q - 1
    at, bt = a.signed, b.signed
    a_zero, b_zero = at.zero, bt.zero
    a_grad = _PolyGradients(at)
    b_grad = a_grad if b is a else _PolyGradients(bt)
    sign_p = (-1) ** p
    comps = {}
    for kk in combinations(range(1, m + 1), out_order):
        terms = {}
        for (bi, bj), sign in shuffle_splits(kk, [p - 1, q]):
            for nu, dv in b_grad[bj]:
                av = at[(nu,) + bi]
                if av is not a_zero:
                    add_product(terms, sign, av.terms, dv.terms)
        for (bi, bj), sign in shuffle_splits(kk, [p, q - 1]):
            for nu, dv in a_grad[bi]:
                bv = bt[(nu,) + bj]
                if bv is not b_zero:
                    add_product(terms, sign * sign_p, bv.terms, dv.terms)
        if terms:
            comps[kk] = Poly(m, terms)
    return AntisymTensor(out_order, m, comps, a.zero)


def gps_check(lam):
    """The self-bracket through a whole `schouten_bracket`, and the
    coordinates condition on the Fraction Polys."""
    if lam.rank % 2:
        raise ValueError("the self-bracket condition is empty for odd order")
    snb_ok = schouten_bracket(lam, lam).is_zero()
    n = lam.rank
    m = lam.dim
    table, zero = lam.signed, lam.zero
    grad = _PolyGradients(table)
    coords_ok = True
    witness = None
    for kk in combinations(range(1, m + 1), 2 * n - 1):
        terms = {}
        for (bi, bj), sign in shuffle_splits(kk, [n - 1, n]):
            for s, dv in grad[bj]:
                av = table[bi + (s,)]
                if av is not zero:
                    add_product(terms, sign, av.terms, dv.terms)
        if terms:
            coords_ok = False
            witness = kk
            break
    if snb_ok != coords_ok:
        raise AssertionError("the two self-bracket evaluations disagree")
    return IdentityReport(coords_ok, witness)


def np_check(lam):
    """(differential, algebraic): both Nambu-Poisson conditions on the
    Fraction Polys, every Sigma pair of a row read (rows whose middle block
    repeats an index skipped)."""
    n = lam.rank
    m = lam.dim
    table, zero = lam.signed, lam.zero

    dw = None
    diff_ok = True
    for it in combinations(range(1, m + 1), n - 1):
        for jt in combinations(range(1, m + 1), n):
            terms = {}
            d_jt = table[jt]
            for rho in range(1, m + 1):
                e1 = table[it + (rho,)]
                if e1 is not zero and d_jt is not zero:
                    d = d_jt.diff(rho)
                    if d:
                        add_product(terms, 1, e1.terms, d.terms)
                for k in range(n):
                    e2 = table[(rho,) + jt[:k] + jt[k + 1:]]
                    if e2 is zero:
                        continue
                    d = table[it + (jt[k],)]
                    if d is zero:
                        continue
                    d = d.diff(rho)
                    if d:
                        add_product(terms, (-1) ** (k + 1), d.terms, e2.terms)
            if terms:
                diff_ok = False
                dw = (it, jt)
                break
        if not diff_ok:
            break

    if n == 2:
        return IdentityReport(diff_ok, dw), IdentityReport(True)

    alg_ok = True
    aw = None

    def add_sigma(terms, it, jt):
        x = table[it]
        if x is not zero:
            y = table[jt]
            if y is not zero:
                add_product(terms, 1, x.terms, y.terms)
        head = it[:n - 1]
        pivot = it[n - 1]
        for k in range(n):
            x = table[head + (jt[k],)]
            if x is zero:
                continue
            y = table[jt[:k] + (pivot,) + jt[k + 1:]]
            if y is not zero:
                add_product(terms, -1, x.terms, y.terms)

    for it in product(range(1, m + 1), repeat=n):
        if len(set(it[1:n - 1])) < n - 2:
            continue
        for jt in product(range(1, m + 1), repeat=n):
            terms = {}
            add_sigma(terms, it, jt)
            add_sigma(terms, (jt[0],) + it[1:], (it[0],) + jt[1:])
            if terms:
                alg_ok = False
                aw = (it, jt)
                break
        if not alg_ok:
            break
    return IdentityReport(diff_ok, dw), IdentityReport(alg_ok, aw)


# ---------------------------------------------------------------------------
# the epsilon pair resolution, one Kronecker symbol per pair
# ---------------------------------------------------------------------------

def eps_pair_expansion_check(p: int, d: int) -> bool:
    """Check sum_{s<t} (-1)^{s+t+1} eps^{j1 j2}_{is it} eps^{j3..}_{i-rest}
    equals eps^{j1..j_{p+1}}_{i1..i_{p+1}} entrywise (the identity behind the
    coordinates form of the coboundary operator)."""
    rng = range(1, d + 1)
    m = p + 1
    for upper in product(rng, repeat=m):
        for lower in product(rng, repeat=m):
            tot = 0
            for s in range(m):
                for t in range(s + 1, m):
                    sub = gen_kronecker(upper[:2], (lower[s], lower[t]))
                    if sub:
                        rest = tuple(lower[k] for k in range(m) if k not in (s, t))
                        tot += (-1) ** (s + t + 1) * sub * gen_kronecker(upper[2:], rest)
            if tot != gen_kronecker(upper, lower):
                return False
    return True


# ---------------------------------------------------------------------------
# the polynomial -> cocycle -> GLA bridge on Fraction sums and sorting reads
# ---------------------------------------------------------------------------

def check_invariance(alg, k):
    """The invariance sum_s C_{l i_s}^t k_{i_1..t..i_m} = 0, its first
    violation (l, idx) the witness."""
    m = k.order
    for l in range(1, alg.dim + 1):
        for idx in combinations_with_replacement(range(1, alg.dim + 1), m):
            tot = Fraction(0)
            for s in range(m):
                for t, v in alg.c_row(l, idx[s]).items():
                    tot += v * k.get(idx[:s] + (t,) + idx[s + 1:])
            if tot != 0:
                return IdentityReport(False, (l, idx))
    return IdentityReport(True)


def cocycle_from_invariant_poly(alg, k):
    """Rank-(2m-1) cocycle from an order-m invariant, one `k.get` per rho."""
    rep = check_invariance(alg, k)
    if not rep.ok:
        raise ValueError(f"polynomial is not invariant; residual at {rep.witness}")
    m = k.order
    r = alg.dim
    rank = 2 * m - 1
    if rank > r:
        return AntisymTensor(rank, r, {})
    pair_factor = Fraction(2 ** (m - 2))

    raw = {}
    for mid in combinations(range(1, r + 1), rank - 2):
        for blocks, sign in shuffle_splits(mid, [2] * (m - 2) + [1]):
            pairs, single = blocks[:-1], blocks[-1][0]
            partial = [((), Fraction(1))]
            for p in pairs:
                row = alg.c.get(p)
                if not row:
                    partial = []
                    break
                partial = [(ls + (l,), c * v) for ls, c in partial for l, v in row.items()]
            if not partial:
                continue
            for sigma in range(1, r + 1):
                last_row = alg.c_row(single, sigma)
                if not last_row:
                    continue
                for ls, c in partial:
                    for lm, v in last_row.items():
                        w = sign * pair_factor * c * v
                        for rho in range(1, r + 1):
                            kv = k.get((rho,) + ls + (lm,))
                            if kv:
                                accumulate(raw, (rho,) + mid + (sigma,), w * kv)

    ent, bad = fold_antisym(raw)
    if bad is not None:
        raise ArithmeticError(f"constructed tensor not antisymmetric at {bad}")
    out = AntisymTensor(rank, r, ent)
    wit = cocycle_condition_residual(alg, out)
    if wit is not None:
        raise ArithmeticError(f"output fails the cocycle condition at {wit}")
    return out


def cocycle_condition_residual(alg, omega):
    """First violation of C_{[j1 j2}^k Omega_{i_1..i_{p-1}]k} = 0, or None,
    scanning every sorted (p+1)-tuple."""
    p = omega.rank
    r = alg.dim
    for m in combinations(range(1, r + 1), p + 1):
        tot = Fraction(0)
        for (pair, rest), sign in shuffle_splits(m, [2, p - 1]):
            row = alg.c.get(pair)
            if row:
                for kk, v in row.items():
                    tot += sign * v * omega.get(rest + (kk,))
        if tot != 0:
            return m
    return None


def invariance_condition_residual(alg, omega):
    """First violation of sum_s C_{i j_s}^k Omega_{j_1.. k ..j_p} = 0, or
    None, scanning every (i, sorted p-tuple) with one sorting read each."""
    p = omega.rank
    for i in range(1, alg.dim + 1):
        for idx in combinations(range(1, alg.dim + 1), p):
            tot = Fraction(0)
            for s in range(p):
                for kk, v in alg.c_row(i, idx[s]).items():
                    tot += v * omega.get(idx[:s] + (kk,) + idx[s + 1:])
            if tot != 0:
                return (i, idx)
    return None


def check_poly_vanishing_identity(alg, k):
    """The epsilon-contracted m-fold C-product against k over every ordered
    pair split, with one sorting `k.get` per (split, l-tuple)."""
    m = k.order
    r = alg.dim
    if 2 * m > r:
        return True
    for idx in combinations(range(1, r + 1), 2 * m):
        tot = Fraction(0)
        for blocks, sign in shuffle_splits(idx, [2] * m):
            partial = [((), Fraction(1))]
            for pair in blocks:
                row = alg.c.get(pair)
                if not row:
                    partial = []
                    break
                partial = [(seq + (l,), c * v) for seq, c in partial
                           for l, v in row.items()]
            for seq, c in partial:
                kv = k.get(seq)
                if kv != 0:
                    tot += sign * c * kv
        if tot != 0:
            return False
    return True


def nested_bracket_residuals(c1, n1, c2, n2, dim):
    """R_M^s = sum_{A+B=M} sign sum_l c1_A^l c2_{B l}^s, nonzero entries only,
    with one `merge_sign` and one sort per term."""
    by_member = {}
    for idx, row in c2.items():
        for pos, l in enumerate(idx):
            by_member.setdefault(l, []).append((idx, pos, row))
    res = {}
    for a_idx, row1 in c1.items():
        for l, v1 in row1.items():
            for (b_full, pos, row2) in by_member.get(l, []):
                b_rest = b_full[:pos] + b_full[pos + 1:]
                if set(a_idx) & set(b_rest):
                    continue
                move = (-1) ** (len(b_full) - 1 - pos)
                sign = merge_sign(a_idx, b_rest) * move
                key_m = tuple(sorted(a_idx + b_rest))
                for s, v2 in row2.items():
                    accumulate(res, (key_m, s), sign * v1 * v2)
    return res


def check_gji(g):
    res = nested_bracket_residuals(g.c, g.arity, g.c, g.arity, g.dim)
    if res:
        return IdentityReport(False, min(res))
    return IdentityReport(True)


def check_mgji(g1, g2):
    if g1.dim != g2.dim:
        raise ValueError("dimension mismatch")
    for ca, na, cb, nb in ((g1.c, g1.arity, g2.c, g2.arity),
                           (g2.c, g2.arity, g1.c, g1.arity)):
        res = nested_bracket_residuals(ca, na, cb, nb, g1.dim)
        if res:
            return IdentityReport(False, min(res))
    return IdentityReport(True)


def gla_from_cocycle(alg, omega):
    """The raised-index constants over dense inverse-Killing rows, validated
    by the reference GJI and mixed identity."""
    if cocycle_condition_residual(alg, omega) is not None:
        raise ValueError("input is not a cocycle")
    kinv = linalg.inverse(killing_form(alg))
    c = {}
    for idx, v in omega.entries.items():
        for t in range(len(idx)):
            body = idx[:t] + idx[t + 1:]
            move = (-1) ** (len(idx) - 1 - t)
            row = c.setdefault(body, {})
            for j in range(1, alg.dim + 1):
                accumulate(row, j, move * v * kinv[idx[t] - 1][j - 1])
    out = GLAlgebra(omega.rank - 1, alg.dim, {k: v for k, v in c.items() if v})
    rep = check_gji(out)
    if not rep.ok:
        raise AssertionError(f"GJI failed at {rep.witness}")
    rep = check_mgji(lie_as_gla(alg), out)
    if not rep.ok:
        raise AssertionError(f"mixed identity failed at {rep.witness}")
    return out


# ---------------------------------------------------------------------------
# the .alg reader with a regex match per token
# ---------------------------------------------------------------------------

def _int_tokens(text, line_no, col0, what):
    """(column, integer) for each whitespace-separated token of `text`, which
    starts at column col0 of line line_no; a token that is not an integer
    in ASCII digits, `-?[0-9]+`, is a ParseError at its own column."""
    out = []
    for m in re.finditer(r"\S+", text):
        if not re.fullmatch(r"-?[0-9]+", m.group()):
            raise ParseError(line_no, col0 + m.start(),
                             f"{what} must be integers, got {m.group()!r}")
        out.append((col0 + m.start(), int(m.group())))
    return out


def _count_error(line_no, tokens, want, end_col, message):
    """A ParseError for a token list whose length is not `want`: at the first
    surplus token, or at `end_col` (where the list ends) when one is missing."""
    col = tokens[want][0] if len(tokens) > want else end_col
    return ParseError(line_no, col, message)


def _non_ascii_space(line, line_no):
    """A ParseError at the first whitespace character outside ASCII."""
    m = re.search(r"[^\x00-\x7f]", re.sub(r"\S", "x", line))
    if m:
        raise ParseError(line_no, m.start() + 1,
                         f"separators must be ASCII, got U+{ord(line[m.start()]):04X}")


def parse_alg(text):
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, 1, "empty file")
    _non_ascii_space(lines[0], 1)
    head = [(m.start() + 1, m.group()) for m in re.finditer(r"\S+", lines[0])]
    if len(head) != 4:
        raise ParseError(1, 1, "header must be: kind arity dim scalar")
    (kind_col, kind), (arity_col, arity_s), (dim_col, dim_s), (scalar_col, scalar_kind) = head
    if kind not in KINDS:
        raise ParseError(1, kind_col, f"unknown kind {kind!r}")
    ((_, arity),) = _int_tokens(arity_s, 1, arity_col, "arity and dim")
    ((_, dim),) = _int_tokens(dim_s, 1, dim_col, "arity and dim")
    if arity < 1:
        raise ParseError(1, arity_col, f"arity must be positive, got {arity}")
    if dim < 1:
        raise ParseError(1, dim_col, f"dim must be positive, got {dim}")
    if kind == "filippov" and arity < 2:
        raise ParseError(1, arity_col, f"filippov files need arity >= 2, got {arity}")
    if kind in ("lie", "leibniz") and arity != 2:
        raise ParseError(1, arity_col, f"{kind} files have arity 2, got {arity}")
    if kind == "gla" and arity % 2:
        raise ParseError(1, arity_col, f"gla files need an even arity, got {arity}")
    if kind != "leibniz" and arity > dim:
        raise ParseError(1, arity_col, f"arity {arity} exceeds dim {dim}:"
                         " no strictly increasing index tuple exists")
    if scalar_kind not in ("rational", "gaussian"):
        raise ParseError(1, scalar_col, f"unknown scalar kind {scalar_kind!r}")
    out = AlgebraFile(kind, arity, dim, scalar_kind)
    in_metric = False
    metric = None
    seen = set()
    metric_pairs = set()
    for no, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        _non_ascii_space(line, no)
        col0 = len(line) - len(line.lstrip()) + 1  # column of stripped[0]
        if stripped == "metric":
            if in_metric:
                raise ParseError(no, col0, "a second metric block")
            in_metric = True
            metric = [[Fraction(0)] * dim for _ in range(dim)]
            continue
        if ":" not in stripped:
            raise ParseError(no, col0, "missing ':' separator")
        lhs, _, val_s = stripped.rpartition(":")
        colon_col = col0 + len(lhs)
        try:
            value = parse_scalar(val_s)
        except (ValueError, ZeroDivisionError):
            raise ParseError(no, colon_col + 1, f"bad scalar {val_s.strip()!r}")
        if scalar_kind == "rational" and isinstance(value, GaussianRational):
            raise ParseError(no, colon_col + 1, "gaussian literal in a rational file")
        if in_metric:
            parts = _int_tokens(lhs, no, col0, "metric indices")
            if len(parts) != 2:
                raise _count_error(no, parts, 2, colon_col,
                                   "metric lines are `i j : value`")
            for col, i in parts:
                if not 1 <= i <= dim:
                    raise ParseError(no, col, f"metric index {i} out of range")
            (_, i), (_, j) = parts
            pair = (min(i, j), max(i, j))
            if pair in metric_pairs:
                raise ParseError(no, col0, f"duplicate metric entry for {pair}")
            metric_pairs.add(pair)
            metric[i - 1][j - 1] = value
            metric[j - 1][i - 1] = value
            continue
        if isinstance(value, GaussianRational):
            if value.im:
                raise ParseError(no, colon_col + 1,
                                 f"entry values must be real, got {val_s.strip()!r}")
            value = value.re
        if "->" not in lhs:
            raise ParseError(no, col0, "missing '->'")
        idx_s, _, tgt_s = lhs.partition("->")
        arrow_col = col0 + len(idx_s)
        idx_tokens = _int_tokens(idx_s, no, col0, "indices")
        tgt_tokens = _int_tokens(tgt_s, no, arrow_col + 2, "indices")
        if kind == "multivector":
            if len(tgt_tokens) != dim:
                raise _count_error(no, tgt_tokens, dim, colon_col,
                                   f"exponent vector must have {dim} entries")
            if neg := next(((col, t) for col, t in tgt_tokens if t < 0), None):
                raise ParseError(no, neg[0], f"negative exponent {neg[1]}")
            target = tuple(t for _, t in tgt_tokens)
        else:
            if len(tgt_tokens) != 1:
                raise _count_error(no, tgt_tokens, 1, colon_col,
                                   "exactly one target index")
            ((tgt_col, target),) = tgt_tokens
            if not 1 <= target <= dim:
                raise ParseError(no, tgt_col, f"target index {target} out of range")
        if len(idx_tokens) != arity:
            raise _count_error(no, idx_tokens, arity, arrow_col,
                               f"expected {arity} lower indices")
        for col, i in idx_tokens:
            if not 1 <= i <= dim:
                raise ParseError(no, col, f"lower index {i} out of range")
        idx = tuple(i for _, i in idx_tokens)
        if kind != "leibniz":
            for (_, a), (col, b) in zip(idx_tokens, idx_tokens[1:]):
                if a >= b:
                    raise ParseError(no, col,
                                     f"indices must be strictly increasing, got {idx}")
        key = (idx, target)
        if key in seen:
            raise ParseError(no, col0, f"duplicate entry for {idx} -> {target}")
        seen.add(key)
        out.entries.append((idx, target, value))
    out.metric = metric
    return out
