"""Ordinary Lie algebras by structure constants: Jacobi validation, Killing
form, metric invariance, su(n) generator bases, symmetric invariant
polynomials, and the bridge from invariant polynomials to odd-rank
cocycles (the way back, from a cocycle to its invariant, is in `claims`).
`LieAlgebra` is the arity-2 `tensors.BracketTensor`; that class is the one
storage of structure constants and holds its readers (`row`, `get`,
`signed`, `ad_matrix`), which a Lie algebra reads with pairs (i, j) and
one-label ad maps (i,).

`check_jacobi` reads the arity-2 residual of
`tensors.nested_bracket_residuals`; `trace_form` is the one Tr(ad_X ad_Y)
scan, the Killing form at arity 2 and `claims.kasymov_form` above it.
`check_jacobi`, `metric_scan` (with `check_metric_invariance` on it) and
`check_invariance` answer with the package's one verdict type,
`tensors.IdentityReport`; a metric's nondegeneracy is the separate verdict
`linalg.nondegenerate`.

Integer tables.  The Jacobi, trace-form and metric scans, `check_invariance`,
`cocycle_from_invariant_poly` and `cocycle_condition_residual` (and, in
`claims`, `invariance_condition_residual` and
`check_poly_vanishing_identity`) sum ints: the rows of D C
(`BracketTensor.integer_scaled`), the tail table of D' k (`_poly_table`)
and D'' Omega.  Every residual is linear in each of them, so the factors
move no zero and no witness; an output entry is divided by its factor
once, into a `Fraction`.

Conventions.  Structure constants C_{ij}^k are real rationals with
[X_i, X_j] = C_{ij}^k X_k in an antihermitian-type basis.  The su(n)
constructor also returns the hermitian-pattern matrices used for trace
polynomials; the two are related by X_herm = i * X_antiherm, so the same
real constants serve both.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import factorial

from . import linalg
from .scalars import (GaussianRational, accumulate, common_denominator, is_zero, rat,
                      scaled_to_ints)
from .tensors import (AntisymTensor, BracketTensor, FieldEq, IdentityReport, fold_antisym,
                      nested_bracket_residuals, shuffle_splits)


# ---------------------------------------------------------------------------
# Lie algebras
# ---------------------------------------------------------------------------

class LieAlgebra(BracketTensor):
    """dim-r Lie algebra: the arity-2 `BracketTensor`, whose table `c` maps
    sorted pairs (i, j), i < j, to {k: C_ij^k}.  `c_row` is
    `BracketTensor.row` under the name that `bench/tracing.py` wraps.
    """

    kind = "lie"

    def __init__(self, dim, c=None):
        super().__init__(2, dim, {} if c is None else c)

    @classmethod
    def from_table(cls, arity, dim, c):
        if arity != 2:
            raise ValueError("binary algebras have arity 2")
        return cls(dim, c)

    @classmethod
    def from_entries(cls, dim, entries):
        """entries: iterable of ((i, j, k), value) with any index order;
        values given for the same constant add up."""
        c = {}
        for (i, j, k), v in entries:
            if i == j:
                if not is_zero(v):
                    raise ValueError("C_{ii}^k must vanish")
                continue
            key, s = ((i, j), 1) if i < j else ((j, i), -1)
            row = c.setdefault(key, {})
            row[k] = row.get(k, Fraction(0)) + s * rat(v)
        return cls(dim, c)

    c_row = BracketTensor.row

    def bracket(self, x, y):
        """Bracket of coordinate vectors (dense lists, slot k-1 = basis k)."""
        out = [Fraction(0)] * self.dim
        for (i, j), row in self.c.items():
            w = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
            if not is_zero(w):
                for k, v in row.items():
                    out[k - 1] += w * v
        return out

    def adjoint_rep(self):
        return Representation(self, [self.ad_matrix((i,)) for i in range(1, self.dim + 1)],
                              self.dim, check=False)


def check_jacobi(alg: LieAlgebra) -> IdentityReport:
    """C_{[ij}^l C_{k]l}^s = 0 over all (i<j<k, s), read off the residual of
    `tensors.nested_bracket_residuals` on the table of D C; the least
    ((i, j, k), s) with a nonzero residual is the witness.  The report is
    memoized on alg under "jacobi", as `check_fi`'s is under "fi"."""
    def scan():
        c = alg.integer_scaled()[1].c
        res = nested_bracket_residuals(c, c, alg.dim)
        if res:
            (i, j, k), s = min(res)
            return IdentityReport(False, (i, j, k, s))
        return IdentityReport(True)
    return alg.memoized("jacobi", scan)


def trace_form(alg: BracketTensor):
    """(labels, k): k(X, Y) = Tr(ad_X ad_Y) = C_{X b}^l C_{Y l}^b over the
    sorted (arity-1)-tuples X, Y, summed on the signed rows of D C
    (`BracketTensor.integer_scaled`) and divided by D^2 once per entry."""
    r = alg.dim
    d, ialg = alg.integer_scaled()
    rows = ialg.signed
    labels = list(combinations(range(1, r + 1), alg.arity - 1))
    ad = [[rows[x + (b,)] for b in range(1, r + 1)] for x in labels]
    k = linalg.zeros(len(labels), len(labels))
    for i, ad_x in enumerate(ad):
        for j in range(i, len(labels)):
            ad_y = ad[j]
            tot = 0
            for b, row in enumerate(ad_x, 1):
                for l, v in row.items():
                    row_y = ad_y[l - 1]
                    if b in row_y:
                        tot += v * row_y[b]
            k[i][j] = k[j][i] = Fraction(tot, d * d)
    return labels, k


def killing_form(alg: LieAlgebra):
    """k_ij = C_il^s C_js^l (= Tr ad_i ad_j): the matrix of `trace_form`."""
    return trace_form(alg)[1]


def inverse_killing_form(alg: LieAlgebra):
    """k^ij, the inverse of `killing_form`, as nested tuples that no caller
    can change, built once per algebra (`BracketTensor.memoized`); raises
    ValueError when k is singular."""
    return alg.memoized("kinv", lambda: tuple(map(tuple, linalg.inverse(killing_form(alg)))))


def _integer_parts(g):
    """D g as int matrices: its real part, and its imaginary part when g has
    one (g may be Gaussian); D is the least common multiple of the
    denominators of both.  A real linear condition holds on g exactly when
    it holds on every part."""
    parts = [[[x.re if isinstance(x, GaussianRational) else x for x in row] for row in g]]
    im = [[x.im if isinstance(x, GaussianRational) else 0 for x in row] for row in g]
    if any(map(any, im)):
        parts.append(im)
    d = common_denominator([x for part in parts for row in part for x in row])
    return [[[x.numerator * (d // x.denominator) for x in row] for row in part]
            for part in parts]


def metric_scan(alg: BracketTensor, g) -> IdentityReport:
    """The invariance of a symmetric metric g, which may be Gaussian: its
    witness is the first (X, i, j), X over the sorted (arity-1)-labels and
    i <= j, with C_{X i}^s g_{sj} + C_{X j}^s g_{is} != 0.  The sums run on
    the signed rows of D C (`BracketTensor.integer_scaled`) and on the
    integer parts of D' g: the condition is linear in C and in g, so the
    factors move no zero.  Nondegeneracy is `linalg.nondegenerate`."""
    r = alg.dim
    if any(g[i][j] != g[j][i] for i in range(r) for j in range(r)):
        raise ValueError("metric must be symmetric")
    rows = alg.integer_scaled()[1].signed
    parts = _integer_parts(g)
    for x in combinations(range(1, r + 1), alg.arity - 1):
        ad = [rows[x + (i,)] for i in range(1, r + 1)]
        for i in range(r):
            for j in range(i, r):
                for h in parts:
                    hi, hj = h[i], h[j]  # g is symmetric
                    tot = 0
                    for s, v in ad[i].items():
                        tot += v * hj[s - 1]
                    for s, v in ad[j].items():
                        tot += v * hi[s - 1]
                    if tot:
                        return IdentityReport(False, (x, i + 1, j + 1))
    return IdentityReport(True)


def check_metric_invariance(alg: LieAlgebra, g) -> IdentityReport:
    """`metric_scan` at arity 2, its witness ((l,), i, j) read as (l, i, j)."""
    rep = metric_scan(alg, g)
    if rep.ok:
        return rep
    (l,), i, j = rep.witness
    return IdentityReport(False, (l, i, j))


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

class Representation:
    """Sparse dim_v x dim_v matrices rho_i (see `linalg`) with
    [rho_i, rho_j] = C_ij^k rho_k, entrywise exact.

    The constructor checks the closure with `closure_residual` and raises
    ValueError at the first failing pair.  Three builders pass check=False,
    as the scan would repeat a check made elsewhere: `adjoint_rep`, whose
    closure is the Jacobi identity (`check_jacobi`), `sun_generators`,
    which checks the closure on the doubled ℤ[i] generators it holds, and
    `SunBasis.copy`, whose matrices are those of a checked basis."""

    def __init__(self, algebra, mats, dim_v, check=True):
        if check:
            bad = closure_residual(algebra, mats)
            if bad is not None:
                raise ValueError(f"not a representation: residual at {bad}")
        self.algebra, self.mats, self.dim_v = algebra, mats, dim_v


def closure_residual(alg: LieAlgebra, mats):
    """None when [rho_i, rho_j] - C_ij^k rho_k = 0 exactly; else first (i, j)."""
    for i in range(1, alg.dim + 1):
        for j in range(i + 1, alg.dim + 1):
            res = linalg.sp_commutator(mats[i - 1], mats[j - 1])
            for k, v in alg.row((i, j)).items():
                for key, w in mats[k - 1].items():
                    accumulate(res, key, -v * w)
            if res:
                return (i, j)
    return None


# ---------------------------------------------------------------------------
# su(n) generators
# ---------------------------------------------------------------------------

class SunBasis:
    def __init__(self, rep, hermitian, trace_norms, doubled):
        self.rep = rep                  # antihermitian matrices, real closure
        self.hermitian = hermitian      # X_i = i * rep.mats[i-1], sparse
        self.trace_norms = trace_norms  # Tr(X_i X_i), rational, diagonal metric
        self.doubled = doubled          # Y_i = 2 X_i as sparse ℤ[i] matrices

    @property
    def algebra(self):
        return self.rep.algebra

    def copy(self):
        """A copy with an algebra (`BracketTensor.copy`), matrices and lists
        of its own, which a caller may change without changing this basis."""
        rep = Representation(self.algebra.copy(), [dict(m) for m in self.rep.mats],
                             self.rep.dim_v, check=False)
        return SunBasis(rep, [dict(m) for m in self.hermitian], list(self.trace_norms),
                        [dict(m) for m in self.doubled])


def sun_generators(n: int) -> SunBasis:
    """Defining-representation basis of su(n) over Gaussian rationals.

    Off-diagonal generators carry the standard normalization
    Tr(X_i X_j) = 1/2 delta_ij.  The Cartan (diagonal) generators are kept at
    Tr(X_l X_l) = l(l+1)/4: the 1/sqrt(l(l+1)) rescaling that would equalize
    them is irrational, hence unavailable in Q(i).  The basis stays
    trace-orthogonal, which is all the structure-constant extraction needs;
    for n = 2 the normalization is exactly 1/2 * identity.

    The arithmetic runs on the doubled generators Y_i = 2 X_i, sparse ℤ[i]
    matrices (`linalg.zi_mul` and its kin) with entries in {±1, ±i} off the
    diagonal and in {1, -l} on the l-th Cartan diagonal.  With
    [X_i, X_j] = i C_ij^k X_k and trace orthogonality,

        Tr(X_i X_i) = Tr(Y_i Y_i) / 4,
        C_ij^k = Im Tr([Y_i, Y_j] Y_k) / (2 Tr(Y_k Y_k)),

    and Re Tr([Y_i, Y_j] Y_k) must vanish (real constants).

    The closure is checked on the doubled generators too, where it reads
    [Y_i, Y_j] = 2i C_ij^k Y_k.  With C read back from the built algebra and
    D the common denominator of its constants, every pair i < j must satisfy

        -i D [Y_i, Y_j] = sum_k 2 D C_ij^k Y_k

    in ℤ[i], on the commutator the extraction computed; a residual raises
    ValueError at the first failing (i, j).  The `GaussianRational` matrices
    `hermitian` Y_i / 2 and `rep.mats` -i Y_i / 2 are wrapped once at the
    end, into a representation that skips its own `closure_residual` scan:
    that scan would repeat the check in `GaussianRational` arithmetic.
    """
    if not 2 <= n <= 4:
        raise ValueError("sun_generators: desk scale is 2 <= n <= 4")
    doubled = []
    for a in range(n):
        for b in range(a + 1, n):
            doubled.append({(a, b): (1, 0), (b, a): (1, 0)})
            doubled.append({(a, b): (0, -1), (b, a): (0, 1)})
    for l in range(1, n):
        diag = {(x, x): (1, 0) for x in range(l)}
        diag[(l, l)] = (-l, 0)
        doubled.append(diag)

    r = n * n - 1
    sq_norms = []
    for y in doubled:
        re, im = linalg.zi_trace(y, y)
        assert im == 0
        sq_norms.append(re)
    # real structure constants: [X_i, X_j] = i C_ij^k X_k in the hermitian basis
    entries, commutators = [], {}
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            cm = commutators[i, j] = linalg.zi_commutator(doubled[i - 1], doubled[j - 1])
            for k in range(1, r + 1):
                re, im = linalg.zi_trace(cm, doubled[k - 1])
                assert re == 0, "structure constants must be real"
                if im:
                    entries.append(((i, j, k), Fraction(im, 2 * sq_norms[k - 1])))
    alg = LieAlgebra.from_entries(r, entries)
    d, ialg = alg.integer_scaled()
    for (i, j), cm in commutators.items():
        want = linalg.zi_sum((2 * v, doubled[k - 1]) for k, v in ialg.c.get((i, j), {}).items())
        if linalg.zi_scale((0, -d), cm) != want:
            raise ValueError(f"not a representation: residual at {(i, j)}")
    half = Fraction(1, 2)
    herm = [linalg.zi_wrap(y, half) for y in doubled]
    antiherm = [linalg.zi_wrap(linalg.zi_scale((0, -1), y), half) for y in doubled]
    rep = Representation(alg, antiherm, n, check=False)
    return SunBasis(rep=rep, hermitian=herm, trace_norms=[Fraction(t, 4) for t in sq_norms],
                    doubled=doubled)


# ---------------------------------------------------------------------------
# symmetric invariant polynomials
# ---------------------------------------------------------------------------

class SymInvariantPoly(FieldEq):
    """Fully symmetric rank-m tensor on 1..dim, stored on sorted tuples."""

    _fields = ("order", "dim", "terms")

    def __init__(self, order, dim, terms=None):
        clean = {}
        for idx, v in (terms or {}).items():
            if not is_zero(v):
                clean[tuple(sorted(idx))] = rat(v)
        self.order, self.dim, self.terms = order, dim, clean

    def get(self, idx):
        return self.terms.get(tuple(sorted(idx)), Fraction(0))

    def is_zero(self):
        return not self.terms


def _poly_table(k: SymInvariantPoly):
    """(D, table): D the common denominator of k's values, and the table
    from each sorted tail (k's last m-1 slots) to {rho: D k_{rho tail}},
    rho ascending; it holds k's nonzero values alone."""
    d = common_denominator(k.terms.values())
    table = {}
    for idx, v in scaled_to_ints(k.terms, d).items():
        for pos, rho in enumerate(idx):
            if pos == 0 or idx[pos - 1] != rho:
                table.setdefault(idx[:pos] + idx[pos + 1:], {})[rho] = v
    return d, {tail: dict(sorted(row.items())) for tail, row in table.items()}


def check_invariance(alg: LieAlgebra, k: SymInvariantPoly) -> IdentityReport:
    """The invariance sum_s C_{l i_s}^t k_{i_1..t..i_m} = 0 of k, its first
    violation (l, idx) the witness.

    The residual is scattered from k's nonzero terms: a term K and a slot
    value t of K add count_i(idx) C_{li}^t k_K at (l, idx), idx = sorted(K
    - t + i).  The least nonzero (l, idx) is the first a scan over l and
    the sorted multisets idx reaches."""
    cols = {}  # (l, t) -> {i: D C_{li}^t}
    for (a, b), row in alg.integer_scaled()[1].c.items():
        for t, v in row.items():
            cols.setdefault((a, t), {})[b] = v
            cols.setdefault((b, t), {})[a] = -v
    res = {}
    for tail, row in _poly_table(k)[1].items():
        for t, w in row.items():
            for l in range(1, alg.dim + 1):
                for i, v in cols.get((l, t), {}).items():
                    idx = tuple(sorted(tail + (i,)))
                    accumulate(res, (l, idx), idx.count(i) * v * w)
    return IdentityReport(False, min(res)) if res else IdentityReport(True)


def _n_arrangements(idx):
    """Distinct arrangements of a multiset tuple."""
    f = factorial(len(idx))
    counts = {}
    for x in idx:
        counts[x] = counts.get(x, 0) + 1
    for c in counts.values():
        f //= factorial(c)
    return f


def symmetrized_trace_poly(basis: SunBasis, m: int) -> SymInvariantPoly:
    """k_{i_1..i_m} = sTr(X_{i_1}..X_{i_m}), weight-one symmetrization, in
    the hermitian basis, where the values come out real rationals.

    The traces are taken on the doubled ℤ[i] generators Y_i = 2 X_i, whose
    prefix products are built once each; the integer sum over the distinct
    arrangements is divided by 2^m m! once, at the end."""
    if m < 2:
        raise ValueError("order must be >= 2")
    gens = basis.doubled
    r = len(gens)
    prefix = {}

    def product_of(seq):
        if len(seq) == 1:
            return gens[seq[0] - 1]
        got = prefix.get(seq)
        if got is None:
            got = linalg.zi_mul(product_of(seq[:-1]), gens[seq[-1] - 1])
            prefix[seq] = got
        return got

    fact = factorial(m)
    den = 2 ** m * fact
    terms = {}
    for idx in combinations_with_replacement(range(1, r + 1), m):
        re = im = 0
        for p in set(permutations(idx)):
            t_re, t_im = linalg.zi_trace(product_of(p[:-1]), gens[p[-1] - 1])
            re += t_re
            im += t_im
        assert im == 0, "symmetrized trace of hermitian matrices is real"
        if re:
            terms[idx] = Fraction(re * (fact // _n_arrangements(idx)), den)
    return SymInvariantPoly(m, r, terms)


def killing_invariant_poly(alg: LieAlgebra) -> SymInvariantPoly:
    k = killing_form(alg)
    terms = {}
    for i in range(1, alg.dim + 1):
        for j in range(i, alg.dim + 1):
            if k[i - 1][j - 1] != 0:
                terms[(i, j)] = k[i - 1][j - 1]
    return SymInvariantPoly(2, alg.dim, terms)


# ---------------------------------------------------------------------------
# the polynomial <-> cocycle bridge
# ---------------------------------------------------------------------------

def cocycle_from_invariant_poly(alg: LieAlgebra, k: SymInvariantPoly) -> AntisymTensor:
    """Rank-(2m-1) antisymmetric tensor from an order-m invariant:

        Omega_{rho i_2..i_{2m-2} sigma}
          = eps^{j..}_{i..} C^{l_1}_{j_2 j_3} .. C^{l_{m-1}}_{j_{2m-2} sigma}
            k_{rho l_1..l_{m-1}}

    The epsilon contraction collapses to a shuffle sum over (m-2) pairs plus
    one single slot, times 2 per pair for the in-pair arrangements.  Rejects
    non-invariant k; verifies the raw output is totally antisymmetric and a
    cocycle before returning it.

    The tail table, read at every arrangement of a tail, gives every nonzero
    k_{rho ..} at once; each entry is scaled by 2^{m-2}/(D^{m-1} D') once.
    """
    rep = check_invariance(alg, k)
    if not rep.ok:
        raise ValueError(f"polynomial is not invariant; residual at {rep.witness}")
    m = k.order
    r = alg.dim
    rank = 2 * m - 1
    if rank > r:
        return AntisymTensor(rank, r, {})
    d, ialg = alg.integer_scaled()
    rows = ialg.signed
    dk, table = _poly_table(k)
    table = {p: row for tail, row in table.items() for p in set(permutations(tail))}

    raw = {}
    for mid in combinations(range(1, r + 1), rank - 2):
        for blocks, sign in shuffle_splits(mid, [2] * (m - 2) + [1]):
            pairs, single = blocks[:-1], blocks[-1][0]
            partial = [((), sign)]
            for p in pairs:
                row = ialg.c.get(p)
                if not row:
                    partial = []
                    break
                partial = [(ls + (l,), c * v) for ls, c in partial for l, v in row.items()]
            if not partial:
                continue
            for sigma in range(1, r + 1):
                last_row = rows[single, sigma]
                for ls, c in partial:
                    for lm, v in last_row.items():
                        k_row = table.get(ls + (lm,))
                        if k_row:
                            w = c * v
                            for rho, kv in k_row.items():
                                accumulate(raw, (rho,) + mid + (sigma,), w * kv)

    ent, bad = fold_antisym(raw)
    if bad is not None:
        raise ArithmeticError(f"constructed tensor not antisymmetric at {bad}")
    den = d ** (m - 1) * dk
    out = AntisymTensor(rank, r, {key: Fraction(2 ** (m - 2) * v, den) for key, v in ent.items()})
    wit = cocycle_condition_residual(alg, out)
    if wit is not None:
        raise ArithmeticError(f"output fails the cocycle condition at {wit}")
    return out


def cocycle_condition_residual(alg: LieAlgebra, omega: AntisymTensor):
    """First violation of C_{[j1 j2}^k Omega_{i_1..i_{p-1}]k} = 0, or None;
    the antisymmetrization is the shuffle sum over (2, p-1) splits.

    The residual is scattered from Omega's nonzero entries: one whose slot
    t holds k adds sign * C_{ab}^k Omega at the sorted merge M of (a, b)
    with its other p-1 slots.  The least nonzero M is the first a scan over
    the sorted (p+1)-tuples reaches."""
    p = omega.rank
    into = {}  # k -> [(a, b, D C_{ab}^k)]
    for (a, b), row in alg.integer_scaled()[1].c.items():
        for kk, v in row.items():
            into.setdefault(kk, []).append((a, b, v))
    dw = common_denominator(omega.entries.values())
    res = {}
    for key, w in scaled_to_ints(omega.entries, dw).items():
        for t, kk in enumerate(key):
            rest = key[:t] + key[t + 1:]
            w_t = -w if (p - 1 - t) & 1 else w  # Omega_{rest kk}
            for a, b, v in into.get(kk, ()):
                pa, pb = bisect_left(rest, a), bisect_left(rest, b)
                if rest[pa:pa + 1] == (a,) or rest[pb:pb + 1] == (b,):
                    continue
                m_key = rest[:pa] + (a,) + rest[pa:pb] + (b,) + rest[pb:]
                accumulate(res, m_key, -v * w_t if (pa + pb) & 1 else v * w_t)
    return min(res) if res else None
