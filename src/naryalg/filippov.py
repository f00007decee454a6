"""Filippov (n-Lie) algebras: validation of the characteristic identity in
its derivation, short and ghost forms, the simple algebras and their vector
products, fundamental objects and the Lie algebra of inner derivations,
the Kasymov trace form and semisimplicity, metric structure, the BLG gauge
algebra Inder(g) of a metric 3-Lie algebra with its two Chern-Simons forms
and their levels, subordinated algebras, Clifford (gamma-matrix)
realizations, and trace-extended matrix brackets.
`FilippovAlgebra` stores its constants as a `tensors.BracketTensor`, the one
storage of structure constants.

Every operator here -- an ad map, a representation matrix, a gamma matrix
and the brackets built from them -- is a sparse map {(row, column): nonzero
value} (see `linalg`), so "as matrices" means equal maps; the metric, the
Kasymov form and the gauge forms k1, k2 are bilinear forms and stay dense
lists of rows.

The Kasymov form is `lie.trace_form` and the metric invariance scan is
`lie.metric_scan`, the scans of the Killing form and its invariance.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import isqrt
from operator import mul

from . import linalg
from .lie import (LieAlgebra, MetricReport, check_jacobi, check_metric_invariance, metric_scan,
                  trace_form)
from .scalars import accumulate, common_denominator, is_zero
from .tensors import (AntisymTensor, BracketTensor, IdentityReport, fold_antisym, gen_kronecker,
                      perm_sign, shuffle_splits, sort_sign)


# ---------------------------------------------------------------------------
# the algebra container
# ---------------------------------------------------------------------------

class FilippovAlgebra(BracketTensor):
    """Arity-n algebra on 1..dim: the `BracketTensor` of f_{a_1..a_n}^b, read
    as `f` in the notation of the n-Lie literature."""

    kind = "filippov"

    @property
    def f(self):
        return self.c

    f_row = BracketTensor.row
    f_get = BracketTensor.get

    def bracket(self, vectors):
        """Bracket of dense coordinate vectors."""
        if len(vectors) != self.arity:
            raise ValueError("wrong number of arguments")
        out = [Fraction(0)] * self.dim
        for idx, row in self.f.items():
            coeff = _alternant(vectors, idx)
            if is_zero(coeff):
                continue
            for b, v in row.items():
                out[b - 1] += coeff * v
        return out

    def ad_matrix(self, labels):
        """(ad_{a_1..a_{n-1}})^l_b = f_{a_1..a_{n-1} b}^l as a sparse dim x dim
        matrix."""
        key, s = sort_sign(labels)
        if s == 0:
            return {}
        return {(l - 1, b - 1): s * v for b in range(1, self.dim + 1)
                for l, v in self.f_row(key + (b,)).items()}


def _alternant(vectors, idx):
    """det of the (coordinates of vectors at positions idx) minor."""
    n = len(vectors)
    sub = [[vectors[i][j - 1] for j in idx] for i in range(n)]
    return linalg.det(sub)


# ---------------------------------------------------------------------------
# the characteristic identity, three ways
# ---------------------------------------------------------------------------

def check_fi(fa: FilippovAlgebra, form: str = "derivation") -> IdentityReport:
    """Exact residual scan of the characteristic identity.

    form='derivation': f_{b..}^l f_{a.. l}^s = sum_k f_{a.. b_k}^l f_{b.. l@k ..}^s
    form='short':       f_{[a_1..a_n}^l f_{b_1] b_2..b_{n-1} l}^s = 0
    form='ghost':       the (n-1)!-weighted alternation over the first factor's
                        indices reproduces the nested product, the compact
                        anticommuting-variable version of the identity.
    All three agree in verdict on every tensor (the equivalence is itself a
    tested property).  Each form reads whole rows of the signed row table of
    D f (`BracketTensor.integer_scaled`), which sorts each index tuple once
    per call; both sides are quadratic in f, so the factor D^2 moves no zero
    and the witness is the one the scan finds on f itself.

    The ghost form is the derivation scan.
    Its right side sums sign(p) f_{b.. c_p1}^l f_{c_p2..c_pn l}^s over the n!
    arrangements p of c.  On an antisymmetric f, the (n-1)! arrangements
    with first slot c_k (k = 1..n) give one signed product each,
    (-1)^(k-1) f_{b.. c_k}^l f_{c without c_k, l}^s.  So the ghost identity
    (n-1)! lhs = (-1)^(n-1) rhs reads (n-1)! times
    f_{c..}^l f_{b.. l}^s = sum_k (-1)^(n-k) f_{b.. c_k}^l f_{c without c_k, l}^s,
    and (-1)^(n-k) is the sign that moves l from slot k of c to the end:
    this is the derivation form, term for term, times (n-1)!.  The first s
    where the two sides differ, and so the witness, is the same.

    The derivation and ghost forms return the one report of the derivation
    scan, memoized on fa under "fi" (`BracketTensor.memoized`), which
    `nary_cohomology.FAComplex.closed` reads too; the report is frozen, so no
    caller changes what the next one reads.  The short form, the independent
    scan, runs afresh on every call.
    """
    if form in ("derivation", "ghost"):
        return fa.memoized("fi", lambda: _fi_derivation(fa))
    if form == "short":
        return _fi_short(fa)
    raise ValueError(f"unknown FI form {form!r}")


# Each form sums its residual for one index pair at every s at once, as a
# sparse {s: int} map of whole signed rows of D f, so the least s of a
# nonzero residual is the witness a per-s scan finds.

def _accumulate(out, coeff, row):
    """out[s] += coeff * row[s] for every s of `row`, zeros dropped."""
    for s, w in row.items():
        accumulate(out, s, coeff * w)


def _fi_derivation(fa):
    # every term of a pair's residual reads the row at a + (x,) for some x,
    # and the terms of f_b also need b stored: so only the a below a stored
    # key are scanned, and of their b only those stored or holding such an x
    n, d = fa.arity, fa.dim
    scaled = fa.integer_scaled()[1]
    rows, stored = scaled.signed, scaled.c
    above = {}  # a -> the x with a + (x,) stored
    for key in stored:
        for k in range(n):
            above.setdefault(key[:k] + key[k + 1:], set()).add(key[k])
    every_b = list(combinations(range(1, d + 1), n))
    for a_idx, xs in sorted(above.items()):
        for b_idx in every_b:
            if b_idx not in stored and xs.isdisjoint(b_idx):
                continue
            res = {}  # left side minus right side
            for l, v in rows[b_idx].items():
                _accumulate(res, v, rows[a_idx + (l,)])
            for k in range(n):
                for l, v in rows[a_idx + (b_idx[k],)].items():
                    _accumulate(res, -v, rows[b_idx[:k] + (l,) + b_idx[k + 1:]])
            if res:
                return IdentityReport(False, (a_idx, b_idx, min(res)))
    return IdentityReport(True)


def _fi_short(fa):
    # antisymmetrize (a_1..a_n, b_1) jointly; b_2..b_{n-1} stay free
    n, d = fa.arity, fa.dim
    rows = fa.integer_scaled()[1].signed
    for u in combinations(range(1, d + 1), n + 1):
        splits = [(b1_blk, sign, rows[a_blk])
                  for (a_blk, b1_blk), sign in shuffle_splits(u, [n, 1])]
        for spect in combinations(range(1, d + 1), n - 2):
            tot = {}
            for b1_blk, sign, a_row in splits:
                for l, v in a_row.items():
                    _accumulate(tot, sign * v, rows[b1_blk + spect + (l,)])
            if tot:
                return IdentityReport(False, (u, spect, min(tot)))
    return IdentityReport(True)


FI_FORMS = ("derivation", "short", "ghost")


# ---------------------------------------------------------------------------
# simple algebras and the vector product
# ---------------------------------------------------------------------------

def simple_fa(n: int, signs) -> FilippovAlgebra:
    """The (n+1)-dimensional simple algebras:
    f_{a_1..a_n}^b = (-1)^n eps_b eps_{a_1..a_n b} with eps_{1..n+1} = +1."""
    signs = list(signs)
    if n < 2:
        raise ValueError(f"a simple algebra needs arity n >= 2, got {n}")
    if len(signs) != n + 1 or any(s not in (1, -1) for s in signs):
        raise ValueError("need n+1 signs of +-1")
    d = n + 1
    f = {}
    for idx in combinations(range(1, d + 1), n):
        b = next(x for x in range(1, d + 1) if x not in idx)
        v = Fraction((-1) ** n * signs[b - 1]) * gen_kronecker(tuple(range(1, d + 1)), idx + (b,))
        if v:
            f[idx] = {b: v}
    fa = FilippovAlgebra(n, d, f)
    if all(s == 1 for s in signs):
        fa.metric = linalg.identity(d)
    return fa


def vector_product(vectors):
    """Determinant-expansion product of n vectors in R^{n+1}: the first row
    holds the basis vectors, the rest the coordinates."""
    n = len(vectors)
    d = n + 1
    if any(len(v) != d for v in vectors):
        raise ValueError("vectors must live in n+1 dimensions")
    out = []
    for b in range(1, d + 1):
        minor = [[vec[j - 1] for j in range(1, d + 1) if j != b] for vec in vectors]
        out.append(Fraction((-1) ** (1 + b)) * linalg.det(minor))
    return out


# ---------------------------------------------------------------------------
# fundamental objects
# ---------------------------------------------------------------------------

def ad_of_sum(fa: FilippovAlgebra, s: AntisymTensor):
    return linalg.sp_sum((v, fa.ad_matrix(labels)) for labels, v in s.items())


def fundamental_compose(fa: FilippovAlgebra, x_labels, y_labels) -> AntisymTensor:
    """X . Y = sum_i (Y_1, .., [X, Y_i], .., Y_{n-1}) on basis labels, as a
    formal sum of fundamental objects: a rank-(n-1) tensor keyed by sorted,
    signed wedge labels."""
    raw = {}
    for i, y in enumerate(y_labels):
        for l, v in fa.f_row(tuple(x_labels) + (y,)).items():
            accumulate(raw, tuple(y_labels[:i]) + (l,) + tuple(y_labels[i + 1:]), v)
    return AntisymTensor(fa.arity - 1, fa.dim, raw)


def compose_matches_commutator(fa: FilippovAlgebra, x_labels, y_labels) -> bool:
    """ad_{X.Y} = [ad_X, ad_Y] as sparse matrices."""
    lhs = ad_of_sum(fa, fundamental_compose(fa, x_labels, y_labels))
    return lhs == linalg.sp_commutator(fa.ad_matrix(x_labels), fa.ad_matrix(y_labels))


# ---------------------------------------------------------------------------
# the Lie algebra of inner derivations
# ---------------------------------------------------------------------------

class InDerAlgebra:
    def __init__(self, fa, wedge_labels, basis_labels, basis_mats, lie, projection):
        self.fa = fa
        self.wedge_labels = wedge_labels  # all sorted (n-1)-tuples
        self.basis_labels = basis_labels  # subset whose ad matrices form a basis
        self.basis_mats = basis_mats
        self.lie = lie                    # structure constants of the span
        self.projection = projection      # wedge label -> coords in the basis


def _span_system(mats):
    """The system sum_k x_k mats[k] = M as {(i, j): {k: mats[k][i, j]}}, one
    sparse row per entry (i, j) that some matrix of mats holds."""
    rows = {}
    for k, m in enumerate(mats):
        for key, v in m.items():
            rows.setdefault(key, {})[k] = v
    return rows


def _coordinates(system, ncols, m):
    """The coordinates of the matrix m in the span of the ncols matrices of
    `_span_system`, or None when m lies outside it."""
    if any(key not in system for key in m):
        return None
    return linalg.solve(list(system.values()), ncols, [m.get(key, 0) for key in system])


def inder_lie_algebra(fa: FilippovAlgebra) -> InDerAlgebra:
    """Span of the inner-derivation matrices, with a deterministic basis
    (greedy in lexicographic wedge-label order), commutator closure, and the
    Lie structure constants of the span."""
    d = fa.dim
    labels = list(combinations(range(1, d + 1), fa.arity - 1))
    mats = [fa.ad_matrix(lab) for lab in labels]
    # the leading columns of the echelon basis are the first ad matrices
    # independent of those before them: the greedy basis
    leads = sorted(linalg.integer_echelon(_span_system(mats).values()))
    basis_labels = [labels[t] for t in leads]
    basis_mats = [mats[t] for t in leads]
    span = _span_system(basis_mats)

    def coords(m):
        return _coordinates(span, len(basis_mats), m)

    projection = {}
    for lab, m in zip(labels, mats):
        co = coords(m)
        if co is None:
            raise AssertionError("ad matrix escaped its own span")
        projection[lab] = co

    entries = []
    k = len(basis_labels)
    for i in range(k):
        for j in range(i + 1, k):
            co = coords(linalg.sp_commutator(basis_mats[i], basis_mats[j]))
            if co is None:
                raise AssertionError("inner derivations do not close")
            for t, v in enumerate(co):
                if v != 0:
                    entries.append(((i + 1, j + 1, t + 1), v))
    lie = LieAlgebra.from_entries(k, entries)
    rep = check_jacobi(lie)
    if not rep.ok:
        raise AssertionError(f"span constants fail the Jacobi identity at {rep.witness}")
    return InDerAlgebra(fa, labels, basis_labels, basis_mats, lie, projection)


def candidate_constants_antisymmetric(fa: FilippovAlgebra) -> bool:
    """For the simple algebras the unreduced bracket constants

        C_{a.. b..}^{c..} = f_{a..[b_1}^{[c_1} delta^{c_2}_{b_2]} ...

    are already antisymmetric under the (a..) <-> (b..) exchange; checked
    against the epsilon form that makes the property manifest.
    """
    n, d = fa.arity, fa.dim

    def cval(a, b, c):
        # antisymmetrize b-block against nested c-block deltas
        tot = Fraction(0)
        for pb in permutations(range(n - 1)):
            sb = perm_sign(pb)
            for pc in permutations(range(n - 1)):
                sc = perm_sign(pc)
                v = fa.f_get(a + (b[pb[0]],), c[pc[0]])
                if v == 0:
                    continue
                prod = v
                for t in range(1, n - 1):
                    if b[pb[t]] != c[pc[t]]:
                        prod = Fraction(0)
                        break
                tot += sb * sc * prod
        return tot

    for a in combinations(range(1, d + 1), n - 1):
        for b in combinations(range(1, d + 1), n - 1):
            for c in combinations(range(1, d + 1), n - 1):
                if cval(a, b, c) != -cval(b, a, c):
                    return False
    return True


def so_dual_generators(fa: FilippovAlgebra):
    """For the euclidean simple algebras: M~^{a b} = 1/(n-1)! eps^{a b c..}
    ad_{c..}; the 1/(n-1)! exactly cancels the sum over arrangements of the
    contracted block, so on sorted labels M~^{ab} = sum_rest sign * ad_rest.
    Returns the dict (a, b) -> matrix, a < b."""
    d = fa.dim
    top = tuple(range(1, d + 1))
    return {(a, b): linalg.sp_sum((gen_kronecker(top, (a, b) + rest), fa.ad_matrix(rest))
                                  for rest in combinations(top, d - 2))
            for a, b in combinations(top, 2)}


def orthogonal_relations_hold(fa: FilippovAlgebra) -> bool:
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
            return {}
        if a < b:
            return linalg.sp_scale(overall, mt[(a, b)])
        return linalg.sp_scale(-overall, mt[(b, a)])

    def delta(a, b):
        return int(a == b)

    for a1, a2 in combinations(range(1, d + 1), 2):
        for b1, b2 in combinations(range(1, d + 1), 2):
            lhs = linalg.sp_commutator(m(a1, a2), m(b1, b2))
            rhs = linalg.sp_sum([(-delta(a1, b2), m(a2, b1)), (-delta(a2, b1), m(a1, b2)),
                                 (delta(a1, b1), m(a2, b2)), (delta(a2, b2), m(a1, b1))])
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# Kasymov form and semisimplicity
# ---------------------------------------------------------------------------

def kasymov_form(fa: FilippovAlgebra):
    """(wedge labels, k): k(X, Y) = Tr(ad_X ad_Y) as a symmetric matrix over
    the sorted wedge labels, read off `lie.trace_form`."""
    return trace_form(fa)


def semisimplicity_check(fa: FilippovAlgebra) -> bool:
    """Kasymov's criterion: k(Z, G, .., G) = 0 for all fillers forces Z = 0,
    decided by the exact rank of the equations in the first slot, whose
    entries k((z,) + fill, Y) are signed reads of the Kasymov form."""
    d = fa.dim
    labels, k = kasymov_form(fa)
    at = {lab: i for i, lab in enumerate(labels)}
    rows = []
    for fill in combinations(range(1, d + 1), fa.arity - 2):
        slots = []  # (z, sign, the row of k at the label of (z,) + fill)
        for z in range(1, d + 1):
            key, s = sort_sign((z,) + fill)
            if s:
                slots.append((z, s, k[at[key]]))
        rows += ({z: s * k_x[y] for z, s, k_x in slots if k_x[y]} for y in range(len(labels)))
    return linalg.rank(rows) == d


def kasymov_bilinear_nondegenerate(fa: FilippovAlgebra) -> bool:
    """Naive non-degeneracy of k on the whole wedge space (fails already for
    direct sums of simple algebras, unlike the criterion above)."""
    return not is_zero(linalg.det(kasymov_form(fa)[1]))


# ---------------------------------------------------------------------------
# metric structure
# ---------------------------------------------------------------------------

def check_metric_fa(fa: FilippovAlgebra, g) -> MetricReport:
    """Invariance f_{a.. b}^l g_{lc} + f_{a.. c}^l g_{bl} = 0 for all slots,
    the first failing (a.., b, c) its witness (`lie.metric_scan`); builds
    the fully lowered constants, asserts their total antisymmetry, and
    verifies the equivalent fully-lowered form of the identity.  An
    invariant g on an algebra that fails the FI fails that form: the report
    is then not invariant, and its witness is the first failing (a.., b).
    A singular g is reported (nondegenerate False) and its invariance still
    checked; an asymmetric g raises ValueError."""
    d, n = fa.dim, fa.arity
    nondeg, wit = metric_scan(fa, g)
    if wit is not None:
        return MetricReport(False, nondeg, wit)

    lowered_raw = {}
    for idx, row in fa.f.items():
        for b, v in row.items():
            for c in range(1, d + 1):
                w = v * g[b - 1][c - 1]
                if w != 0:
                    key = idx + (c,)
                    lowered_raw[key] = lowered_raw.get(key, Fraction(0)) + w
    # a sum that cancels on a repeated index is the antisymmetric value
    ent, _ = fold_antisym({k: v for k, v in lowered_raw.items() if v or perm_sign(k)})
    if ent is None:
        raise AssertionError("lowered constants not antisymmetric")
    lowered = AntisymTensor(n + 1, d, ent)

    # fully lowered identity: sum_i f_{a..b_i}^l f_{b_1..l@i..b_{n+1}} = 0
    for a_idx in combinations(range(1, d + 1), n - 1):
        for b_idx in combinations(range(1, d + 1), n + 1):
            tot = Fraction(0)
            for i in range(n + 1):
                for l, v in fa.f_row(a_idx + (b_idx[i],)).items():
                    tot += v * lowered.get(b_idx[:i] + (l,) + b_idx[i + 1:])
            if tot != 0:  # g is invariant, but fa fails the FI
                return MetricReport(False, nondeg, (a_idx, b_idx))
    return MetricReport(True, nondeg, lowered=lowered)


# ---------------------------------------------------------------------------
# the BLG gauge algebra
# ---------------------------------------------------------------------------

class GaugeAlgebra:
    """Inder(g) with its two invariant forms, dense on `inder.basis_labels`."""

    def __init__(self, inder, k1, k2, ill_defined_at, k1_invariant, k2_invariant,
                 k2_signature, levels):
        self.inder = inder
        self.k1 = k1                          # Tr(ad_X ad_Y), the Kasymov form
        self.k2 = k2                          # k2(x^y, z^w) = <[x, y, z], w>
        self.ill_defined_at = ill_defined_at  # first wedge-label pair off the pull-back of k2
        self.k1_invariant, self.k2_invariant = k1_invariant, k2_invariant
        self.k2_signature = k2_signature
        self.levels = levels                  # rational eigenvalue of k1^-1 k2 -> its eigenspace


def gauge_algebra(fa: FilippovAlgebra, g) -> GaugeAlgebra:
    """The gauge algebra of the BLG model on a metric 3-Lie algebra: Inder(g)
    with the Chern-Simons forms k1 and k2 (Van Raamsdonk arXiv:0803.3803).

    k2 is read on the basis labels of Inder and compared with its value on
    every pair of wedge labels through `inder.projection`; they agree, as
    k2(X, z^w) = <ad_X z, w> reads X only through ad_X, and the scan proves
    it on the given constants.  When k1 is nondegenerate, J = k1^-1 k2
    is defined, and invariance of both forms gives k1 J ad_X = k2 ad_X =
    -ad_X^T k2 = -ad_X^T k1 J = k1 ad_X J, so J commutes with every ad.
    Each eigenspace of J is then an ideal, on which k2 = lambda k1: the
    rational eigenvalues lambda are the levels of the Chern-Simons terms,
    (k, -k) on Inder(A4) = su(2) + su(2).  An eigenvalue outside Q (so(3,1)
    of A13, simple over R) gives no level.  Raises ValueError on an arity
    other than 3 and on a metric that is not invariant or is singular."""
    if fa.arity != 3:
        raise ValueError(f"the gauge algebra is defined for 3-Lie algebras, not arity {fa.arity}")
    met = check_metric_fa(fa, g)
    if not met.invariant:
        raise ValueError(f"the metric is not invariant (at {met.witness})")
    if not met.nondegenerate:
        raise ValueError("the metric is singular")
    inder = inder_lie_algebra(fa)
    labels, kas = kasymov_form(fa)
    at = [labels.index(lab) for lab in inder.basis_labels]
    k1 = [[kas[i][j] for j in at] for i in at]
    k2 = [[met.lowered.get(x + y) for y in inder.basis_labels] for x in inder.basis_labels]
    pulled = {x: [sum(map(mul, row, inder.projection[x])) for row in k2] for x in labels}
    ill = next(((x, y) for x in labels for y in labels
                if met.lowered.get(x + y) != sum(map(mul, pulled[x], inder.projection[y]))),
               None)
    levels = None
    if not is_zero(linalg.det(k1)):
        j = _mat_mul(linalg.inverse(k1), k2)
        levels = {lam: _kernel([[v - lam * (r == c) for c, v in enumerate(row)]
                                for r, row in enumerate(j)])
                  for lam in _rational_roots(_minimal_polynomial(j))}
    return GaugeAlgebra(inder, k1, k2, ill,
                        check_metric_invariance(inder.lie, k1).invariant,
                        check_metric_invariance(inder.lie, k2).invariant,
                        linalg.signature(k2), levels)


def _mat_mul(a, b):
    return [[sum(map(mul, row, col)) for col in zip(*b)] for row in a]


def _minimal_polynomial(m):
    """[c_0, .., c_{k-1}] of the minimal polynomial x^k - sum c_i x^i of the
    square matrix m: the first power of m, the identity included, in the
    span of the powers before it (for the empty m, 1: [])."""
    powers, top = [], linalg.identity(len(m))
    while True:
        rows = [{t: p[i][j] for t, p in enumerate(powers) if p[i][j]}
                for i in range(len(m)) for j in range(len(m))]
        c = linalg.solve(rows, len(powers), [x for row in top for x in row])
        if c is not None:
            return c
        powers.append(top)
        top = _mat_mul(top, m)


def _rational_roots(c):
    """The rational roots, ascending, of x^k - sum c_i x^i: each is p/q with
    p dividing the lowest and q the leading integer coefficient."""
    den = common_denominator(c)
    a = [-int(v * den) for v in c] + [den]
    roots = set()
    while a[0] == 0:
        roots.add(Fraction(0))
        a = a[1:]
    for p in _divisors(a[0]):
        for q in _divisors(a[-1]):
            for x in (Fraction(p, q), Fraction(-p, q)):
                if sum(ai * x ** i for i, ai in enumerate(a)) == 0:
                    roots.add(x)
    return sorted(roots)


def _divisors(n):
    n = abs(n)
    small = [t for t in range(1, isqrt(n) + 1) if n % t == 0]
    return small + [n // t for t in small]


def _kernel(m):
    """A basis of the kernel of the dense square matrix m, read off its
    echelon basis: one vector for each non-pivot column f, with coordinate f
    set to 1 and every other non-pivot coordinate 0."""
    basis = linalg.echelon([{j: v for j, v in enumerate(row) if v} for row in m])
    out = []
    for f in range(len(m)):
        if f not in basis:
            x = [Fraction(0)] * len(m)
            x[f] = Fraction(1)
            for lead in sorted(basis, reverse=True):
                x[lead] = -sum((v * x[c] for c, v in basis[lead].items() if c > lead),
                               Fraction(0))
            out.append(x)
    return out


# ---------------------------------------------------------------------------
# subordinated algebras, direct sums, derivations
# ---------------------------------------------------------------------------

def subordinate(fa: FilippovAlgebra, a_vec) -> FilippovAlgebra:
    """Fix the first slot at the element `a_vec`: the (n-1)-bracket
    [X_1..X_{n-1}]' = [A, X_1, .., X_{n-1}] again satisfies the identity."""
    n, d = fa.arity, fa.dim
    f = {}
    for idx in combinations(range(1, d + 1), n - 1):
        row = {}
        for a in range(1, d + 1):
            c = a_vec[a - 1]
            if is_zero(c):
                continue
            for b, v in fa.f_row((a,) + idx).items():
                row[b] = row.get(b, Fraction(0)) + c * v
        row = {b: v for b, v in row.items() if v != 0}
        if row:
            f[idx] = row
    out = FilippovAlgebra(n - 1, d, f)
    rep = check_fi(out)
    if not rep.ok:
        raise AssertionError(f"subordinated bracket fails the identity at {rep.witness}")
    return out


def direct_sum(fa1: FilippovAlgebra, fa2: FilippovAlgebra) -> FilippovAlgebra:
    if fa1.arity != fa2.arity:
        raise ValueError("arity mismatch")
    f = {k: dict(v) for k, v in fa1.f.items()}
    off = fa1.dim
    for idx, row in fa2.f.items():
        f[tuple(i + off for i in idx)] = {b + off: v for b, v in row.items()}
    return FilippovAlgebra(fa1.arity, fa1.dim + fa2.dim, f)


def append_center(fa: FilippovAlgebra, extra=1) -> FilippovAlgebra:
    return FilippovAlgebra(fa.arity, fa.dim + extra, {k: dict(v) for k, v in fa.f.items()})


def derivation_space_dim(fa: FilippovAlgebra) -> int:
    """Dimension of all D in End(G) with D[X..] = sum_i [X.. D X_i ..]:
    d^2 minus the exact rank of the derivation equations in the D entries."""
    d, n = fa.dim, fa.arity

    def dslot(r_, c_):
        return (r_ - 1) * d + (c_ - 1)

    rows = []
    for idx in combinations(range(1, d + 1), n):
        for b in range(1, d + 1):
            row = {}
            for l, v in fa.f_row(idx).items():
                accumulate(row, dslot(b, l), v)
            for i in range(n):
                for l in range(1, d + 1):
                    accumulate(row, dslot(l, idx[i]), -fa.f_get(idx[:i] + (l,) + idx[i + 1:], b))
            rows.append(row)
    return d * d - linalg.rank(rows)


# ---------------------------------------------------------------------------
# representations in the fundamental-object sense
# ---------------------------------------------------------------------------

class FARepresentation:
    """rho: sorted wedge label -> sparse dim_v x dim_v matrix (see `linalg`),
    extended to unsorted labels with antisymmetry."""

    def __init__(self, mats, dim_v):
        self.mats, self.dim_v = mats, dim_v


def check_fa_representation(fa: FilippovAlgebra, rho: FARepresentation) -> bool:
    """Both defining conditions must hold as identities of sparse matrices:

      [rho(X), rho(Y)] = rho(X.Y)
      rho(X_1..X_{n-2}, [Y_1..Y_n]) =
          sum_i (-1)^{n-i} rho(Y_1..^i..Y_n) rho(X_1..X_{n-2} Y_i)
    """
    d, n = fa.dim, fa.arity
    labels = list(combinations(range(1, d + 1), n - 1))

    def rho_get(lab):
        key, s = sort_sign(lab)
        return linalg.sp_scale(s, rho.mats[key]) if s else {}

    for x in labels:
        for y in labels:
            lhs = linalg.sp_commutator(rho_get(x), rho_get(y))
            rhs = linalg.sp_sum((v, rho_get(lab))
                                for lab, v in fundamental_compose(fa, x, y).items())
            if lhs != rhs:
                return False

    for xs in combinations(range(1, d + 1), n - 2):
        for ys in combinations(range(1, d + 1), n):
            lhs = linalg.sp_sum((v, rho_get(xs + (l,))) for l, v in fa.f.get(ys, {}).items())
            rhs = linalg.sp_sum(
                ((-1) ** (n - i - 1), linalg.sp_mul(rho_get(ys[:i] + ys[i + 1:]),
                                                    rho_get(xs + (ys[i],))))
                for i in range(n))
            if lhs != rhs:
                return False
    return True


def adjoint_fa_representation(fa: FilippovAlgebra) -> FARepresentation:
    return FARepresentation({lab: fa.ad_matrix(lab)
                             for lab in combinations(range(1, fa.dim + 1), fa.arity - 1)},
                            fa.dim)


# ---------------------------------------------------------------------------
# Clifford realizations
# ---------------------------------------------------------------------------

def gamma_matrices(d_even: int):
    """Euclidean gamma matrices of even dimension with entries in {0, +-1,
    +-i}, built by the recursive sigma-block pattern; returns (gammas,
    chirality) with chirality^2 = 1.

    The construction and every check ({g_a, g_b} = 2 delta_ab, and the
    square of the chirality) run on the ℤ[i] kernel; the returned sparse
    matrices hold `GaussianRational` values and are 2^(d_even/2) square."""
    gam, size = _zi_gammas(d_even)
    return [linalg.zi_wrap(g) for g in gam], linalg.zi_wrap(_chirality(gam, size))


def _zi_gammas(d_even):
    """(gammas, size) of `gamma_matrices` as sparse ℤ[i] matrices, with
    {g_a, g_b} = 2 delta_ab checked once per unordered pair."""
    if d_even % 2 or d_even < 2:
        raise ValueError("need even dimension >= 2")
    s1 = {(0, 1): (1, 0), (1, 0): (1, 0)}
    s2 = {(0, 1): (0, -1), (1, 0): (0, 1)}
    gam = [s1, s2]
    size = 2
    while len(gam) < d_even:
        prev = gam
        chi = _chirality(prev, size)
        gam = [linalg.zi_kron(g, s1, 2) for g in prev]
        gam.append(linalg.zi_kron(chi, s1, 2))
        gam.append(linalg.zi_kron(linalg.zi_identity(size), s2, 2))
        size *= 2
    twice = {(i, i): (2, 0) for i in range(size)}
    for a in range(d_even):
        for b in range(a, d_even):
            if linalg.zi_anticommutator(gam[a], gam[b]) != (twice if a == b else {}):
                raise AssertionError(f"gammas {a} and {b} break the Clifford relation")
    return gam, size


def _chirality(gammas, size):
    """c * g_1..g_D with c in {1, -1, i, -i} chosen so the square is +1, on
    sparse ℤ[i] matrices of the given size."""
    prod = gammas[0]
    for g in gammas[1:]:
        prod = linalg.zi_mul(prod, g)
    sq = linalg.zi_mul(prod, prod)
    ident = linalg.zi_identity(size)
    if sq == ident:
        return prod
    if sq == linalg.zi_scale((-1, 0), ident):
        return linalg.zi_scale((0, 1), prod)
    raise AssertionError("chirality square is not +-1")


def anticommuting_brackets(mats, tuples, known=0):
    """{t: X_{t_1} .. X_{t_k}} over index tuples t into the sparse ℤ[i]
    matrices mats: the weight-one multibracket (1/k!) sum_sigma sign(sigma)
    X_{t_sigma(1)} .. X_{t_sigma(k)}, read through the anticommutation lemma.
    When X_1..X_k anticommute pairwise, reordering a product by sigma
    multiplies it by sign(sigma), so all k! terms of the sum equal
    X_1 .. X_k and the sum is k! X_1 .. X_k.  A tuple with a repeated index
    gives {}, since the bracket is alternating.

    The lemma is used only after its precondition is checked exactly:
    {X_i, X_j} = 0 for every pair i < j of mats with j >= known, the first
    `known` matrices being pairwise anticommuting already (the gammas, whose
    relations `_zi_gammas` checks); a pair that fails raises ValueError."""
    for j in range(known, len(mats)):
        for i in range(j):
            if linalg.zi_anticommutator(mats[i], mats[j]):
                raise ValueError(f"matrices {i} and {j} do not anticommute")
    out = {}
    for t in tuples:
        prod = {}
        if len(set(t)) == len(t):
            prod = mats[t[0]]
            for i in t[1:]:
                prod = linalg.zi_mul(prod, mats[i])
        out[t] = prod
    return out


class CliffordReport:
    def __init__(self, n, identity_ok, double_commutator_ok, induced, matches_simple):
        self.n, self.identity_ok = n, identity_ok
        self.double_commutator_ok = double_commutator_ok  # None unless n = 3
        self.induced, self.matches_simple = induced, matches_simple


def clifford_realization(n: int) -> CliffordReport:
    """Gamma-matrix realization of the euclidean simple algebras.

    n odd (3, 5): weight-one bracket [g_{a_1},..,g_{a_n}, top]' equals
    -eps_{a_1..a_{n+1}} g_{a_{n+1}} on D = n+1 gammas, top = g_1 .. g_D up to
    a phase.  n even (4): the D = n gammas plus the chirality obey
    [g^{A_1},..,g^{A_n}]' = eps^{A_1..A_{n+1}} g^{A_{n+1}}.  Either way the
    induced structure constants are compared entrywise against the
    determinant-product algebra of the same arity.

    Every matrix anticommutes with every other: distinct gammas by the
    Clifford relation, and the chirality or top with each gamma since D is
    even.  By the lemma of `anticommuting_brackets`, which checks exactly
    that {g_a, top} = 0, or {g_a, chirality} = 0, for every a before it is
    used, each weight-one bracket is the ordered product of its matrices:
    n - 1 ℤ[i] products, and one more for the top slot.  The expansion
    reads its coefficients by trace orthogonality Tr(g_a g_b) = size
    delta_ab on Gaussian integers; an imaginary coefficient fails the
    identity.
    """
    if not 3 <= n <= 5:
        raise ValueError("desk scale is 3 <= n <= 5")
    ref = simple_fa(n, [1] * (n + 1))
    d = n + n % 2
    gam, size = _zi_gammas(d)
    if n % 2:
        top = gam[0]
        for g in gam[1:]:
            top = linalg.zi_mul(top, g)
        mats, tail = gam + [top], (d,)
    else:
        mats, tail = gam + [_chirality(gam, size)], ()
    subsets = {idx: tuple(i - 1 for i in idx) + tail
               for idx in combinations(range(1, n + 2), n)}
    dc_tuples = list(product((d,), range(4), range(4), range(4))) if n == 3 else []
    table = anticommuting_brackets(mats, list(subsets.values()) + dc_tuples, known=d)
    phase = (1, 0)
    if n % 2:
        # the normalization of the top gamma is free; fix its phase (1 when
        # none fits) by the bracket identity itself on one probe tuple: the
        # bracket is linear in the top slot, so a phase scales the probe
        probe = table[subsets[tuple(range(1, n + 1))]]
        want = linalg.zi_scale((-1, 0), gam[d - 1])  # -eps_{1..d} g_d
        phase = next((p for p in ((1, 0), (-1, 0), (0, 1), (0, -1))
                      if linalg.zi_scale(p, probe) == want), phase)

    pr, pi = phase
    f = {}
    clean = True
    for idx, s in subsets.items():
        row = {}
        for b in range(1, n + 2):
            tr, ti = linalg.zi_trace(table[s], mats[b - 1])
            if tr * pi + ti * pr:
                clean = False
            re = tr * pr - ti * pi
            if re:
                row[b] = Fraction(re, size)
        if row:
            f[idx] = row
    induced = FilippovAlgebra(n, n + 1, f)
    # n odd: the gamma identity carries -eps = (-1)^n eps; n even: +eps.
    # simple_fa uses (-1)^n eps in both cases, so the two must coincide.
    matches = induced.arity == ref.arity and induced.dim == ref.dim and induced.f == ref.f

    dc = None
    if n == 3:
        # 6 [[g_a, g_b] top, g_c] = [top, g_a, g_b, g_c], the right side 4!
        # times its ordered product; both sides are linear in the top gamma,
        # so the plain product serves
        dc = all(linalg.zi_scale((6, 0), linalg.zi_commutator(
                     linalg.zi_mul(linalg.zi_commutator(gam[a], gam[b]), top), gam[c]))
                 == linalg.zi_scale((24, 0), table[d, a, b, c])
                 for _, a, b, c in dc_tuples)
    return CliffordReport(n, clean and matches, dc, induced, matches)


# ---------------------------------------------------------------------------
# trace-extended matrix brackets
# ---------------------------------------------------------------------------

def trace_extension_bracket(bracket_n1, traces, mats):
    """[A_1..A_n] = sum_i (-1)^{i-1} <A_i> [A_1..^i..A_n] given an
    (n-1)-bracket and a linear `traces` functional."""
    terms = []
    for i, a in enumerate(mats):
        t = traces(a)
        if not is_zero(t):
            terms.append(((-1) ** i * t, bracket_n1([m for q, m in enumerate(mats) if q != i])))
    return linalg.sp_sum(terms)


def trace_extension_structure(bracket_n, basis) -> FilippovAlgebra:
    """Expand an antisymmetric matrix n-bracket over the given matrix basis
    into structure constants and validate the characteristic identity: a
    bracket that leaves the span, or whose constants fail `check_fi`, raises
    ValueError (the latter with the witness)."""
    d = len(basis)
    span = _span_system(basis)
    n = getattr(bracket_n, "arity")
    f = {}
    for idx in combinations(range(1, d + 1), n):
        co = _coordinates(span, d, bracket_n([basis[i - 1] for i in idx]))
        if co is None:
            raise ValueError("bracket leaves the span of the basis")
        row = {b + 1: co[b] for b in range(d) if co[b] != 0}
        if row:
            f[idx] = row
    fa = FilippovAlgebra(n, d, f)
    rep = check_fi(fa)
    if not rep.ok:
        raise ValueError(f"the bracket fails the Filippov identity at {rep.witness}")
    return fa
