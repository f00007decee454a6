"""Filippov (n-Lie) algebras: validation of the characteristic identity in
its derivation, short and ghost forms, the simple algebras, fundamental
objects, metric structure, representations and Clifford (gamma-matrix)
realizations.  The vector product, the Lie algebra of inner derivations,
the Kasymov form and semisimplicity, the BLG gauge algebra, subordinated
algebras, derivations and trace-extended brackets are in `claims`.
`FilippovAlgebra` stores its constants as a `tensors.BracketTensor`, the one
storage of structure constants.

Every operator here -- an ad map, a representation matrix, a gamma matrix
and the brackets built from them -- is a sparse map {(row, column): nonzero
value} (see `linalg`), so "as matrices" means equal maps; the metric is a
bilinear form and stays a dense list of rows.

The metric invariance scan is `lie.metric_scan`, the scan of the Killing
form's invariance; `lowered_form` builds an invariant metric's (n+1)-form.

Every check here -- the three forms of the identity, metric invariance and
the representation conditions -- returns the package's one verdict type,
`tensors.IdentityReport`, and `clifford_realization` returns its induced
algebra beside one.  The double-commutator identity of the n = 3
realization is `claims.clifford_double_commutator`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from . import linalg
from .lie import metric_scan
from .scalars import accumulate, is_zero
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


# ---------------------------------------------------------------------------
# fundamental objects
# ---------------------------------------------------------------------------


def fundamental_compose(fa: FilippovAlgebra, x_labels, y_labels) -> AntisymTensor:
    """X . Y = sum_i (Y_1, .., [X, Y_i], .., Y_{n-1}) on basis labels, as a
    formal sum of fundamental objects: a rank-(n-1) tensor keyed by sorted,
    signed wedge labels."""
    raw = {}
    for i, y in enumerate(y_labels):
        for l, v in fa.f_row(tuple(x_labels) + (y,)).items():
            accumulate(raw, tuple(y_labels[:i]) + (l,) + tuple(y_labels[i + 1:]), v)
    return AntisymTensor(fa.arity - 1, fa.dim, raw)


# ---------------------------------------------------------------------------
# metric structure
# ---------------------------------------------------------------------------

def lowered_form(fa: FilippovAlgebra, g) -> AntisymTensor:
    """The fully lowered constants f_{a_1..a_n c} = f_{a_1..a_n}^b g_{bc},
    the (n+1)-form of an invariant metric g; raises ValueError when they
    are not totally antisymmetric, which invariance of g rules out."""
    d = fa.dim
    raw = {}
    for idx, row in fa.f.items():
        for b, v in row.items():
            for c in range(1, d + 1):
                w = v * g[b - 1][c - 1]
                if w != 0:
                    key = idx + (c,)
                    raw[key] = raw.get(key, Fraction(0)) + w
    # a sum that cancels on a repeated index is the antisymmetric value
    ent, _ = fold_antisym({k: v for k, v in raw.items() if v or perm_sign(k)})
    if ent is None:
        raise ValueError("lowered constants not antisymmetric: the metric is not invariant")
    return AntisymTensor(fa.arity + 1, d, ent)


def check_metric_fa(fa: FilippovAlgebra, g) -> IdentityReport:
    """Invariance f_{a.. b}^l g_{lc} + f_{a.. c}^l g_{bl} = 0 for all slots,
    the first failing (a.., b, c) its witness (`lie.metric_scan`); then the
    equivalent identity on the `lowered_form` of g.  An invariant g on an
    algebra that fails the FI fails that form: the report is then not
    invariant, and its witness is the first failing (a.., b).  A singular
    g is checked like any other (nondegeneracy is `linalg.nondegenerate`);
    an asymmetric g raises ValueError."""
    d, n = fa.dim, fa.arity
    rep = metric_scan(fa, g)
    if not rep.ok:
        return rep
    lowered = lowered_form(fa, g)
    # fully lowered identity: sum_i f_{a..b_i}^l f_{b_1..l@i..b_{n+1}} = 0
    for a_idx in combinations(range(1, d + 1), n - 1):
        for b_idx in combinations(range(1, d + 1), n + 1):
            tot = Fraction(0)
            for i in range(n + 1):
                for l, v in fa.f_row(a_idx + (b_idx[i],)).items():
                    tot += v * lowered.get(b_idx[:i] + (l,) + b_idx[i + 1:])
            if tot != 0:  # g is invariant, but fa fails the FI
                return IdentityReport(False, (a_idx, b_idx))
    return rep


# ---------------------------------------------------------------------------
# representations in the fundamental-object sense
# ---------------------------------------------------------------------------

class FARepresentation:
    """rho: sorted wedge label -> sparse dim_v x dim_v matrix (see `linalg`),
    extended to unsorted labels with antisymmetry."""

    def __init__(self, mats, dim_v):
        self.mats, self.dim_v = mats, dim_v


def check_fa_representation(fa: FilippovAlgebra, rho: FARepresentation) -> IdentityReport:
    """Both defining conditions must hold as identities of sparse matrices:

      [rho(X), rho(Y)] = rho(X.Y)
      rho(X_1..X_{n-2}, [Y_1..Y_n]) =
          sum_i (-1)^{n-i} rho(Y_1..^i..Y_n) rho(X_1..X_{n-2} Y_i)

    The witness is the first failing pair: (X, Y) of the first condition,
    else (X_1..X_{n-2}, Y_1..Y_n) of the second."""
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
                return IdentityReport(False, (x, y))

    for xs in combinations(range(1, d + 1), n - 2):
        for ys in combinations(range(1, d + 1), n):
            lhs = linalg.sp_sum((v, rho_get(xs + (l,))) for l, v in fa.f.get(ys, {}).items())
            rhs = linalg.sp_sum(
                ((-1) ** (n - i - 1), linalg.sp_mul(rho_get(ys[:i] + ys[i + 1:]),
                                                    rho_get(xs + (ys[i],))))
                for i in range(n))
            if lhs != rhs:
                return IdentityReport(False, (xs, ys))
    return IdentityReport(True)


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


def clifford_realization(n: int):
    """(induced, report): the Filippov algebra of the gamma-matrix
    realization of the euclidean simple algebras, and the verdict that the
    realization holds and induces `simple_fa(n, [1] * (n + 1))`.

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
    table = anticommuting_brackets(mats, list(subsets.values()), known=d)
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
    return induced, IdentityReport(clean and induced.f == ref.f)
