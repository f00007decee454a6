"""The paper's checkable statements that no command, catalog entry or
benchmark job runs: each function here states or builds one claim, and the
tests pin its verdict.

Nothing in the package imports this module, so `import naryalg`, the
command line and the catalog compile none of it; load it with
`import naryalg.claims`.  Every definition lives here alone, built on the
public layers it imports (and a few of their private table helpers).

Sections follow the paper:

  Lie algebras     -- the invariant-polynomial <-> cocycle bridge, the
                      Casimir homotopy behind Whitehead's lemma, central
                      extensions and deformations with their obstructions
  generalized Lie  -- multibrackets, the even-bracket resolution, the
                      coderivation and higher exterior derivative, and the
                      nilpotency of the complete BRST operator
  Filippov         -- the vector product, fundamental objects, the Lie
                      algebra of inner derivations and its so(n+1)
                      relations, Kasymov's semisimplicity criterion,
                      subordinated algebras, derivations, trace extensions,
                      the double commutator of the Clifford realization
  FA cohomology    -- the homology dual to the trivial complex, central
                      extensions, deformation obstructions, and the binary
                      Leibniz extension
  Poisson          -- the graded Jacobi identity of the Schouten bracket,
                      brackets of functions, Jacobian (Nambu) brackets and
                      the block-Jacobian realization of nhw
  metric 3-Lie     -- the BLG gauge algebra Inder(g) with its Chern-Simons
                      forms and their levels

The Levi-Civita tensor and the exact ray comparison that the statements
"equal up to a factor" read come first.

Every element of the exterior algebra of the generalized Lie section is
homogeneous and is a `tensors.AntisymTensor` of known degree: a ghost
monomial and its images under the ghost operators, the image of a
coderivation, and a scalar cochain of the higher exterior derivative.
Their product is the one shuffle wedge, `tensors.wedge`.

Matrix multibrackets take and return the sparse operator matrices of
`linalg` and run on its ℤ[i] kernel: `multibracket` scales every value by
the common denominator D of all real and imaginary parts, runs its subset
programme on int (re, im) pairs, and divides by D^n once.  Its values are
`GaussianRational` when some input value is, else `Fraction`.  These
brackets assume nothing about how their matrices commute.

The Kasymov form is `lie.trace_form`, the scan of the Killing form one
arity up.  It and the gauge forms k1, k2 are bilinear forms and stay dense
lists of rows; every operator is a sparse map of `linalg`.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import factorial, isqrt
from operator import mul

from . import linalg
from .cohomology import CEComplex, Cochain, _matrix_rows, apply, basis_tuples, coboundary, preimage
from .filippov import (FilippovAlgebra, _zi_gammas, anticommuting_brackets, check_fi,
                       check_metric_fa, lowered_form)
from .gla import GLAlgebra, gla_from_cocycle
from .lie import (LieAlgebra, Representation, SymInvariantPoly, _n_arrangements, _poly_table,
                  check_invariance, check_jacobi, check_metric_invariance,
                  cocycle_condition_residual, fundamental_compose, inverse_killing_form,
                  killing_form, trace_form)
from .nary_cohomology import (FAComplex, LeibnizAlgebra, LeibnizComplex, NCochain, _flat,
                              _vectors, coboundary_at, deformation_preimage, fa_coboundary_trivial,
                              fa_coboundary_deformation, fundamental_tables)
from .poisson import gps_check, np_check, schouten_bracket
from .poly import Poly
from .scalars import GaussianRational, accumulate, common_denominator, is_zero, scaled_to_ints
from .tensors import (AntisymTensor, IdentityReport, gen_kronecker, merge_sign, perm_sign,
                      shuffle_splits, sort_blocks, sort_sign, wedge)


# ===========================================================================
# Antisymmetric tensors
# ===========================================================================


# ---------------------------------------------------------------------------
# the Levi-Civita tensor and proportional maps
# ---------------------------------------------------------------------------

def levi_civita(dim) -> AntisymTensor:
    """epsilon_{1...d} = +1."""
    return AntisymTensor(dim, dim, {tuple(range(1, dim + 1)): Fraction(1)})


def ray_equal(a: dict, b: dict) -> bool:
    """Exact proportionality of two sparse maps by a nonzero scalar."""
    if not a or not b:
        return not a and not b
    if set(a) != set(b):
        return False
    k0 = next(iter(a))
    va, vb = a[k0], b[k0]
    # cross-multiplied comparison avoids choosing which side to divide
    return all(a[k] * vb == b[k] * va for k in a)


# ===========================================================================
# Lie algebras, their invariant polynomials and their cohomology
# ===========================================================================


# ---------------------------------------------------------------------------
# matrix identities
# ---------------------------------------------------------------------------

def associator_check(mats) -> bool:
    """The alternated associator of any three matrices equals
    [[A,B],C] + [[B,C],A] + [[C,A],B] and both vanish (associativity)."""
    mul, com = linalg.sp_mul, linalg.sp_commutator

    def assoc(a, b, c):
        return linalg.sp_sum([(1, mul(mul(a, b), c)), (-1, mul(a, mul(b, c)))])
    for a in mats:
        for b in mats:
            for c in mats:
                alt = linalg.sp_sum((s, assoc(x, y, z)) for s, (x, y, z) in [
                    (1, (a, b, c)), (1, (b, c, a)), (1, (c, a, b)),
                    (-1, (b, a, c)), (-1, (a, c, b)), (-1, (c, b, a))])
                cyc = linalg.sp_sum((1, com(com(x, y), z))
                                    for x, y, z in [(a, b, c), (b, c, a), (c, a, b)])
                if alt != cyc or cyc:
                    return False
    return True


# ---------------------------------------------------------------------------
# symmetric invariant polynomials and the cocycle bridge
# ---------------------------------------------------------------------------

def symmetrized_product(k1: SymInvariantPoly, k2: SymInvariantPoly) -> SymInvariantPoly:
    """Weight-one symmetrized product k_( .. k'_.. ): the standard source of
    non-primitive invariants (e.g. delta-delta)."""
    if k1.dim != k2.dim:
        raise ValueError("dimension mismatch")
    m = k1.order + k2.order
    fact = factorial(m)
    terms = {}
    for idx in combinations_with_replacement(range(1, k1.dim + 1), m):
        mult = fact // _n_arrangements(idx)
        tot = Fraction(0)
        for p in set(permutations(idx)):
            tot += k1.get(p[:k1.order]) * k2.get(p[k1.order:])
        v = tot * mult / fact
        if v != 0:
            terms[idx] = v
    return SymInvariantPoly(m, k1.dim, terms)


def invariance_condition_residual(alg: LieAlgebra, omega: AntisymTensor):
    """First violation of sum_s C_{i j_s}^k Omega_{j_1.. k ..j_p} = 0, or None.

    The residual is scattered from Omega's nonzero entries: one whose slot
    s holds k adds, for every (i, j) with C_{ij}^k != 0, sign * C_{ij}^k
    Omega at (i, its key with slot s set to j, sign-sorted).  The least
    nonzero (i, idx) is the first a scan over i and the sorted p-tuples
    reaches."""
    into = {}  # k -> [(i, j, D C_{ij}^k)]
    for (a, b), row in alg.integer_scaled()[1].c.items():
        for kk, v in row.items():
            into.setdefault(kk, []).extend(((a, b, v), (b, a, -v)))
    dw = common_denominator(omega.entries.values())
    res = {}
    for key, w in scaled_to_ints(omega.entries, dw).items():
        for s, kk in enumerate(key):
            rest = key[:s] + key[s + 1:]
            for i, j, v in into.get(kk, ()):
                pj = bisect_left(rest, j)
                if rest[pj:pj + 1] == (j,):
                    continue
                # j moves from slot s to slot pj of the sorted key
                accumulate(res, (i, rest[:pj] + (j,) + rest[pj:]),
                           -v * w if (s - pj) & 1 else v * w)
    return min(res) if res else None


def invariant_poly_from_cocycle(alg: LieAlgebra, omega: AntisymTensor) -> SymInvariantPoly:
    """Order-m symmetric invariant from a (2m-1)-cocycle:

        t^{i_1..i_m} = Omega^{j_1..j_{2m-2} i_m}
                       C^{i_1}_{j_1 j_2} .. C^{i_{m-1}}_{j_{2m-3} j_{2m-2}}

    All Omega indices are raised with the inverse Killing form (which must
    exist).  The result is reported with its indices lowered again by the
    Killing form: that representative lives on the same ray, is the one the
    lower-index invariance condition applies to, and for a scalar metric the
    two differ only by an overall factor.
    """
    if cocycle_condition_residual(alg, omega) is not None:
        raise ValueError("input is not a cocycle")
    r = alg.dim
    m = (omega.rank + 1) // 2
    kf, kinv = killing_form(alg), inverse_killing_form(alg)

    # raise every index of Omega
    up_raw = {}
    for key, v in omega.entries.items():
        expansions = [((), v)]
        for l in key:
            expansions = [(seq + (u,), w * kinv[u - 1][l - 1])
                          for seq, w in expansions
                          for u in range(1, r + 1) if kinv[u - 1][l - 1] != 0]
        for seq, w in expansions:
            accumulate(up_raw, seq, w)
    omega_up = AntisymTensor(omega.rank, r, up_raw)

    dense = {}
    for skey, v in omega_up.entries.items():
        # choose the slot playing i_m, shuffle the rest into C-pairs
        for pos in range(len(skey)):
            last = skey[pos]
            rest = skey[:pos] + skey[pos + 1:]
            move_sign = (-1) ** (len(skey) - 1 - pos)
            for blocks, sign in shuffle_splits(rest, [2] * (m - 1)):
                partial = [((), Fraction(1))]
                for pair in blocks:
                    row = alg.c.get(pair)
                    if not row:
                        partial = []
                        break
                    partial = [(seq + (u,), c * w) for seq, c in partial
                               for u, w in row.items()]
                for seq, c in partial:
                    accumulate(dense, seq + (last,), move_sign * sign * v * c)

    # `dense` carries t-up on every ordered index tuple; confirm symmetry
    sym_check = {}
    for key, v in dense.items():
        skey = tuple(sorted(key))
        if sym_check.setdefault(skey, v) != v:
            raise ArithmeticError(f"output not symmetric at {key}")

    # lower every index with the Killing form, summing over the full dense map
    low = {}
    for key, v in dense.items():
        expansions = [((), v)]
        for u in key:
            expansions = [(seq + (i,), w * kf[i - 1][u - 1])
                          for seq, w in expansions
                          for i in range(1, r + 1) if kf[i - 1][u - 1] != 0]
        for seq, w in expansions:
            accumulate(low, seq, w)
    terms = {}
    for key, v in low.items():
        skey = tuple(sorted(key))
        if terms.setdefault(skey, v) != v:
            raise ArithmeticError(f"lowered output not symmetric at {key}")
    poly = SymInvariantPoly(m, r, terms)
    if not check_invariance(alg, poly).ok:
        raise ArithmeticError("output polynomial fails invariance")
    return poly


def _matching_sum(c, memo, s):
    """{sorted l-tuple: sum over the perfect matchings of the sorted tuple s
    of sign * prod C^{l_a}_{pair_a}}, C read from the table c, expanded
    along s's first index as a Pfaffian; memo holds every tuple done."""
    got = memo.get(s)
    if got is None:
        got = {}
        for j in range(1, len(s)):
            row = c.get((s[0], s[j]))
            if not row:
                continue
            sub = _matching_sum(c, memo, s[1:j] + s[j + 1:])
            for tail, w in sub.items():
                w = -w if (j - 1) & 1 else w
                for l, v in row.items():
                    pl = bisect_left(tail, l)
                    accumulate(got, tail[:pl] + (l,) + tail[pl:], v * w)
        memo[s] = got
    return got


def check_poly_vanishing_identity(alg: LieAlgebra, k: SymInvariantPoly) -> bool:
    """eps^{j_1..j_{2m}}_{i..} C^{l_1}_{j_1 j_2} .. C^{l_m}_{j_{2m-1} j_{2m}}
    k_{l_1..l_m} = 0: total antisymmetrization over 2m indices of the m-fold
    C-product contracted with an invariant k.

    The m! orderings of a pair matching give equal terms, so each sorted
    2m-tuple sums its matchings once, expanded along its first index: the
    first pair's row of D C against the tail table of D' k, at the sorted
    l-tuples of the matchings of the rest (`_matching_sum`)."""
    m = k.order
    r = alg.dim
    if 2 * m > r:
        return True  # epsilon over more indices than the dimension
    c = alg.integer_scaled()[1].c
    table = _poly_table(k)[1]
    memo = {(): {(): 1}}
    for idx in combinations(range(1, r + 1), 2 * m):
        tot = 0
        for j in range(1, 2 * m):
            row = c.get((idx[0], idx[j]))
            if not row:
                continue
            sign = -1 if (j - 1) & 1 else 1
            for tail, w in _matching_sum(c, memo, idx[1:j] + idx[j + 1:]).items():
                k_row = table.get(tail)
                if k_row:
                    tot += sign * w * sum(v * k_row[l] for l, v in row.items() if l in k_row)
        if tot:
            return False
    return True


# ---------------------------------------------------------------------------
# Whitehead's lemma: the Casimir homotopy operator
# ---------------------------------------------------------------------------

def quadratic_casimir(alg: LieAlgebra, rho: Representation):
    """I_2(rho) = k^{ij} rho_i rho_j as a sparse matrix; raises through the
    inverse Killing form."""
    kinv = inverse_killing_form(alg)
    mats = [rho.mats[(i,)] for i in range(1, alg.dim + 1)]
    return linalg.sp_sum((kinv[i][j], linalg.sp_mul(mats[i], mats[j]))
                         for i in range(alg.dim) for j in range(alg.dim) if kinv[i][j] != 0)


def homotopy_contraction(alg: LieAlgebra, rho, om: Cochain) -> Cochain:
    """(tau Om)^A_{i_1..i_{p-1}} = k^{ij} rho(X_i)^A_B Om^B_{j i_1..i_{p-1}}."""
    kinv = inverse_killing_form(alg)
    rows = [_matrix_rows(rho.mats[(i,)]) for i in range(1, alg.dim + 1)]
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
    entries = [((i, j, k), v) for (i, j), row in alg.c.items() for k, v in row.items()]
    entries += [((i, j, r + 1), v) for (_, (i, j)), v in om2.data.items()]
    ext = LieAlgebra.from_entries(r + 1, entries)
    rep = check_jacobi(ext)
    if not rep.ok:
        raise AssertionError(f"extension failed the Jacobi identity at {rep.witness}")
    return ext


# ---------------------------------------------------------------------------
# deformations
# ---------------------------------------------------------------------------

class DeformationReport:
    def __init__(self, is_cocycle, is_coboundary, obstruction, obstruction_is_cocycle,
                 obstruction_is_coboundary, obstruction_potential):
        self.is_cocycle, self.is_coboundary = is_cocycle, is_coboundary
        self.obstruction = obstruction  # the Cochain gamma, or None
        self.obstruction_is_cocycle = obstruction_is_cocycle
        self.obstruction_is_coboundary = obstruction_is_coboundary
        self.obstruction_potential = obstruction_potential  # a Cochain, or None


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

    is_cob = _coboundary_preimage(alg, rho, alpha) is not None

    r = alg.dim
    gamma = Cochain(3, r, r, {(a, idx): v for idx in basis_tuples(r, 3)
                              for a, v in enumerate(_alpha_nested_cyclic(alg, alpha, idx), 1)})
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


def _coboundary_preimage(alg, rho, om):
    """Exact solve s(beta) = om over the (p-1)-cochain coordinates."""
    cx, p = CEComplex(alg, rho, om.dim_v), om.rank - 1
    sol = preimage(cx, p, om.data)
    return None if sol is None else Cochain(p, om.dim, om.dim_v, dict(zip(cx.coords(p), sol)))


def mc_cochain(alg: LieAlgebra) -> Cochain:
    """The algebra-valued identity 1-cochain omega(X_i) = X_i."""
    data = {(a, (a,)): Fraction(1) for a in range(1, alg.dim + 1)}
    return Cochain(1, alg.dim, alg.dim, data)


# ===========================================================================
# Generalized Lie algebras: multibrackets, coderivations and BRST
# ===========================================================================


# ---------------------------------------------------------------------------
# matrix multibrackets
# ---------------------------------------------------------------------------

def multibracket(mats):
    """Weight-free antisymmetrized product sum_sigma sign X_s1 .. X_sn, by
    the subset dynamic programme: the first-slot expansion of the bracket of
    every subset of the matrices, filled one size at a time from the size
    below, up to n 2^(n-1) products instead of n!.  It runs on the ℤ[i]
    kernel: every value is scaled once by D, the common denominator of all
    real and imaginary parts, to an int pair (re, im), and the bracket is
    divided by D^n at the end.  Its values are `GaussianRational` when some
    input value is one, else `Fraction`."""
    if not mats:
        raise ValueError("empty multibracket")
    gaussian = any(isinstance(v, GaussianRational) for m in mats for v in m.values())
    parts = []
    for m in mats:
        for v in m.values():
            if isinstance(v, GaussianRational):
                parts += (v.re, v.im)
            else:
                parts.append(v)
    scale = common_denominator(parts)

    def scaled(x):
        return x.numerator * (scale // x.denominator)

    zi = [{key: (scaled(v.re), scaled(v.im)) if isinstance(v, GaussianRational)
           else (scaled(v), 0) for key, v in m.items()} for m in mats]
    n = len(mats)
    table = {(i,): m for i, m in enumerate(zi)}
    for k in range(2, n + 1):
        table = {s: linalg.zi_sum(((-1) ** pos, linalg.zi_mul(zi[i], table[s[:pos] + s[pos + 1:]]))
                                  for pos, i in enumerate(s))
                 for s in combinations(range(n), k)}
    (whole,) = table.values()
    denom = scale ** n
    if gaussian:
        return linalg.zi_wrap(whole, Fraction(1, denom))
    return {key: Fraction(re, denom) for key, (re, _) in whole.items()}


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

    def product(pairs):
        prod = None
        for i, j in pairs:
            cm = linalg.sp_commutator(mats[i], mats[j])
            prod = cm if prod is None else linalg.sp_mul(prod, cm)
        return prod

    terms = expand(list(range(n)))
    acc = linalg.sp_sum((sign, product(pairs)) for sign, pairs in terms)
    if acc != multibracket(mats):
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
    terms = []
    for aidx in combinations(range(total), n):
        rest = [i for i in range(total) if i not in aidx]
        inner = multibracket([mats[i] for i in aidx])
        terms.append((merge_sign(aidx, tuple(rest)),
                      multibracket([inner] + [mats[i] for i in rest])))
    return linalg.sp_sum(terms), linalg.sp_scale(n, multibracket(mats))


# ---------------------------------------------------------------------------
# exterior algebra: multivectors and coderivations
# ---------------------------------------------------------------------------

def coderivation_apply(g: GLAlgebra, monomial, dim=None) -> AntisymTensor:
    """partial_s on a wedge monomial (tuple of q generator labels):

        sum over s-subsets A: sign(A, rest) [X_A] wedge X_rest

    which realizes the epsilon definition with its 1/s!(q-s)! weights; the
    image has degree q - s + 1 and is empty when q < s.
    """
    dim = dim if dim is not None else g.dim
    key, sgn = sort_sign(monomial)
    s = g.arity
    raw = {}
    if sgn and len(key) >= s:
        for (a, rest), sign in shuffle_splits(key, [s, len(key) - s]):
            for j, v in g.c.get(a, {}).items():
                accumulate(raw, (j,) + rest, sgn * sign * v)
    return AntisymTensor(len(key) - s + 1, dim, raw)


def coderivation_on_multivector(g: GLAlgebra, mv: AntisymTensor) -> AntisymTensor:
    raw = {}
    for idx, v in mv.items():
        for idx2, w in coderivation_apply(g, idx, mv.dim).items():
            accumulate(raw, idx2, v * w)
    return AntisymTensor(mv.rank - g.arity + 1, mv.dim, raw)


def coderivation_nilpotency(g: GLAlgebra, q_max=None) -> bool:
    """partial_s^2 = 0 on every basis monomial up to degree q_max."""
    q_max = q_max if q_max is not None else g.dim
    for q in range(g.arity, q_max + 1):
        for mono in combinations(range(1, g.dim + 1), q):
            once = coderivation_apply(g, mono)
            twice = coderivation_on_multivector(g, once)
            if not twice.is_zero():
                return False
    return True


# ---------------------------------------------------------------------------
# higher exterior derivative on scalar cochains
# ---------------------------------------------------------------------------

def higher_exterior_derivative(g: GLAlgebra, alpha: AntisymTensor) -> AntisymTensor:
    """(d~ alpha)_{i_1..i_{q+n-1}} = sum over (n, q-1) splits:
    sign * C_A^rho alpha_{rho B}; the shuffle realization of the epsilon form
    with its 1/(n)! 1/(q-1)! weights (n = arity = 2m-2)."""
    n = g.arity
    q = alpha.rank
    r = g.dim
    out_rank = q + n - 1
    ent = {}
    if out_rank > r:
        return AntisymTensor(out_rank, r, {})
    for m in combinations(range(1, r + 1), out_rank):
        tot = Fraction(0)
        for (a, b), sign in shuffle_splits(m, [n, q - 1]):
            for rho, v in g.c.get(a, {}).items():
                tot += sign * v * alpha.get((rho,) + b)
        if tot != 0:
            ent[m] = tot
    return AntisymTensor(out_rank, r, ent)


def basis_one_form(r, sigma) -> AntisymTensor:
    return AntisymTensor(1, r, {(sigma,): Fraction(1)})


def leibniz_rule_holds(g: GLAlgebra, a: AntisymTensor, b: AntisymTensor) -> bool:
    """d~(a ^ b) = d~a ^ b + (-1)^p a ^ d~b."""
    left = higher_exterior_derivative(g, wedge(a, b))
    right = wedge(higher_exterior_derivative(g, a), b) \
        + wedge(a, higher_exterior_derivative(g, b)).scale(Fraction((-1) ** a.rank))
    return left == right


def derivative_squared_vanishes(g: GLAlgebra, alpha: AntisymTensor) -> bool:
    return higher_exterior_derivative(g, higher_exterior_derivative(g, alpha)).is_zero()


def evaluate_cochain(alpha: AntisymTensor, monomial) -> Fraction:
    """alpha(X_{m_1} ^ .. ^ X_{m_q}) = q! alpha_{m_1..m_q} (weight-free wedge
    of vectors against the coordinate normalization)."""
    return factorial(alpha.rank) * alpha.get(monomial)


def duality_factor_holds(g: GLAlgebra, alpha: AntisymTensor, monomial) -> bool:
    """(d~ alpha)(monomial) = (p + n - 1)!/p! * alpha(partial monomial),
    the stated pairing between the derivative and the coderivation."""
    p = alpha.rank
    n = g.arity
    lhs = evaluate_cochain(higher_exterior_derivative(g, alpha), monomial)
    rhs = Fraction(0)
    for idx, v in coderivation_apply(g, monomial).items():
        rhs += v * evaluate_cochain(alpha, idx)
    return lhs == factorial(p + n - 1) // factorial(p) * rhs


# ---------------------------------------------------------------------------
# ghost representation and the complete BRST operator
# ---------------------------------------------------------------------------

class GhostOperator(GLAlgebra):
    """Odd operator  -1/(n)! c^{i_1}..c^{i_n} C_{i_1..i_n}^sigma d/dc^sigma
    acting on the exterior algebra of r ghosts; `c` are the structure
    constants of one even bracket (n = 2m-2)."""

    def apply(self, mv: AntisymTensor) -> AntisymTensor:
        """The image of a homogeneous element of degree q, of degree
        q + n - 1."""
        raw = {}
        for mono, coeff in mv.items():
            for pos, sigma in enumerate(mono):
                rest = mono[:pos] + mono[pos + 1:]
                dsign = (-1) ** pos  # d/dc^sigma moved past pos ghosts
                for idx, row in self.c.items():
                    v = row.get(sigma)
                    if v is None or set(idx) & set(rest):
                        continue
                    # coefficient of the arrangement c^idx c^rest; the
                    # constructor canonicalizes the ordering
                    accumulate(raw, idx + rest, -coeff * dsign * v)
        return AntisymTensor(mv.rank + self.arity - 1, self.dim, raw)


def ghost_operators(alg: LieAlgebra, cocycles) -> list[GhostOperator]:
    """One ghost operator per cocycle (the rank-3 cocycle reproduces the
    ordinary coboundary); cocycles enter with their last index raised."""
    ops = []
    for om in cocycles:
        g = gla_from_cocycle(alg, om)
        ops.append(GhostOperator(g.arity, g.dim, g.c))
    return ops


def brst_nilpotency(alg: LieAlgebra, cocycles) -> bool:
    """All anticommutators {s_a, s_b} vanish on every ghost basis monomial."""
    ops = ghost_operators(alg, cocycles)
    r = alg.dim
    monos = [m for q in range(0, r + 1) for m in combinations(range(1, r + 1), q)]
    for a in range(len(ops)):
        for b in range(a, len(ops)):
            for mono in monos:
                mv = AntisymTensor(len(mono), r, {mono: Fraction(1)})
                first = ops[b].apply(ops[a].apply(mv))
                second = ops[a].apply(ops[b].apply(mv))
                if not (first + second).is_zero():
                    return False
    return True


# ===========================================================================
# Filippov (n-Lie) algebras
# ===========================================================================


# ---------------------------------------------------------------------------
# the vector product
# ---------------------------------------------------------------------------

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
                v = fa.get(a + (b[pb[0]],), c[pc[0]])
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
            for b, v in fa.row((a,) + idx).items():
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
            for l, v in fa.row(idx).items():
                accumulate(row, dslot(b, l), v)
            for i in range(n):
                for l in range(1, d + 1):
                    accumulate(row, dslot(l, idx[i]), -fa.get(idx[:i] + (l,) + idx[i + 1:], b))
            rows.append(row)
    return d * d - linalg.rank(rows)


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


# ---------------------------------------------------------------------------
# the double commutator of the Clifford realization of A4
# ---------------------------------------------------------------------------

def clifford_double_commutator() -> IdentityReport:
    """6 [[g_a, g_b] top, g_c] = [top, g_a, g_b, g_c] for every a, b, c on
    the four euclidean gammas and top = g_1 g_2 g_3 g_4, the weight-one
    4-bracket on the right read as 4! times its ordered product
    (`filippov.anticommuting_brackets`, which checks that top anticommutes
    with each gamma); both sides are linear in top, so the plain product
    serves.  The witness is the first failing (a, b, c)."""
    gam, _ = _zi_gammas(4)
    top = gam[0]
    for g in gam[1:]:
        top = linalg.zi_mul(top, g)
    tuples = list(product((4,), range(4), range(4), range(4)))
    table = anticommuting_brackets(gam + [top], tuples, known=4)
    for t in tuples:
        _, a, b, c = t
        lhs = linalg.zi_commutator(linalg.zi_mul(linalg.zi_commutator(gam[a], gam[b]), top),
                                   gam[c])
        if linalg.zi_scale((6, 0), lhs) != linalg.zi_scale((24, 0), table[t]):
            return IdentityReport(False, (a, b, c))
    return IdentityReport(True)


# ===========================================================================
# Filippov and Leibniz algebra cohomology
# ===========================================================================


# ---------------------------------------------------------------------------
# antisymmetry of the coboundary
# ---------------------------------------------------------------------------

def jointly_antisymmetric_in_last_slot(fa, kind, alpha, p_out) -> bool:
    """Verify that the coboundary of a trivial or deformation cochain is
    antisymmetric under exchanging the solitary slot with any member of the
    last block (full joint antisymmetry then follows from the in-block
    antisymmetry).  Every point and its exchange are evaluated at once."""
    cx = FAComplex(fa, kind, size=alpha.dim_v)
    n, d = fa.arity, fa.dim
    rng = range(1, d + 1)
    blocks = list(combinations(rng, n - 1))
    points, swapped = [], []
    for bs in product(blocks, repeat=p_out - 1):
        for last_blk in blocks:
            for z in rng:
                points.append(([*bs, last_blk], z))
                swapped.append(([*bs, last_blk[:-1] + (z,)], last_blk[-1]))
    values = coboundary_at(cx, alpha, points + swapped)
    return all(tuple(-v for v in vec2) == vec
               for vec, vec2 in zip(values[:len(points)], values[len(points):]))


# ---------------------------------------------------------------------------
# homology dual to the trivial complex
# ---------------------------------------------------------------------------

def homology_boundary(fa: FilippovAlgebra, chain):
    """chain: (blocks tuple, z, coeff) triples; boundary per the dual of the
    trivial coboundary:

        d(X_1..X_p, Z) = sum_{i<j} (-1)^i (..^i.., X_i.X_j, .., Z)
                       + sum_i (-1)^i (..^i.., X_i . Z)

    with X_i.X_j and X_i . Z read from `fundamental_tables`."""
    return _boundary(fundamental_tables(fa), chain)


def _boundary(tables, chain):
    blocks, bracket, action = tables[:3]
    num = {x: i for i, x in enumerate(blocks)}
    out = {}
    for raw, z, coeff in chain:
        xs, sign = sort_blocks(raw)  # the boundary is linear in each block
        for i in range(len(xs) if sign else 0):
            rest, x = xs[:i] + xs[i + 1:], num[xs[i]]
            c = (-1) ** (i + 1) * sign * coeff
            for j in range(i + 1, len(xs)):
                for y, v in bracket[x][num[xs[j]]]:
                    accumulate(out, (rest[:j - 1] + (blocks[y],) + rest[j:], z), c * v)
            for l, v in action[x][z - 1]:
                accumulate(out, (rest, l + 1), c * v)
    return out


def duality_pairing_holds(fa: FilippovAlgebra, alpha: NCochain, chains) -> bool:
    """alpha(boundary(c)) = (delta alpha)(c) on every basis chain c =
    (blocks, z) of chains; delta alpha is evaluated at all of them at once,
    and the boundaries read one set of `fundamental_tables`."""
    tables = fundamental_tables(fa)
    chains = [(list(blocks), z) for blocks, z in chains]
    cx = FAComplex(fa, "trivial", size=alpha.dim_v)
    for (blocks, z), rhs in zip(chains, coboundary_at(cx, alpha, chains)):
        lhs = Fraction(0)
        for (bs, l), v in _boundary(tables, [(tuple(blocks), z, Fraction(1))]).items():
            key = tuple(bs[:-1]) + (tuple(bs[-1]) + (l,),) if alpha.order else (l,)
            lhs += v * alpha.value(key)[0]
        if lhs != rhs[0]:
            return False
    return True


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
    for (key,), vec in alpha.data.items():
        f.setdefault(key, {})[d + 1] = vec[0]
    ext = FilippovAlgebra(fa.arity, d + 1, f)
    rep = check_fi(ext)
    if not rep.ok:
        raise AssertionError(f"extension fails the identity at {rep.witness}")
    return ext


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

    def a_val(block, z):  # raw blocks: alpha.value applies their sign
        return alpha.value((tuple(block) + (z,),))

    def add(out, sign, av, vec_at):
        """out += sign * sum_b av[b] vec_at(b)."""
        for b, c in enumerate(av, 1):
            if c:
                for t, w in enumerate(vec_at(b)):
                    out[t] += sign * c * w

    data = {}
    for bx in blocks:
        for by in blocks:
            for z in rng:
                out = [Fraction(0)] * d
                add(out, 1, a_val(by, z), lambda b: a_val(bx, b))  # a(X, a(Y, Z))
                add(out, -1, a_val(bx, z), lambda b: a_val(by, b))  # -a(Y, a(X, Z))
                for i in range(n - 1):  # -a(a(X, ).Y, Z): a(X, Y_i) into slot i of Y
                    add(out, -1, a_val(bx, by[i]),
                        lambda b: a_val(by[:i] + (b,) + by[i + 1:], z))
                if any(out):
                    data[(bx, by + (z,))] = tuple(out)
    gamma = NCochain("deformation", 2, n, d, d, data)
    g_cocycle = fa_coboundary_deformation(fa, gamma).is_zero()
    pre = deformation_preimage(fa, gamma)
    return gamma, g_cocycle, pre


def mc_zero_cochain(fa: FilippovAlgebra) -> NCochain:
    """alpha0(X) = -X; its trivial coboundary has the structure constants as
    coordinates (the Maurer-Cartan statement for these algebras)."""
    data = {(z,): tuple(Fraction(-1 if t == z - 1 else 0) for t in range(fa.dim))
            for z in range(1, fa.dim + 1)}
    return NCochain("trivial", 0, fa.arity, fa.dim, fa.dim, data)


# ---------------------------------------------------------------------------
# Leibniz algebras (binary, non-antisymmetric)
# ---------------------------------------------------------------------------

def leibniz_coboundary(lb: LeibnizAlgebra, left, right, omega: dict, p: int, dim_v: int):
    """The Leibniz coboundary of `nary_cohomology` on raw p-cochains
    omega: tuple (length p) -> target vector of length dim_v, with the sparse
    matrices l_X = left[X - 1] and r_X = right[X - 1]; returns the nonzero
    values of delta omega on all (p+1)-tuples.  Note that the first sum stops
    at p, not p+1; actions that fail the representation conditions raise
    ValueError (`LeibnizComplex`)."""
    cx = LeibnizComplex(lb, left, right, dim_v)
    values = _vectors(apply(cx, p, _flat(omega)), dim_v)
    return {key: vec for key, vec in zip(cx.keys(p + 1), values) if any(vec)}


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
    rep = ext.check_left_identity()
    if not rep.ok:
        raise AssertionError(f"extension fails the left identity at {rep.witness}")
    return ext


# ===========================================================================
# Generalized Poisson and Nambu-Poisson structures
# ===========================================================================


# ---------------------------------------------------------------------------
# Schouten-Nijenhuis bracket
# ---------------------------------------------------------------------------

def graded_jacobi_residual(a, b, c) -> AntisymTensor:
    """(-1)^{pr}[[A,B],C] + (-1)^{qp}[[B,C],A] + (-1)^{rq}[[C,A],B]."""
    p, q, r = a.rank, b.rank, c.rank
    t1 = schouten_bracket(schouten_bracket(a, b), c).scale(Fraction((-1) ** (p * r)))
    t2 = schouten_bracket(schouten_bracket(b, c), a).scale(Fraction((-1) ** (q * p)))
    t3 = schouten_bracket(schouten_bracket(c, a), b).scale(Fraction((-1) ** (r * q)))
    return t1 + t2 + t3


# ---------------------------------------------------------------------------
# brackets of functions from a multivector
# ---------------------------------------------------------------------------

def bracket_of_functions(lam: AntisymTensor, fs) -> Poly:
    """{f_1..f_n} = sum_{sorted I} lam^I det(d f_k / d x_{I_l})."""
    n = lam.rank
    if len(fs) != n:
        raise ValueError("wrong number of functions")
    m = lam.dim
    grads = [[f.diff(i) for i in range(1, m + 1)] for f in fs]
    return sum((comp * _poly_det([[grads[k][i - 1] for i in idx] for k in range(n)])
                for idx, comp in lam.entries.items()), Poly.zero(m))


def _poly_det(rows):
    """Laplace expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((rows[0][j] * _poly_det([r[:j] + r[j + 1:] for r in rows[1:]]) * (-1) ** j
                for j in range(len(rows))), Poly.zero(rows[0][0].nvars))


# ---------------------------------------------------------------------------
# Nambu-Poisson conditions
# ---------------------------------------------------------------------------

def np_even_implies_gps(lam: AntisymTensor) -> bool:
    """For an even-order tensor passing both Nambu-Poisson conditions, the
    self-bracket condition holds as well (computed, not assumed)."""
    if lam.rank % 2:
        raise ValueError("even order required")
    differential, algebraic = np_check(lam)
    if not (differential.ok and algebraic.ok):
        raise ValueError("input does not satisfy the Nambu-Poisson conditions")
    return gps_check(lam).ok


# ---------------------------------------------------------------------------
# Jacobian (Nambu) brackets on R^n
# ---------------------------------------------------------------------------

def nambu_bracket(fs, density=Fraction(1)) -> Poly:
    """{f_1..f_n} = det(d f_i / d x_j) / e for a nonzero constant density e."""
    n = len(fs)
    if fs[0].nvars != n:
        raise ValueError("need n polynomials in n variables")
    if is_zero(density):
        raise ValueError("density must be a nonzero constant")
    rows = [[f.diff(j) for j in range(1, n + 1)] for f in fs]
    return _poly_det(rows) * (Fraction(1) / Fraction(density))


def _fi_residual(bracket, fs, gs) -> Poly:
    """{f_1..f_{n-1}, {g_1..g_n}} - sum_i {g_1.., {f.., g_i}, ..g_n} for the
    bracket of functions `bracket` (a callable on a list of polynomials)."""
    out = bracket(list(fs) + [bracket(gs)])
    for i in range(len(gs)):
        out = out - bracket(gs[:i] + [bracket(list(fs) + [gs[i]])] + gs[i + 1:])
    return out


def nambu_fi_residual(fs, gs, density=Fraction(1)) -> Poly:
    """The fundamental-identity residual (`_fi_residual`) of the Jacobian
    bracket as a polynomial: identically zero."""
    return _fi_residual(lambda args: nambu_bracket(args, density), fs, gs)


def nambu_leibniz_residual(fs, g, h, slot, density=Fraction(1)) -> Poly:
    """Leibniz rule in the chosen slot: {.. f_slot = g h ..} - g{..h..} -
    {..g..}h."""
    def at_slot(f):
        return nambu_bracket(list(fs[:slot]) + [f] + list(fs[slot + 1:]), density)

    return at_slot(g * h) - g * at_slot(h) - at_slot(g) * h


def hamiltonian_derivation_residual(lam: AntisymTensor, hs, gs) -> Poly:
    """For the bracket of lam: {H_1..H_{n-1}, {g_1..g_n}} - sum_i {g_1..,
    {H.., g_i}, ..} (`_fi_residual`); vanishes when lam is a Nambu-Poisson
    tensor."""
    return _fi_residual(lambda args: bracket_of_functions(lam, args), hs, gs)


# ---------------------------------------------------------------------------
# the block-Jacobian realization of the extended abelian 3-algebra
# ---------------------------------------------------------------------------

def nhw_bracket(fs, n_blocks: int) -> Poly:
    """sum_a d(f_1,f_2,f_3)/d(x_a, y_a, z_a) on R^{3N}: variables ordered
    x_1..x_N, y_1..y_N, z_1..z_N."""
    if len(fs) != 3:
        raise ValueError("three functions required")
    m = 3 * n_blocks
    out = Poly.zero(m)
    for a in range(1, n_blocks + 1):
        cols = (a, n_blocks + a, 2 * n_blocks + a)
        rows = [[f.diff(c) for c in cols] for f in fs]
        out = out + _poly_det(rows)
    return out


def nhw_realization_check(n_blocks: int = 2) -> bool:
    """{x^a, y^b, z^c} = 1 exactly when a = b = c (0 otherwise), and any two
    coordinates from the same family bracket to zero."""
    m = 3 * n_blocks
    x, y, z = ([Poly.var(m, f * n_blocks + a) for a in range(1, n_blocks + 1)] for f in range(3))
    # same-family pairs kill the determinant columns across blocks
    return all(nhw_bracket([x[a], y[b], z[c]], n_blocks) == (1 if a == b == c else 0)
               and not nhw_bracket([x[a], x[b], z[c]], n_blocks)
               and not nhw_bracket([y[a], z[b], z[c]], n_blocks)
               for a, b, c in product(range(n_blocks), repeat=3))


# ===========================================================================
# Metric 3-Lie algebras: the BLG gauge algebra
# ===========================================================================


# ---------------------------------------------------------------------------
# Inder(g) with its two Chern-Simons forms and their levels
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
    invariance = check_metric_fa(fa, g)
    if not invariance.ok:
        raise ValueError(f"the metric is not invariant (at {invariance.witness})")
    if not linalg.nondegenerate(g).ok:
        raise ValueError("the metric is singular")
    lowered = lowered_form(fa, g)
    inder = inder_lie_algebra(fa)
    labels, kas = kasymov_form(fa)
    at = [labels.index(lab) for lab in inder.basis_labels]
    k1 = [[kas[i][j] for j in at] for i in at]
    k2 = [[lowered.get(x + y) for y in inder.basis_labels] for x in inder.basis_labels]
    pulled = {x: [sum(map(mul, row, inder.projection[x])) for row in k2] for x in labels}
    ill = next(((x, y) for x in labels for y in labels
                if lowered.get(x + y) != sum(map(mul, pulled[x], inder.projection[y]))),
               None)
    levels = None
    if not is_zero(linalg.det(k1)):
        j = _mat_mul(linalg.inverse(k1), k2)
        levels = {lam: _kernel([[v - lam * (r == c) for c, v in enumerate(row)]
                                for r, row in enumerate(j)])
                  for lam in _rational_roots(_minimal_polynomial(j))}
    return GaugeAlgebra(inder, k1, k2, ill,
                        check_metric_invariance(inder.lie, k1).ok,
                        check_metric_invariance(inder.lie, k2).ok,
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
