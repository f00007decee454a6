"""Even multibrackets and the structures they generate: the generalized
Jacobi identity (GJI) and its mixed-order variant, bracket resolutions into
two-brackets, higher-order algebras built from odd cocycles, coderivations
and higher exterior derivatives on the exterior algebra, and the complete
BRST operator on ghost variables.  `GLAlgebra` stores its constants as a
`tensors.BracketTensor`, the one storage of structure constants.

Every element of the exterior algebra here is homogeneous and is a
`tensors.AntisymTensor` of known degree: a ghost monomial and its images
under the ghost operators, the image of a coderivation, and a scalar
cochain of the higher exterior derivative.  Their product is the one
shuffle wedge, `tensors.wedge`.

Matrix multibrackets take and return the sparse operator matrices of
`linalg` and run on its ℤ[i] kernel: `multibracket` scales every value by
the common denominator D of all real and imaginary parts, runs its subset
programme on int (re, im) pairs, and divides by D^n once.  Its values are
`GaussianRational` when some input value is, else `Fraction`.  These
brackets assume nothing about how their matrices commute.

Integer tables.  The GJI and the mixed identity read the tables of D C
(`BracketTensor.integer_scaled`) through `tensors.nested_bracket_residuals`,
the one nested-bracket scan, which also decides the Jacobi identity of
`lie`; they are bilinear in their tables, so the factors move no zero and
no witness.  `gla_from_cocycle` raises D' Omega
through the sparse int rows of D'' kinv and divides each constant once.

Residual conventions.  The epsilon-contracted identities are evaluated as
shuffle sums over ordered block splits; these differ from the literal
Levi-Civita contraction by the product of the block factorials, which never
affects a vanishing statement.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial

from . import linalg
from .lie import LieAlgebra, inverse_killing_form
from .scalars import GaussianRational, accumulate, common_denominator, scaled_to_ints
from .tensors import (AntisymTensor, BracketTensor, IdentityReport, merge_sign,
                      nested_bracket_residuals, shuffle_splits, sort_sign, wedge)


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
# higher-order algebras by structure constants
# ---------------------------------------------------------------------------

class GLAlgebra(BracketTensor):
    """Even-arity algebra: the `BracketTensor` of C_{i_1..i_n}^j, n even."""

    kind = "gla"

    def __init__(self, arity, dim, c=None, metric=None):
        if arity % 2:
            raise ValueError("bracket arity must be even")
        super().__init__(arity, dim, c, metric)

    c_row = BracketTensor.row
    c_get = BracketTensor.get


def check_gji(g: GLAlgebra) -> IdentityReport:
    """C_{[j_1..j_n}^l C_{j_{n+1}..j_{2n-1}]l}^s = 0, shuffle-normalized."""
    c = g.integer_scaled()[1].c
    res = nested_bracket_residuals(c, c, g.dim)
    if res:
        return IdentityReport(False, min(res))
    return IdentityReport(True)


def check_mgji(g1: GLAlgebra, g2: GLAlgebra) -> IdentityReport:
    """Mixed identity eps C_{i_1..i_n}^l C'_{i_{n+1}..i_{n+m-1} l}^s = 0 for
    two even-arity algebras on the same space (both nesting orders)."""
    if g1.dim != g2.dim:
        raise ValueError("dimension mismatch")
    c1, c2 = g1.integer_scaled()[1].c, g2.integer_scaled()[1].c
    for ca, cb in ((c1, c2), (c2, c1)):
        res = nested_bracket_residuals(ca, cb, g1.dim)
        if res:
            return IdentityReport(False, min(res))
    return IdentityReport(True)


def lie_as_gla(alg: LieAlgebra) -> GLAlgebra:
    return GLAlgebra(2, alg.dim, dict(alg.c))


def gla_from_cocycle(alg: LieAlgebra, omega: AntisymTensor) -> GLAlgebra:
    """Structure constants C_{i_1..i_{2m-2}}^j = Omega_{i_1..i_{2m-2}}^j with
    the last index raised through the inverse Killing form; validates the GJI
    and the mixed identity against the underlying algebra."""
    from .lie import cocycle_condition_residual
    if cocycle_condition_residual(alg, omega) is not None:
        raise ValueError("input is not a cocycle")
    kinv = inverse_killing_form(alg)
    dk = common_denominator([x for row in kinv for x in row])
    up = [scaled_to_ints({j: x for j, x in enumerate(row, 1) if x}, dk) for row in kinv]
    dw = common_denominator(omega.entries.values())
    c = {}
    for idx, w in scaled_to_ints(omega.entries, dw).items():
        # every slot of the sorted entry may play the raised index
        for t in range(len(idx)):
            row = c.setdefault(idx[:t] + idx[t + 1:], {})
            w_t = -w if (len(idx) - 1 - t) & 1 else w
            for j, x in up[idx[t] - 1].items():
                accumulate(row, j, w_t * x)
    den = dw * dk
    out = GLAlgebra(omega.rank - 1, alg.dim,
                    {body: {j: Fraction(v, den) for j, v in row.items()}
                     for body, row in c.items() if row})
    rep = check_gji(out)
    if not rep.ok:
        raise AssertionError(f"GJI failed at {rep.witness}")
    rep = check_mgji(lie_as_gla(alg), out)
    if not rep.ok:
        raise AssertionError(f"mixed identity failed at {rep.witness}")
    return out


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
