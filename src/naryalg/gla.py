"""Even multibrackets: the generalized Jacobi identity (GJI) and its
mixed-order variant, and the higher-order algebras built from odd cocycles.
`GLAlgebra` stores its constants as a `tensors.BracketTensor`, the one
storage of structure constants, and reads them through its readers
(`row`, `get`, `signed`, `ad_matrix`).  Matrix multibrackets and their
resolutions into two-brackets, coderivations and higher exterior
derivatives on the exterior algebra, and the complete BRST operator on
ghost variables are in `claims`.

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

from .lie import LieAlgebra, inverse_killing_form
from .scalars import accumulate, common_denominator, scaled_to_ints
from .tensors import AntisymTensor, BracketTensor, IdentityReport, nested_bracket_residuals


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
