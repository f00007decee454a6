"""Named catalog of the algebras every suite runs against, plus corrupted
negative controls.

The su(n) generator bases and the su(3) cocycles and GLA are built once per
process and kept; each call hands out a copy of the kept object (`copy`),
so a caller that sets a metric, edits a table row or plants a memo on its
result changes no later call.  A copy starts with an empty memo
(`BracketTensor.memoized`): su(n) inverts its own Killing form, not the
one that `su3_gla4` inverted on the kept basis's algebra."""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations

from .filippov import FilippovAlgebra, check_fi, simple_fa
from .gla import GLAlgebra, check_gji, gla_from_cocycle
from .lie import (LieAlgebra, check_jacobi, cocycle_from_invariant_poly,
                  killing_invariant_poly, sun_generators, symmetrized_trace_poly)
from .nary_cohomology import LeibnizAlgebra


_sun = cache(sun_generators)


def sun_basis(n):
    return _sun(n).copy()


def su(n) -> LieAlgebra:
    return _sun(n).algebra.copy()


def _copies(build):
    """build, run once; every call returns a copy of its result."""
    kept = cache(build)

    def copy_of():
        return kept().copy()
    return copy_of


def heisenberg() -> LieAlgebra:
    return LieAlgebra.from_entries(3, [((1, 2, 3), Fraction(1))])


def r2_abelian() -> LieAlgebra:
    return LieAlgebra(2, {})


def euclidean_rotations_2d() -> LieAlgebra:
    """The 3-dim solvable algebra of plane rotations and translations
    ([J, P1] = P2, [J, P2] = -P1), the classic contraction target."""
    return LieAlgebra.from_entries(3, [((1, 2, 3), Fraction(1)), ((1, 3, 2), Fraction(-1))])


def a4() -> FilippovAlgebra:
    return simple_fa(3, [1, 1, 1, 1])


def a13() -> FilippovAlgebra:
    return simple_fa(3, [-1, 1, 1, 1])


def a5() -> FilippovAlgebra:
    return simple_fa(4, [1, 1, 1, 1, 1])


def nhw(n_blocks=1) -> FilippovAlgebra:
    """Central extension of the abelian 3N-dim ternary algebra by the
    block-diagonal cocycle (the Jacobian-bracket algebra of N triples)."""
    if n_blocks < 1:
        raise ValueError(f"nhw needs N >= 1 blocks, got {n_blocks}")
    d = 3 * n_blocks
    f = {}
    for a in range(1, n_blocks + 1):
        f[(a, n_blocks + a, 2 * n_blocks + a)] = {d + 1: Fraction(1)}
    return FilippovAlgebra(3, d + 1, f)


@_copies
def su3_five_cocycle():
    basis = _sun(3)
    return cocycle_from_invariant_poly(basis.algebra, symmetrized_trace_poly(basis, 3))


@_copies
def su3_three_cocycle():
    alg = _sun(3).algebra
    return cocycle_from_invariant_poly(alg, killing_invariant_poly(alg))


@_copies
def su3_gla4() -> GLAlgebra:
    return gla_from_cocycle(_sun(3).algebra, su3_five_cocycle())


def nilpotent_leibniz() -> LeibnizAlgebra:
    """Three-dimensional non-Lie left Leibniz algebra:
    [e2, e3] = e1, [e3, e3] = e1."""
    return LeibnizAlgebra(3, {(2, 3): {1: Fraction(1)}, (3, 3): {1: Fraction(1)}})


IDENTITY = {"lie": check_jacobi, "gla": check_gji, "filippov": check_fi}


def corrupted(obj):
    """A deterministically corrupted copy that genuinely fails its identity.

    Sign flips are tried first (in sorted entry order).  For the epsilon-type
    algebras every single sign flip yields another valid algebra (it merely
    toggles one basis sign in the pseudoeuclidean family), so the fallback
    plants one off-pattern entry (+1 at each sorted index tuple and target
    in turn) instead.
    """
    if isinstance(obj, LieAlgebra) and obj.dim < 3:
        return None  # the identity is vacuous below three dimensions
    holds = IDENTITY[obj.kind]

    def candidates():
        for key, sub, _ in sorted(obj.entries()):
            c = {k: dict(v) for k, v in obj.c.items()}
            c[key][sub] = -c[key][sub]
            yield c
        for key in combinations(range(1, obj.dim + 1), obj.arity):
            for tgt in range(1, obj.dim + 1):
                c = {k: dict(v) for k, v in obj.c.items()}
                row = c.setdefault(key, {})
                row[tgt] = row.get(tgt, Fraction(0)) + 1
                yield c

    for c in candidates():
        cand = obj.from_table(obj.arity, obj.dim, c)
        if not holds(cand).ok:
            return cand
    raise AssertionError("could not corrupt the algebra")
