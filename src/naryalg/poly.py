"""Multivariate polynomials with exact rational coefficients.

Canonical form: term map from exponent vector to nonzero coefficient, with a
fixed variable list.  Only the operations the Poisson module needs: ring
arithmetic, partial derivatives, evaluation.

The constructor validates and cleans its term map.  The ring operations and
`diff` produce canonical maps by construction (`accumulate` drops what
cancels, and a product or derivative of nonzero `Fraction`s with a nonzero
int is nonzero), so they build their results through `Poly._canonical`,
which skips that pass; only this module and `poisson` call it.
`add_product` collects a sum of products c*a*b of term maps in one term
map.  The Poisson scans key their int term maps by packed exponents instead:
`pack` writes an exponent vector as one int in a base B above every exponent
a product can reach, so `add_packed_product` adds two keys where
`add_product` adds two tuples, and d/dx_i subtracts B^(i-1); no digit
carries or borrows, as the constructor rejects negative exponents.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .scalars import accumulate, is_zero


class Poly:
    def __init__(self, nvars, terms=None):
        clean = {}  # exponent tuple -> coeff
        for e, c in (terms or {}).items():
            e = tuple(e)
            if len(e) != nvars:
                raise ValueError("exponent length mismatch")
            if any(k < 0 for k in e):
                raise ValueError(f"negative exponent in {e}")
            if not is_zero(c):
                clean[e] = Fraction(c) if not isinstance(c, Fraction) else c
        self.nvars, self.terms = nvars, clean

    # -- constructors -------------------------------------------------------
    @classmethod
    def _canonical(cls, nvars, terms):
        """A Poly on a term map already in canonical form: exponent tuples of
        length nvars, nonzero `Fraction` coefficients.  Takes the map as it
        is, without the constructor's pass over it."""
        out = object.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        return out

    @classmethod
    def zero(cls, nvars):
        return cls._canonical(nvars, {})

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def var(cls, nvars, i):
        """The coordinate x_i (1-based)."""
        e = [0] * nvars
        e[i - 1] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    # -- ring ops ------------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            accumulate(t, e, c)
        return Poly._canonical(self.nvars, t)

    __radd__ = __add__

    def __neg__(self):
        return Poly._canonical(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Poly.zero(self.nvars)
            return Poly._canonical(self.nvars, {e: c * other for e, c in self.terms.items()})
        t = {}
        add_product(t, 1, self.terms, self._coerce(other).terms)
        return Poly._canonical(self.nvars, t)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        return Poly.const(self.nvars, other)

    # -- calculus ------------------------------------------------------------
    def diff(self, i):
        """Partial derivative with respect to x_i (1-based)."""
        t = {}
        for e, c in self.terms.items():
            k = e[i - 1]
            if k:
                t[e[:i - 1] + (k - 1,) + e[i:]] = c * k
        return Poly._canonical(self.nvars, t)

    def eval(self, point):
        tot = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                for _ in range(k):
                    v *= x
            tot += v
        return tot

    # -- queries ------------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        return (isinstance(other, Poly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        def mono(e, c):
            parts = [] if c == 1 and any(e) else [str(c)]
            for i, k in enumerate(e):
                if k == 1:
                    parts.append(f"x{i+1}")
                elif k > 1:
                    parts.append(f"x{i+1}^{k}")
            return "*".join(parts) or str(c)
        return " + ".join(mono(e, c) for e, c in sorted(self.terms.items()))


def add_product(terms: dict, c, a: dict, b: dict) -> None:
    """terms += c * a * b on term maps {exponent: coefficient}, for a nonzero
    int or `Fraction` c."""
    for e1, c1 in a.items():
        if c != 1:
            c1 = c * c1
        for e2, c2 in b.items():
            accumulate(terms, tuple(map(add, e1, e2)), c1 * c2)


def add_packed_product(terms: dict, c, a: dict, b: dict) -> None:
    """terms += c * a * b on int term maps keyed by packed exponents, for a
    nonzero int c: the key of a product is the sum of the keys."""
    for e1, c1 in a.items():
        c1 *= c
        for e2, c2 in b.items():
            accumulate(terms, e1 + e2, c1 * c2)


def pack(e, radix) -> int:
    """The exponent vector e as one int in base radix, x_1 in the lowest
    digit; every exponent must be below radix."""
    key = 0
    for k in reversed(e):
        key = key * radix + k
    return key


def unpack(key, radix, nvars) -> tuple:
    """The exponent vector of a packed key."""
    e = []
    for _ in range(nvars):
        key, k = divmod(key, radix)
        e.append(k)
    return tuple(e)
