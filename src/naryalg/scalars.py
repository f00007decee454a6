"""Exact scalars: rationals and Gaussian rationals.

Plain rationals are `fractions.Fraction`; the Gaussian extension a+bi is only
needed by the Clifford and su(n) matrix constructions.  Everything downstream
is written against the common field protocol (+, -, *, /, ==), so tensors and
matrices may hold either kind.

A `LinearForm` is a sparse vector {coordinate: nonzero value}, the target
vector of a `cohomology.Cochain` at an index tuple.  Not a field element, it
passes through every formula linear in its inputs (sums, differences,
products with a scalar, tests against zero), so cochains add and scale.

Every sparse exact map of the package (antisymmetric tensors, cochains,
multivectors, polynomial terms) holds no zero values and grows through
`accumulate`: d[key] += v, where a zero v changes nothing and a sum that
cancels removes the key.  Its zero test is truthiness, which each value type
defines as "equals zero": `Fraction`, int, `GaussianRational`, `LinearForm`
(empty) and `poly.Poly` (no terms).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def rat(x) -> Fraction:
    """Coerce an int/str/Fraction to Fraction (identity on Fractions)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, GaussianRational):
        if x.im != 0:
            raise ValueError(f"{x} has a nonzero imaginary part")
        return x.re
    if isinstance(x, LinearForm):
        return x
    return Fraction(x)


class GaussianRational:
    """a + b*i with rational a, b.  Immutable, hashable, exact."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, *a):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational((self.re * o.re + self.im * o.im) / d,
                                (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        return f"({self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i)"


class LinearForm(dict):
    """Sparse linear form {coordinate: nonzero coefficient}.

    Forms add to forms and to zero, multiply by scalars, and compare equal to
    0 when empty; adding a nonzero scalar or multiplying two forms is not
    linear and raises TypeError.  No operation mutates an operand, so a sum
    with zero or a product with 1 may return the form itself.
    """

    __slots__ = ()

    def __add__(self, other):
        if isinstance(other, LinearForm):
            out = LinearForm(self)
            for k, v in other.items():
                w = out.get(k, 0) + v
                if w:
                    out[k] = w
                else:
                    del out[k]
            return out
        if other == 0:
            return self
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return LinearForm({k: -v for k, v in self.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, c):
        if isinstance(c, LinearForm):
            return NotImplemented
        if c == 1:
            return self
        if c == -1:
            return -self
        if c == 0:
            return LinearForm()
        return LinearForm({k: c * v for k, v in self.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, dict):
            return dict.__eq__(self, other)
        if other == 0:
            return not self
        return NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq


I = GaussianRational(0, 1)
ZERO = Fraction(0)


def is_zero(x) -> bool:
    return not x if isinstance(x, GaussianRational) else x == 0


def common_denominator(values) -> int:
    """The least common multiple of the denominators of rational values (int
    or `Fraction`); 1 when there are none."""
    # a list, not a generator: unpacking a generator grows a tuple step by
    # step, and that churn leaves the small-object allocator fragmented
    return lcm(*[v.denominator for v in values])


def scaled_to_ints(values: dict, d: int) -> dict:
    """{key: d * v} as plain ints, d a multiple of every denominator of the
    rational values."""
    return {k: v.numerator * (d // v.denominator) for k, v in values.items()}


def accumulate(d: dict, key, v) -> None:
    """d[key] += v on a map without zero values: skip a zero v, and drop the
    key when the sum cancels."""
    if not v:
        return
    w = d.get(key)
    if w is not None:
        v = w + v
        if not v:
            del d[key]
            return
    d[key] = v


def parse_scalar(text: str):
    """Parse `p/q` or `p/q+r/si` (Gaussian) literals used by .alg files.  A
    literal is ASCII, so no non-ASCII digit (`١`) reads as a number, and
    holds no whitespace: `1 2` is an error, not 12.  Nor does it hold the
    exponents and digit separators `Fraction` would accept: `1e1000000`
    would build a million-digit integer from nine bytes, and
    `format_scalar` writes neither form."""
    s = text.strip()
    if not s.isascii():
        raise ValueError(f"non-ASCII character in the scalar {s!r}")
    if any(c.isspace() for c in s):
        raise ValueError(f"whitespace inside the scalar {s!r}")
    if any(c in "eE_" for c in s):
        raise ValueError(f"exponent or digit separator in the scalar {s!r}")
    if s.endswith("i"):
        body = s[:-1]
        # split at the sign that separates real and imaginary parts
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-/":
                re_part, im_part = body[:k], body[k:]
                break
        else:
            re_part, im_part = "0", body
        if im_part in ("+", "-"):
            im_part += "1"
        return GaussianRational(Fraction(re_part), Fraction(im_part))
    return Fraction(s)


def format_scalar(x) -> str:
    """Canonical inverse of parse_scalar."""
    if isinstance(x, GaussianRational):
        if x.im == 0:
            return str(x.re)
        sign = "+" if x.im >= 0 else "-"
        return f"{x.re}{sign}{abs(x.im)}i"
    return str(Fraction(x))
