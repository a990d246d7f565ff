"""Exact scalar, polynomial and rational-function arithmetic.

Everything here is over the rationals, with no rounding anywhere.  The scalar
type is fractions.Fraction, which prints as "p/q".
"""

from __future__ import annotations

from fractions import Fraction as Scalar
from typing import Iterable

ZERO = Scalar(0)
ONE = Scalar(1)


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a root of its denominator."""


class DegreeError(ValueError):
    """A rational function lacks the value at infinity a caller needs."""


def rat(x, y=None) -> Scalar:
    """Coerce ints, "p/q" strings, Fractions or Scalars to a Scalar.

    A Scalar comes back as itself: scalars are immutable, so sharing one is
    safe and skips a copy on every entry of every operator built.
    """
    if y is not None:
        return Scalar(x) / Scalar(y)
    if isinstance(x, Scalar):
        return x
    return Scalar(x)


def rat_str(x) -> str:
    """Serialize a Scalar as "p/q", or "p" when the denominator is 1."""
    return str(x)


HALF = rat(1, 2)
KAPPA = rat(-3, 2)


class UniPoly:
    """Dense univariate polynomial in u, ascending coefficients, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "UniPoly":
        return cls([rat(c)])

    @classmethod
    def x_plus(cls, a) -> "UniPoly":
        """The monic linear polynomial u + a."""
        return cls([rat(a), ONE])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Scalar:
        return self.coeffs[-1] if self.coeffs else ZERO

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return UniPoly([(a[i] if i < len(a) else ZERO) + (b[i] if i < len(b) else ZERO)
                        for i in range(n)])

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            c = rat(other)
            return UniPoly([c * a for a in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UniPoly()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __call__(self, u0) -> Scalar:
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * u0 + c
        return acc

    def _substitute(self, s: int, a) -> "UniPoly":
        """u -> s u + a, by Horner's rule from the top coefficient down."""
        lin = UniPoly([a, s])
        out = UniPoly()
        for c in reversed(self.coeffs):
            out = out * lin + UniPoly.const(c)
        return out

    def shift(self, a) -> "UniPoly":
        """Substitute u -> u + a."""
        return self._substitute(1, a)

    def reflect(self, c=ZERO) -> "UniPoly":
        """Substitute u -> c - u."""
        return self._substitute(-1, c)

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        lead = self.leading()
        return UniPoly([c / lead for c in self.coeffs])

    def divmod(self, other: "UniPoly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn, dd = self.degree, other.degree
        if dn < dd:
            return UniPoly(), self
        quot = [ZERO] * (dn - dd + 1)
        lead = other.leading()
        for k in range(dn - dd, -1, -1):
            q = rem[dd + k] / lead
            quot[k] = q
            if q != 0:
                for j, b in enumerate(other.coeffs):
                    rem[j + k] -= q * b
        return UniPoly(quot), UniPoly(rem[:dd])

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def gcd(self, other: "UniPoly") -> "UniPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def __repr__(self):
        if self.is_zero():
            return "UniPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"({c})*u")
            else:
                terms.append(f"({c})*u^{i}")
        return "UniPoly(" + " + ".join(terms) + ")"


class RatFunc:
    """Ratio of UniPoly's, stored in lowest terms with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly = None):
        if not isinstance(num, UniPoly):
            num = UniPoly.const(num)
        if den is None:
            den = UniPoly([ONE])
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in RatFunc")
        g = num.gcd(den)
        if not g.is_zero() and g.degree > 0:
            num, den = num // g, den // g
        lead = den.leading()
        if lead != 1:
            num = num * (ONE / lead)
            den = den * (ONE / lead)
        self.num = num
        self.den = den

    @classmethod
    def const(cls, c) -> "RatFunc":
        return cls(UniPoly.const(c))

    @classmethod
    def linear_ratio(cls, a, b) -> "RatFunc":
        """(u + a) / (u + b)."""
        return cls(UniPoly.x_plus(a), UniPoly.x_plus(b))

    def __eq__(self, other):
        # Canonical form makes equality structural.
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __mul__(self, other):
        other = other if isinstance(other, RatFunc) else RatFunc.const(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = other if isinstance(other, RatFunc) else RatFunc.const(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero RatFunc")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __call__(self, u0) -> Scalar:
        u0 = rat(u0)
        d = self.den(u0)
        if d == 0:
            raise PoleError(f"pole at u = {u0}")
        return self.num(u0) / d

    def shift(self, a) -> "RatFunc":
        return RatFunc(self.num.shift(a), self.den.shift(a))

    def __repr__(self):
        return f"RatFunc({self.num!r} / {self.den!r})"
