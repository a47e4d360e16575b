"""Exact univariate polynomial and rational-function arithmetic over the integers.

Polynomials are dense integer coefficient tuples; rational functions are kept
in a canonical coprime form so that equality of values is equality of
representations.  Everything is immutable and hashable, so results can be
memoized and shared freely.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence

#: Degree of the zero polynomial.
NEG_INFINITY = float("-inf")


class PoleError(ZeroDivisionError):
    """Raised when a rational function is evaluated at a denominator root."""

    def __init__(self, point):
        self.point = point
        super().__init__(f"denominator vanishes at t = {point}")


def _strip(coeffs: Sequence[int]) -> tuple[int, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _content(coeffs: Iterable[int]) -> int:
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    return g


def _pseudo_rem(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Pseudo-remainder of a by b in Z[t] (b nonzero, deg b <= deg a)."""
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    while len(r) - 1 >= db:
        lead = r[-1]
        r = [lb * c for c in r]
        off = len(r) - 1 - db
        for i, bc in enumerate(b):
            r[off + i] -= lead * bc
        r.pop()
        while r and r[-1] == 0:
            r.pop()
        if not r:
            break
    return tuple(r)


@lru_cache(maxsize=1 << 16)
def _poly_gcd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """GCD in Z[t] including integer content, leading coefficient positive."""
    if not a and not b:
        return ()
    if not a:
        return b if b[-1] > 0 else tuple(-c for c in b)
    if not b:
        return a if a[-1] > 0 else tuple(-c for c in a)
    if len(a) == 1 or len(b) == 1:
        return (gcd(_content(a), _content(b)),)
    if a == b:
        return a if a[-1] > 0 else tuple(-c for c in a)
    ca, cb = _content(a), _content(b)
    c = gcd(ca, cb)
    big = tuple(x // ca for x in a)
    small = tuple(x // cb for x in b)
    if len(big) < len(small):
        big, small = small, big
    # primitive pseudo-remainder sequence
    while small:
        rem = _pseudo_rem(big, small)
        if rem:
            cr = _content(rem)
            rem = tuple(x // cr for x in rem)
        big, small = small, rem
    if big[-1] < 0:
        big = tuple(-x for x in big)
    return tuple(c * x for x in big)


def _exact_div(a: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """Quotient a/g in Z[t]; g must divide a exactly."""
    if not a:
        return ()
    if g == (1,):
        return a
    lg = g[-1]
    q = [0] * (len(a) - len(g) + 1)
    r = list(a)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + len(g) - 1]
        if c % lg:
            raise ArithmeticError("inexact polynomial division")
        qk = c // lg
        q[k] = qk
        if qk:
            for i, gc in enumerate(g):
                r[k + i] -= qk * gc
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return _strip(q)


class Polynomial:
    """Integer polynomial; entry i of ``coeffs`` is the coefficient of t**i.

    The stored tuple never has a trailing zero, so two equal values always
    have identical representations.  Instances are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        object.__setattr__(self, "coeffs", _strip(tuple(coeffs)))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> "Polynomial":
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls([0] * power + [coeff])

    @property
    def degree(self):
        """Degree, or NEG_INFINITY for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def content(self) -> int:
        return _content(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == _strip((other,))
        return NotImplemented

    def __hash__(self):
        return hash(("Polynomial", self.coeffs))

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __add__(self, other) -> "Polynomial":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = base if result is ONE else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(_exact_div(self.coeffs, other.coeffs))

    def evaluate(self, point) -> Fraction:
        """Exact value at a rational point (Horner)."""
        point = Fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def is_palindromic(self) -> bool:
        return self.coeffs == tuple(reversed(self.coeffs))

    def __str__(self):
        return format_terms(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


def format_terms(coeffs: Sequence[int], times: str = "*", caret: str = "^") -> str:
    """Render a coefficient sequence in ascending powers, e.g. '1 + 2*t + t^2'."""
    if not any(coeffs):
        return "0"
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            var = "t" if i == 1 else f"t{caret}{i}"
            body = var if mag == 1 else f"{mag}{times}{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


ZERO = Polynomial()
ONE = Polynomial([1])
T = Polynomial([0, 1])


def _as_poly(value):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, int):
        return Polynomial((value,))
    return NotImplemented


class RationalFunction:
    """Quotient of integer polynomials in canonical form.

    Canonical means: numerator and denominator have no common factor in Z[t]
    (integer contents included) and the denominator's leading coefficient is
    positive.  The zero function is stored as 0/1.  With that convention two
    rational functions are equal as values exactly when their stored
    coefficient tuples coincide.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        num = _coerce_poly(num)
        den = _coerce_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            object.__setattr__(self, "num", ZERO)
            object.__setattr__(self, "den", ONE)
            return
        g = _poly_gcd(num.coeffs, den.coeffs)
        n = _exact_div(num.coeffs, g)
        d = _exact_div(den.coeffs, g)
        if d[-1] < 0:
            n = tuple(-c for c in n)
            d = tuple(-c for c in d)
        object.__setattr__(self, "num", Polynomial(n))
        object.__setattr__(self, "den", Polynomial(d))

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def _raw(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """Wrap an already coprime pair, fixing only the denominator sign."""
        if den.coeffs[-1] < 0:
            num, den = -num, -den
        self = object.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den == ONE

    def as_polynomial(self) -> Polynomial:
        if not self.is_polynomial:
            raise ValueError(f"{self} is not a polynomial")
        return self.num

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("RationalFunction", self.num.coeffs, self.den.coeffs))

    def __neg__(self):
        return RationalFunction._raw(-self.num, self.den)

    def __add__(self, other):
        # Henrici's algorithm: with both operands canonical only the two small
        # gcds below are needed, the result is coprime by construction.
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        d1, d2 = self.den, other.den
        g1 = Polynomial(_poly_gcd(d1.coeffs, d2.coeffs))
        if g1 == ONE:
            return RationalFunction._raw(self.num * d2 + other.num * d1, d1 * d2)
        d2r = d2.exact_div(g1)
        t = self.num * d2r + other.num * d1.exact_div(g1)
        if t.is_zero:
            return RF_ZERO
        g2 = Polynomial(_poly_gcd(t.coeffs, g1.coeffs))
        if g2 == ONE:
            return RationalFunction._raw(t, d1 * d2r)
        return RationalFunction._raw(t.exact_div(g2), d1.exact_div(g2) * d2r)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        # cross-cancellation keeps the gcd calls on small operands and the
        # product coprime without a final reduction
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RF_ZERO
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        g1 = Polynomial(_poly_gcd(n1.coeffs, d2.coeffs))
        g2 = Polynomial(_poly_gcd(n2.coeffs, d1.coeffs))
        if g1 != ONE:
            n1 = n1.exact_div(g1)
            d2 = d2.exact_div(g1)
        if g2 != ONE:
            n2 = n2.exact_div(g2)
            d1 = d1.exact_div(g2)
        return RationalFunction._raw(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return RationalFunction._raw(self.num**n, self.den**n)

    def inverse(self) -> "RationalFunction":
        if self.is_zero:
            raise ZeroDivisionError("inverse of the zero function")
        return RationalFunction._raw(self.den, self.num)

    def taylor_fractions(self, n: int) -> list[Fraction]:
        """Exact power-series coefficients 0..n at t = 0.

        Uses the linear recurrence induced by the denominator; requires a
        nonzero denominator constant term.
        """
        if n < 0:
            raise ValueError("order must be nonnegative")
        d = self.den.coeffs
        if not d or d[0] == 0:
            raise ValueError("no power series at 0: denominator constant term is zero")
        d0 = d[0]
        out: list[Fraction] = []
        for k in range(n + 1):
            acc = Fraction(self.num.coefficient(k))
            for j in range(1, min(k, len(d) - 1) + 1):
                acc -= d[j] * out[k - j]
            out.append(acc / d0)
        return out

    def taylor_coefficients(self, n: int) -> list[int]:
        """Integer power-series coefficients 0..n; error when non-integral."""
        out = []
        for k, c in enumerate(self.taylor_fractions(n)):
            if c.denominator != 1:
                raise ValueError(f"coefficient of t^{k} is not an integer: {c}")
            out.append(c.numerator)
        return out

    def evaluate(self, point) -> Fraction:
        """Exact value at a rational point; PoleError at a denominator root."""
        point = Fraction(point)
        dv = self.den.evaluate(point)
        if dv == 0:
            raise PoleError(point)
        return self.num.evaluate(point) / dv

    def display_pair(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Numerator/denominator coefficients for rendering.

        Equal to the stored pair up to a global sign: the lowest-order nonzero
        denominator coefficient is made positive, which prints power series
        the usual way round, e.g. (1 + t)/(1 - t).
        """
        num, den = self.num.coeffs, self.den.coeffs
        lowest = next((c for c in den if c), 0)
        if lowest < 0:
            return tuple(-c for c in num), tuple(-c for c in den)
        return num, den

    def to_dict(self) -> dict:
        """Coefficient arrays (constant term first) as decimal strings."""
        return {
            "numerator": [str(c) for c in self.num.coeffs],
            "denominator": [str(c) for c in self.den.coeffs],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RationalFunction":
        num = Polynomial(int(c) for c in data["numerator"])
        den = Polynomial(int(c) for c in data["denominator"])
        return cls(num, den)

    def __str__(self):
        if self.is_polynomial:
            return str(self.num)
        num, den = self.display_pair()
        return f"({format_terms(num)})/({format_terms(den)})"

    def __repr__(self):
        return f"RationalFunction({list(self.num.coeffs)!r}, {list(self.den.coeffs)!r})"


def _coerce_poly(value) -> Polynomial:
    p = _as_poly(value)
    if p is NotImplemented:
        raise TypeError(f"cannot build a polynomial from {value!r}")
    return p


def _as_ratfun(value):
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, (Polynomial, int)):
        return RationalFunction(value)
    return NotImplemented


RF_ZERO = RationalFunction(0)
RF_ONE = RationalFunction(1)
