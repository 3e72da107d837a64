"""Exact arithmetic in the field Q(sqrt 2).

Every scalar appearing in the type-B reflection action lies in this field,
so fixing it (instead of working over the reals) makes equality decidable
and lets certificate checks be exact.

A value ``(p + q*sqrt(2)) / d`` is stored as three Python ints ``(p, q, d)``
with ``d > 0`` and ``gcd(p, q, d) == 1``; zero is ``(0, 0, 1)``.  Every
operation returns this form, which is unique because sqrt(2) is irrational,
so equality compares the three ints.  One operation costs a few int
products and at most one three-way gcd, where a pair of ``Fraction``s would
normalise each component on its own.  The rational components ``a = p/d``
and ``b = q/d`` of ``a + b*sqrt(2)`` are available as ``Fraction``-valued
properties for printing and hashing.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import ParseError


class QSqrt2:
    """An element ``a + b*sqrt(2)`` with exact rational components."""

    __slots__ = ("p", "q", "d")

    def __init__(self, a=0, b=0) -> None:
        if type(a) is int and type(b) is int:
            self.p, self.q, self.d = a, b, 1
            return
        if isinstance(a, float) or isinstance(b, float):
            raise TypeError("QSqrt2 components must be exact rationals, not floats")
        a, b = Fraction(a), Fraction(b)
        d = lcm(a.denominator, b.denominator)  # then gcd(p, q, d) is already 1
        self.p = a.numerator * (d // a.denominator)
        self.q = b.numerator * (d // b.denominator)
        self.d = d

    @property
    def a(self) -> Fraction:
        """The rational part."""
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        """The coefficient of sqrt(2)."""
        return Fraction(self.q, self.d)

    # -- constructors -------------------------------------------------

    @classmethod
    def sqrt2(cls) -> "QSqrt2":
        return cls(0, 1)

    @classmethod
    def _coerce(cls, x) -> "QSqrt2 | None":
        if isinstance(x, QSqrt2):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        return None

    # -- arithmetic ----------------------------------------------------
    #
    # ``type(other) is QSqrt2`` is tested before ``_coerce``: it is the case
    # on every hot path.  ``__rsub__`` does not call ``__sub__``, so each
    # operator call is one operation.

    def __add__(self, other) -> "QSqrt2":
        if type(other) is not QSqrt2:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        d1, d2 = self.d, other.d
        if d1 == d2:
            return reduced(self.p + other.p, self.q + other.q, d1)
        return reduced(self.p * d2 + other.p * d1, self.q * d2 + other.q * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other) -> "QSqrt2":
        if type(other) is not QSqrt2:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _difference(self, other)

    def __rsub__(self, other) -> "QSqrt2":
        if type(other) is not QSqrt2:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _difference(other, self)

    def __neg__(self) -> "QSqrt2":
        return reduced(-self.p, -self.q, self.d)

    def __mul__(self, other) -> "QSqrt2":
        if type(other) is not QSqrt2:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        p1, q1, p2, q2 = self.p, self.q, other.p, other.q
        return reduced(p1 * p2 + 2 * q1 * q2, p1 * q2 + q1 * p2, self.d * other.d)

    __rmul__ = __mul__

    def inverse(self) -> "QSqrt2":
        # d/(p + q*sqrt2) = d*(p - q*sqrt2) / (p^2 - 2 q^2); the norm is
        # nonzero for nonzero values since sqrt2 is irrational.
        p, q, d = self.p, self.q, self.d
        norm = p * p - 2 * q * q
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        if norm < 0:
            d, norm = -d, -norm
        return reduced(d * p, -d * q, norm)

    def __truediv__(self, other) -> "QSqrt2":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> "QSqrt2":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- comparisons & hashing -----------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not QSqrt2:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self.p == other.p and self.q == other.q and self.d == other.d

    def __hash__(self) -> int:
        # hash((a, b)) of the Fraction components: hashed containers of
        # these values then iterate in the same order whatever the storage
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return self.p != 0 or self.q != 0

    # -- text form -------------------------------------------------------
    #
    # Grammar: "p/q + r/s*sqrt2" with either term optional; the printer is
    # canonical ("0", "3", "-1/2*sqrt2", "1 + -1*sqrt2") and round-trips.

    def __str__(self) -> str:
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        sqrt_part = f"{b}*sqrt2"
        if a == 0:
            return sqrt_part
        return f"{a} + {sqrt_part}"

    def __repr__(self) -> str:
        return f"QSqrt2({self.a}, {self.b})"

    @classmethod
    def parse(cls, text: str) -> "QSqrt2":
        return _parse(text)


def reduced(p: int, q: int, d: int) -> QSqrt2:
    """``(p + q*sqrt2)/d`` for ``d > 0``, divided by ``gcd(p, q, d)``.

    Every operation ends here; ``polyring``'s product kernel sums products in
    ints and calls it once per coefficient.
    """
    if d != 1:
        g = gcd(p, q, d)
        if g != 1:
            p, q, d = p // g, q // g, d // g
    x = object.__new__(QSqrt2)
    x.p, x.q, x.d = p, q, d
    return x


def _difference(x: QSqrt2, y: QSqrt2) -> QSqrt2:
    """``x - y``; shared by ``__sub__`` and ``__rsub__``."""
    d1, d2 = x.d, y.d
    if d1 == d2:
        return reduced(x.p - y.p, x.q - y.q, d1)
    return reduced(x.p * d2 - y.p * d1, x.q * d2 - y.q * d1, d1 * d2)


ZERO = QSqrt2(0)
ONE = QSqrt2(1)
SQRT2 = QSqrt2(0, 1)

_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
            (?P<rat>\d+(?:/\d+)?)\s*(?P<star>\*\s*sqrt2)?
          | (?P<sqrt>sqrt2)
        )""",
    re.VERBOSE,
)


def _parse(text: str) -> QSqrt2:
    pos = 0
    total_a = Fraction(0)
    total_b = Fraction(0)
    n_terms = 0
    expect_sep = False
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        if expect_sep:
            if text[pos] == "+":
                pos += 1
                expect_sep = False
                continue
            # a '-' both separates and signs the next term
            if text[pos] == "-":
                expect_sep = False
                continue
            raise ParseError("expected '+' or '-' between terms", text, pos)
        m = _TERM_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ParseError("expected a rational or sqrt2 term", text, pos)
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("sqrt"):
            total_b += sign
        else:
            try:
                coeff = Fraction(m.group("rat")) * sign
            except ZeroDivisionError:
                raise ParseError("zero denominator", text, m.start("rat")) from None
            if m.group("star"):
                total_b += coeff
            else:
                total_a += coeff
        pos = m.end()
        n_terms += 1
        expect_sep = True
    if n_terms == 0:
        raise ParseError("empty scalar", text, 0)
    return QSqrt2(total_a, total_b)
