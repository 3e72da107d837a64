"""Exact arithmetic in the field Q(sqrt 2).

Every scalar appearing in the type-B reflection action lies in this field,
so fixing it (instead of working over the reals) makes equality decidable
and lets certificate checks be exact.  A value is stored as a pair of
rationals ``(a, b)`` representing ``a + b*sqrt(2)``; equality of values is
equivalent to componentwise equality because sqrt(2) is irrational.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError

try:  # gmpy2's mpq is a drop-in, much faster rational.
    from gmpy2 import mpq as _Q
except ImportError:  # pragma: no cover
    _Q = Fraction

_ZERO_Q = _Q(0)
_ONE_Q = _Q(1)


class QSqrt2:
    """An element ``a + b*sqrt(2)`` with exact rational components."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0) -> None:
        if isinstance(a, float) or isinstance(b, float):
            raise TypeError("QSqrt2 components must be exact rationals, not floats")
        self.a = a if type(a) is type(_ZERO_Q) else _Q(a)
        self.b = b if type(b) is type(_ZERO_Q) else _Q(b)

    # -- constructors -------------------------------------------------

    @classmethod
    def sqrt2(cls) -> "QSqrt2":
        return cls(0, 1)

    @classmethod
    def _coerce(cls, x) -> "QSqrt2 | None":
        if isinstance(x, QSqrt2):
            return x
        if isinstance(x, (int, Fraction)) or type(x) is type(_ZERO_Q):
            return cls(x)
        return None

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "QSqrt2":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other) -> "QSqrt2":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt2(self.a - o.a, self.b - o.b)

    def __rsub__(self, other) -> "QSqrt2":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt2(o.a - self.a, o.b - self.b)

    def __neg__(self) -> "QSqrt2":
        return QSqrt2(-self.a, -self.b)

    def __mul__(self, other) -> "QSqrt2":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> "QSqrt2":
        # 1/(a + b*sqrt2) = (a - b*sqrt2) / (a^2 - 2 b^2); the norm is nonzero
        # for nonzero values since sqrt2 is irrational.
        norm = self.a * self.a - 2 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        return QSqrt2(self.a / norm, -self.b / norm)

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    # -- text form -------------------------------------------------------
    #
    # Grammar: "p/q + r/s*sqrt2" with either term optional; the printer is
    # canonical ("0", "3", "-1/2*sqrt2", "1 + -1*sqrt2") and round-trips.

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        sqrt_part = f"{self.b}*sqrt2"
        if self.a == 0:
            return sqrt_part
        return f"{self.a} + {sqrt_part}"

    def __repr__(self) -> str:
        return f"QSqrt2({self.a}, {self.b})"

    @classmethod
    def parse(cls, text: str) -> "QSqrt2":
        return _parse(text)


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
    total_a = _ZERO_Q
    total_b = _ZERO_Q
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
            coeff = _ONE_Q * sign
            total_b += coeff
        else:
            try:
                coeff = _Q(m.group("rat")) * sign
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
