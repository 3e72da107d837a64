"""Exact arithmetic in the field Q(sqrt 2).

Every scalar appearing in the type-B reflection action lies in this field,
so fixing it (instead of working over the reals) makes equality decidable
and lets certificate checks be exact.

A value ``(p + q*sqrt(2)) / d`` is stored as three Python ints ``(p, q, d)``
with ``d > 0`` and ``gcd(p, q, d) == 1``; zero is ``(0, 0, 1)``.  Every
operation returns this form, which is unique because sqrt(2) is irrational,
so equality compares the three ints.  One operation costs a few int
products and at most one three-way gcd.

``QSqrt2(a, b)`` is ``a + b*sqrt(2)`` for two ints; a value with a
denominator is made by ``reduced(p, q, d)``, and the operators take a
``QSqrt2`` or an int.  Printing reads the ints too: ``a = p/d`` and
``b = q/d`` are written in lowest terms, as ``str`` writes a ``Fraction``,
but no ``Fraction`` is built anywhere in this module.  A value is not
hashable: nothing keys a dict or a cache by one.
"""

from __future__ import annotations

from math import gcd


class QSqrt2:
    """An element ``a + b*sqrt(2)`` with exact rational components."""

    __slots__ = ("p", "q", "d")

    def __init__(self, a: int = 0, b: int = 0) -> None:
        if type(a) is not int or type(b) is not int:
            raise TypeError(
                f"QSqrt2 takes two ints, not {type(a).__name__} and {type(b).__name__}; "
                "reduced(p, q, d) makes a value with a denominator"
            )
        self.p, self.q, self.d = a, b, 1

    @classmethod
    def _coerce(cls, x) -> "QSqrt2 | None":
        if isinstance(x, QSqrt2):
            return x
        return cls(x) if type(x) is int else None

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
        x = object.__new__(QSqrt2)
        x.p, x.q, x.d = inverse_triple(self.p, self.q, self.d)
        return x

    def __truediv__(self, other) -> "QSqrt2":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not QSqrt2:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self.p == other.p and self.q == other.q and self.d == other.d

    def __bool__(self) -> bool:
        return self.p != 0 or self.q != 0

    # -- text form -------------------------------------------------------
    #
    # The printer is canonical: "0", "3", "-1/2*sqrt2", "1 + -1*sqrt2", each
    # component written as ``str`` writes its ``Fraction``.  There is no
    # scalar parser: ``polyring.parse_poly`` reads a scalar as a constant
    # polynomial, so this text round-trips through it.

    def __str__(self) -> str:
        p, q, d = self.p, self.q, self.d
        if q == 0:
            return _rational_text(p, d)
        sqrt_part = f"{_rational_text(q, d)}*sqrt2"
        if p == 0:
            return sqrt_part
        return f"{_rational_text(p, d)} + {sqrt_part}"

    def __repr__(self) -> str:
        return f"QSqrt2({_rational_text(self.p, self.d)}, {_rational_text(self.q, self.d)})"


def _rational_text(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for ``d > 0``: ``n/d`` in lowest terms, or ``n`` when that is whole."""
    if d != 1:
        g = gcd(n, d)
        n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def reduced_triple(p: int, q: int, d: int) -> tuple:
    """``(p, q, d)`` for ``d > 0``, divided by ``gcd(p, q, d)``: the one normalisation.

    ``linalg`` keeps its rows as these triples and ``polyring.Poly`` its
    coefficients, and ``reduced`` makes a ``QSqrt2`` of one;
    ``inverse_triple`` and ``QSqrt2.inverse`` end here too.
    """
    if d != 1:
        g = gcd(p, q, d)
        if g != 1:
            return p // g, q // g, d // g
    return p, q, d


def inverse_triple(p: int, q: int, d: int) -> tuple:
    """``1 / ((p + q*sqrt2)/d)`` as a triple in lowest terms.

    It is ``d*(p - q*sqrt2) / (p^2 - 2 q^2)``; the norm is nonzero for
    nonzero values since sqrt2 is irrational.
    """
    norm = p * p - 2 * q * q
    if norm == 0:
        raise ZeroDivisionError("division by zero in Q(sqrt2)")
    if norm < 0:
        d, norm = -d, -norm
    return reduced_triple(d * p, -d * q, norm)


def reduced(p: int, q: int, d: int) -> QSqrt2:
    """The ``QSqrt2`` ``(p + q*sqrt2)/d`` for ``d > 0``, in lowest terms.

    Every operator ends here, and so does ``polyring`` where a coefficient
    leaves a polynomial as a ``QSqrt2``.
    """
    x = object.__new__(QSqrt2)
    x.p, x.q, x.d = reduced_triple(p, q, d)
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
