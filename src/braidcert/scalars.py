"""Exact arithmetic in the field Q(sqrt 2).

Every scalar appearing in the type-B reflection action lies in this field,
so fixing it (instead of working over the reals) makes equality decidable
and lets certificate checks be exact.

A value ``(p + q*sqrt(2)) / d`` is stored as three Python ints ``(p, q, d)``
with ``d > 0`` and ``gcd(p, q, d) == 1``; zero is ``(0, 0, 1)``.  Every
operation returns this form, which is unique because sqrt(2) is irrational,
so equality compares the three ints.  One operation costs a few int
products and at most one three-way gcd, where a pair of ``Fraction``s would
normalise each component on its own.

Printing and hashing read the ints too: the text of ``a = p/d`` and
``b = q/d`` is ``p/d`` divided by ``gcd(p, d)``, and the hash is Python's
numeric hash of those rationals.  ``Fraction`` appears only at the edges:
``QSqrt2(a, b)`` with components that are not ints, the ``a`` and ``b``
properties, and mixed arithmetic with a ``Fraction``; each of those imports
``fractions`` where it runs.
"""

from __future__ import annotations

import sys
from math import gcd, lcm


class QSqrt2:
    """An element ``a + b*sqrt(2)`` with exact rational components."""

    __slots__ = ("p", "q", "d")

    def __init__(self, a=0, b=0) -> None:
        if type(a) is int and type(b) is int:
            self.p, self.q, self.d = a, b, 1
            return
        if isinstance(a, float) or isinstance(b, float):
            raise TypeError("QSqrt2 components must be exact rationals, not floats")
        from fractions import Fraction

        a, b = Fraction(a), Fraction(b)
        d = lcm(a.denominator, b.denominator)  # then gcd(p, q, d) is already 1
        self.p = a.numerator * (d // a.denominator)
        self.q = b.numerator * (d // b.denominator)
        self.d = d

    @property
    def a(self) -> Fraction:
        """The rational part."""
        from fractions import Fraction

        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        """The coefficient of sqrt(2)."""
        from fractions import Fraction

        return Fraction(self.q, self.d)

    # -- constructors -------------------------------------------------

    @classmethod
    def sqrt2(cls) -> "QSqrt2":
        return cls(0, 1)

    @classmethod
    def _coerce(cls, x) -> "QSqrt2 | None":
        if isinstance(x, QSqrt2):
            return x
        if isinstance(x, int):
            return cls(x)
        from fractions import Fraction

        return cls(x) if isinstance(x, Fraction) else None

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
        d = self.d
        if d == 1:
            return hash((self.p, self.q))
        return hash((_rational_hash(self.p, d), _rational_hash(self.q, d)))

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


_MODULUS = sys.hash_info.modulus


def _rational_hash(n: int, d: int) -> int:
    """``hash(Fraction(n, d))`` for ``d > 0``, by the numeric hash rule of Python's ``hash``."""
    g = gcd(n, d)
    n, d = n // g, d // g
    try:
        h = hash(hash(abs(n)) * pow(d, -1, _MODULUS))
    except ValueError:  # d is a multiple of the modulus
        h = sys.hash_info.inf
    if n < 0:
        h = -h
    return -2 if h == -1 else h


def reduced_triple(p: int, q: int, d: int) -> tuple:
    """``(p, q, d)`` for ``d > 0``, divided by ``gcd(p, q, d)``: the one normalisation.

    ``linalg`` keeps its rows as these triples, and ``reduced`` makes a
    ``QSqrt2`` of one; ``inverse_triple`` and ``QSqrt2.inverse`` end here
    too.
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

    Every operator ends here, and so does ``polyring``'s product kernel,
    which sums products in ints and calls it once per coefficient.
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
