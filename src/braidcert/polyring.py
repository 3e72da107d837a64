"""Graded multivariate polynomials over Q(sqrt2).

The ring is ``k[X_0, ..., X_{n-1}]`` with every variable in degree 2 (so all
degrees are even and "linear forms" have degree 2).  Monomials are dense
exponent tuples of length ``n``; the canonical order is graded lexicographic
with ``X_0 > X_1 > ...``, largest term first.

Every polynomial product goes through one multiply-accumulate helper,
``_mul_into``.  It adds term products, in ints, into an ``{exponent: sum}``
dict, and ``_from_sums`` turns that dict into a ``Poly`` once, reducing each
coefficient and dropping the ones that cancelled.  ``Poly.__mul__`` fills
one dict; ``bimodcalc.mat_mul`` fills one per output entry, so a sum of
products builds one ``Poly``, not one per product.
"""

from __future__ import annotations

import itertools
import re
from operator import add
from typing import Iterable, Iterator

from .errors import ExactDivisionError, ParseError
from .scalars import ONE, QSqrt2, reduced

Monomial = tuple  # exponent tuple of length n


def _monomial_key(exp: Monomial):
    return (sum(exp), exp)


def _mul_into(acc: dict, terms1: dict, terms2: dict) -> None:
    """Add every product of a term of ``terms1`` and a term of ``terms2`` into ``acc``.

    ``terms1`` and ``terms2`` are ``Poly.terms`` dicts.  ``acc`` maps an
    exponent to an unreduced sum ``(p, q, d)``, meaning ``(p + q*sqrt2)/d``
    with ``d > 0``; only ``_from_sums`` reads it.
    """
    get = acc.get
    for e1, c1 in terms1.items():
        p1, q1, d1 = c1.p, c1.q, c1.d
        for e2, c2 in terms2.items():
            exp = tuple(map(add, e1, e2))
            p2, q2, d = c2.p, c2.q, d1 * c2.d
            p, q = p1 * p2 + 2 * q1 * q2, p1 * q2 + q1 * p2
            s = get(exp)
            if s is None:
                acc[exp] = (p, q, d)
            elif s[2] == d:
                acc[exp] = (s[0] + p, s[1] + q, d)
            else:
                sd = s[2]
                acc[exp] = (s[0] * d + p * sd, s[1] * d + q * sd, sd * d)


def _from_sums(n: int, acc: dict) -> "Poly":
    """The ``Poly`` of the sums ``_mul_into`` left in ``acc``, without the zero ones."""
    out = Poly(n)
    out.terms = {exp: reduced(p, q, d) for exp, (p, q, d) in acc.items() if p or q}
    return out


class Poly:
    """A polynomial stored as ``{exponent tuple: nonzero QSqrt2}``."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None) -> None:
        self.n = n
        self.terms: dict = {}
        if terms:
            for exp, c in terms.items():
                if c:
                    self.terms[exp] = c

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "Poly":
        return cls(n, {(0,) * n: ONE})

    @classmethod
    def constant(cls, n: int, c) -> "Poly":
        c = c if isinstance(c, QSqrt2) else QSqrt2(c)
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, n: int, j: int) -> "Poly":
        if not 0 <= j < n:
            raise IndexError(f"variable index {j} out of range for n={n}")
        exp = tuple(1 if k == j else 0 for k in range(n))
        return cls(n, {exp: ONE})

    @classmethod
    def monomial(cls, exp: Monomial, c=ONE) -> "Poly":
        c = c if isinstance(c, QSqrt2) else QSqrt2(c)
        return cls(len(exp), {tuple(exp): c} if c else None)

    # -- ring operations --------------------------------------------------

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.n != self.n:
                raise ValueError("polynomials over different variable counts")
            return other
        if isinstance(other, (int, QSqrt2)):
            return Poly.constant(self.n, other)
        return None

    def __add__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for exp, c in o.terms.items():
            s = terms.get(exp)
            s = c if s is None else s + c
            if s:
                terms[exp] = s
            else:
                terms.pop(exp, None)
        out = Poly(self.n)
        out.terms = terms
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self) -> "Poly":
        out = Poly(self.n)
        out.terms = {exp: -c for exp, c in self.terms.items()}
        return out

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, QSqrt2)):
            return self.scale(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc: dict = {}
        _mul_into(acc, self.terms, o.terms)
        return _from_sums(self.n, acc)

    def __rmul__(self, other) -> "Poly":
        if isinstance(other, (int, QSqrt2)):
            return self.scale(other)
        return self.__mul__(other)

    def scale(self, c) -> "Poly":
        c = c if isinstance(c, QSqrt2) else QSqrt2(c)
        if not c:
            return Poly.zero(self.n)
        out = Poly(self.n)
        out.terms = {exp: k * c for exp, k in self.terms.items()}
        return out

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one(self.n)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    # -- grading -----------------------------------------------------------

    def degree(self) -> int:
        """Graded degree (each variable contributes 2); -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(2 * sum(exp) for exp in self.terms)

    def is_homogeneous(self, d: int | None = None) -> bool:
        if not self.terms:
            return True
        degs = {2 * sum(exp) for exp in self.terms}
        if len(degs) > 1:
            return False
        return d is None or degs == {d}

    def coefficient(self, exp: Monomial) -> QSqrt2:
        return self.terms.get(tuple(exp), QSqrt2(0))

    def constant_term(self) -> QSqrt2:
        return self.coefficient((0,) * self.n)

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda t: _monomial_key(t[0]), reverse=True)

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r}, n={self.n})"


class LinearEndo:
    """A degree-preserving algebra endomorphism given by images of the variables.

    Each image must be homogeneous of degree 2 (a linear form), which is all
    the reflection action ever needs.
    """

    __slots__ = ("n", "images")

    def __init__(self, images: Iterable[Poly]) -> None:
        self.images = tuple(images)
        if not self.images:
            raise ValueError("endomorphism needs at least one variable image")
        self.n = self.images[0].n
        for p in self.images:
            if p.n != self.n:
                raise ValueError("images over inconsistent variable counts")
            if not p.is_homogeneous(2):
                raise ValueError(f"image {p} is not a linear form")
        if len(self.images) != self.n:
            raise ValueError(f"expected {self.n} images, got {len(self.images)}")

    @classmethod
    def identity(cls, n: int) -> "LinearEndo":
        return cls(Poly.variable(n, j) for j in range(n))

    def apply(self, p: Poly) -> Poly:
        """Extend ``X_j -> images[j]`` to a ring homomorphism and evaluate."""
        if p.n != self.n:
            raise ValueError("polynomial over a different variable count")
        result = Poly.zero(self.n)
        for exp, c in p.terms.items():
            term = Poly.constant(self.n, c)
            for j, e in enumerate(exp):
                for _ in range(e):
                    term = term * self.images[j]
            result = result + term
        return result

    def compose(self, other: "LinearEndo") -> "LinearEndo":
        """``self`` after ``other``: (self.compose(other)).apply(p) == self.apply(other.apply(p))."""
        return LinearEndo(self.apply(img) for img in other.images)

    def matrix(self) -> list:
        """Row ``j`` holds the coordinates of ``images[j]`` in the X-basis."""
        rows = []
        for img in self.images:
            rows.append([img.coefficient(_unit(self.n, k)) for k in range(self.n)])
        return rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearEndo):
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def is_identity(self) -> bool:
        return self == LinearEndo.identity(self.n)

    def __repr__(self) -> str:
        return "LinearEndo([" + ", ".join(str(p) for p in self.images) + "])"


def _unit(n: int, k: int) -> Monomial:
    return tuple(1 if j == k else 0 for j in range(n))


def monomial_exponents(n: int, d: int) -> list:
    """Exponent tuples of graded degree ``d`` in canonical (descending) order."""
    if d < 0 or d % 2:
        return []
    total = d // 2
    exps = [
        tuple(e)
        for e in itertools.product(range(total + 1), repeat=n)
        if sum(e) == total
    ]
    exps.sort(reverse=True)
    return exps


def homogeneous_basis(n: int, d: int) -> list:
    """All monomials of graded degree ``d``, canonically ordered."""
    return [Poly.monomial(exp) for exp in monomial_exponents(n, d)]


def divide_by_linear(p: Poly, ell: Poly) -> Poly:
    """Return ``q`` with ``p == ell * q`` for a linear form ``ell``, or raise.

    Single-divisor division in the canonical monomial order; a nonzero
    remainder means ``ell`` does not divide ``p`` (for Demazure decomposition
    that signals a wrongly chosen reflection root).
    """
    if not ell or not ell.is_homogeneous(2):
        raise ValueError("divisor must be a nonzero linear form")
    lead_exp, lead_coeff = max(
        ell.terms.items(), key=lambda t: _monomial_key(t[0])
    )
    quotient = Poly.zero(p.n)
    rest = p
    while rest.terms:
        exp, c = max(rest.terms.items(), key=lambda t: _monomial_key(t[0]))
        diff = tuple(a - b for a, b in zip(exp, lead_exp))
        if any(e < 0 for e in diff):
            raise ExactDivisionError(f"{ell} does not divide {p}")
        t = Poly.monomial(diff, c / lead_coeff)
        quotient = quotient + t
        rest = rest - t * ell
    return quotient


# -- polynomial text grammar --------------------------------------------------
#
# "c*X0^2*X1 + ..." with '*'-separated factors per term; compound scalars are
# parenthesised, e.g. "(1 + -1*sqrt2)*X0".  The printer is canonical and
# round-trips bit-exactly, which the certificate files rely on.

_VAR_RE = re.compile(r"X(\d+)(?:\^(\d+))?$")
_RAT_RE = re.compile(r"-?\d+(?:/\d+)?$")


def format_poly(p: Poly) -> str:
    if not p.terms:
        return "0"
    parts = []
    for exp, c in p.sorted_terms():
        factors = []
        for j, e in enumerate(exp):
            if e == 1:
                factors.append(f"X{j}")
            elif e > 1:
                factors.append(f"X{j}^{e}")
        coeff = _format_coeff(c, bool(factors))
        if coeff:
            factors.insert(0, coeff)
        parts.append("*".join(factors))
    return " + ".join(parts)


def _format_coeff(c: QSqrt2, has_vars: bool) -> str:
    if c.a != 0 and c.b != 0:
        return f"({c})"
    if has_vars and c == ONE:
        return ""
    return str(c)


def parse_poly(text: str, n: int) -> Poly:
    result = Poly.zero(n)
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty polynomial", text, 0)
    for start, term in _split_top(text, "+"):
        if not term.strip():
            raise ParseError("empty term", text, start)
        result = result + _parse_term(text, start, term, n)
    return result


def _split_top(text: str, sep: str) -> Iterator:
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ')'", text, i)
        elif ch == sep and depth == 0:
            yield start, text[start:i]
            start = i + 1
    if depth:
        raise ParseError("unbalanced '('", text, len(text) - 1)
    yield start, text[start:]


def _parse_term(full: str, offset: int, term: str, n: int) -> Poly:
    coeff = ONE
    exp = [0] * n
    seen_factor = False
    for fstart, factor in _split_top(term, "*"):
        factor = factor.strip()
        if not factor:
            raise ParseError("empty factor", full, offset + fstart)
        seen_factor = True
        if factor.startswith("(") and factor.endswith(")"):
            coeff = coeff * QSqrt2.parse(factor[1:-1])
            continue
        if factor == "sqrt2":
            coeff = coeff * QSqrt2.sqrt2()
            continue
        if factor == "-sqrt2":
            coeff = coeff * -QSqrt2.sqrt2()
            continue
        m = _VAR_RE.match(factor)
        if m:
            j = int(m.group(1))
            if j >= n:
                raise ParseError(f"variable X{j} out of range for n={n}", full, offset + fstart)
            exp[j] += int(m.group(2)) if m.group(2) else 1
            continue
        if factor.startswith("-X"):
            m = _VAR_RE.match(factor[1:])
            if m:
                j = int(m.group(1))
                if j >= n:
                    raise ParseError(
                        f"variable X{j} out of range for n={n}", full, offset + fstart
                    )
                coeff = -coeff
                exp[j] += int(m.group(2)) if m.group(2) else 1
                continue
        if _RAT_RE.match(factor):
            coeff = coeff * QSqrt2.parse(factor)
            continue
        raise ParseError(f"unrecognised factor {factor!r}", full, offset + fstart)
    if not seen_factor:
        raise ParseError("empty term", full, offset)
    return Poly.monomial(tuple(exp), coeff)
