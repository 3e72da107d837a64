"""Graded multivariate polynomials over Q(sqrt2).

The ring is ``k[X_0, ..., X_{n-1}]`` with every variable in degree 2 (so all
degrees are even and "linear forms" have degree 2).  The canonical order of
monomials is graded lexicographic with ``X_0 > X_1 > ...``, largest term
first.

A ``Poly`` stores its terms in the format its products compute in,
``{packed exponent: (p, q, d)}``.  The exponent ``(e_0, ..., e_{n-1})`` is
one int with ``e_i`` in the ``_FIELD`` bits from bit ``_FIELD * i``, so a
product adds two ints.  The coefficient ``(p + q*sqrt2)/d`` is three ints in
lowest terms with ``d > 0`` (``scalars.reduced_triple``), never zero, so two
polynomials are equal exactly when their dicts are.  Exponent tuples and
``QSqrt2`` values appear only at the boundary: the constructors,
``coefficient``, ``sorted_terms``, the text form and the cold helpers
``LinearEndo`` and ``divide_by_linear``.

A product adds its term products into an ``{exponent: sum}`` dict of
unreduced triples (``_mul_into``, and inline ``bimodcalc._add_products``, one
dict per entry of a matrix product), and ``_from_sums`` builds the ``Poly``
once, reducing each sum and dropping the ones that cancelled.  The sums are
also read as they are: ``bimodcalc.mat_residuals`` compares them, and
``homotopy._delta`` hands them to ``linalg`` as equation entries.

A stored exponent is below ``2**(_FIELD - 1)``, so the sum of two never
carries into the next field: ``_from_sums`` refuses a product that reaches
that bound with one mask test, and the parser and the constructors take
exponents up to ``MAX_EXPONENT``, so a product of two of theirs is stored.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterable, Iterator
from functools import lru_cache, reduce
from operator import or_

from .errors import ExactDivisionError, ParseError, parse_int
from .scalars import ONE, SQRT2, QSqrt2, reduced, reduced_triple

Monomial = tuple  # exponent tuple of length n

_FIELD = 33
MAX_EXPONENT = (1 << (_FIELD - 2)) - 1


def _pack(exp: Monomial) -> int:
    """The packed code of the exponent tuple ``exp``; ``ValueError`` past ``MAX_EXPONENT``."""
    top = max(exp, default=0)
    if top > MAX_EXPONENT:
        raise ValueError(f"exponent {top} is too large to multiply (at most {MAX_EXPONENT})")
    return sum(e << (_FIELD * i) for i, e in enumerate(exp))


class _Unpacked(dict):
    """Packed code -> exponent tuple of ``n`` variables, filled on first use.

    ``carry`` has the top bit of each of the ``n`` fields, which no stored
    code sets.
    """

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n
        self.carry = sum(1 << (_FIELD * i + _FIELD - 1) for i in range(n))

    def __missing__(self, code: int) -> Monomial:
        mask = (1 << _FIELD) - 1
        exp = self[code] = tuple((code >> (_FIELD * i)) & mask for i in range(self.n))
        return exp


_unpacked = lru_cache(maxsize=None)(_Unpacked)  # variable count -> its one _Unpacked


def _mul_into(acc: dict, terms1: dict, terms2: dict) -> None:
    """Add every product of a term of ``terms1`` and a term of ``terms2`` into ``acc``.

    ``terms1`` and ``terms2`` are dicts in the format of ``Poly.terms``.
    ``acc`` maps a packed exponent to an unreduced sum ``(p, q, d)``, meaning
    ``(p + q*sqrt2)/d`` with ``d > 0``, and ``_from_sums`` reads it into a
    ``Poly``.  ``bimodcalc._add_products`` runs this loop inline.
    """
    for e1, (p1, q1, d1) in terms1.items():
        for e2, (p2, q2, d2) in terms2.items():
            exp = e1 + e2
            s = acc.get(exp)
            if s is None:
                acc[exp] = (p1 * p2 + 2 * q1 * q2, p1 * q2 + q1 * p2, d1 * d2)
                continue
            p, q, d, sd = p1 * p2 + 2 * q1 * q2, p1 * q2 + q1 * p2, d1 * d2, s[2]
            if sd == d:
                acc[exp] = (s[0] + p, s[1] + q, d)
            else:
                acc[exp] = (s[0] * d + p * sd, s[1] * d + q * sd, sd * d)


def _from_sums(n: int, acc: dict) -> "Poly":
    """The ``Poly`` of the sums ``_mul_into`` left in ``acc``, without the zero ones.

    ``ValueError`` if an exponent reaches the top bit of its field.
    """
    out = Poly(n)
    terms = out.terms = {code: s if s[2] == 1 else reduced_triple(*s) for code, s in acc.items() if s[0] or s[1]}
    exps = _unpacked(n)
    if reduce(or_, terms, 0) & exps.carry:
        top = max(e for code in terms for e in exps[code])
        raise ValueError(f"exponent {top} of a product is too large (at most {2 * MAX_EXPONENT + 1})")
    return out


def _triple(c) -> tuple:
    """The ``(p, q, d)`` of a ``QSqrt2`` or an int."""
    c = c if isinstance(c, QSqrt2) else QSqrt2(c)
    return c.p, c.q, c.d


class Poly:
    """A polynomial stored as ``{packed exponent: (p, q, d)}``, each triple in lowest terms and nonzero."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None) -> None:
        """``terms`` maps exponent tuples to coefficients, ``QSqrt2`` or int; zero ones are dropped."""
        self.n = n
        self.terms: dict = {}
        if terms:
            for exp, c in terms.items():
                if c:
                    self.terms[_pack(exp)] = _triple(c)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "Poly":
        return cls.constant(n, ONE)

    @classmethod
    def constant(cls, n: int, c) -> "Poly":
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, n: int, j: int) -> "Poly":
        if not 0 <= j < n:
            raise IndexError(f"variable index {j} out of range for n={n}")
        return cls(n, {tuple(1 if k == j else 0 for k in range(n)): ONE})

    @classmethod
    def monomial(cls, exp: Monomial, c=ONE) -> "Poly":
        return cls(len(exp), {tuple(exp): c})

    # -- ring operations --------------------------------------------------

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.n != self.n:
                raise ValueError("polynomials over different variable counts")
            return other
        return None

    def __add__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for code, t in o.terms.items():
            s = terms.get(code)
            if s is not None:
                (p1, q1, d1), (p2, q2, d2) = s, t
                t = reduced_triple(p1 * d2 + p2 * d1, q1 * d2 + q2 * d1, d1 * d2)
            if t[0] or t[1]:
                terms[code] = t
            else:
                del terms[code]
        out = Poly(self.n)
        out.terms = terms
        return out

    def __sub__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __neg__(self) -> "Poly":
        out = Poly(self.n)
        out.terms = {code: (-p, -q, d) for code, (p, q, d) in self.terms.items()}
        return out

    def __mul__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc: dict = {}
        _mul_into(acc, self.terms, o.terms)
        return _from_sums(self.n, acc)

    def scale(self, c) -> "Poly":
        cp, cq, cd = _triple(c)
        out = Poly(self.n)
        if cp or cq:
            out.terms = {
                code: reduced_triple(p * cp + 2 * q * cq, p * cq + q * cp, d * cd)
                for code, (p, q, d) in self.terms.items()
            }
        return out

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- grading and the boundary -------------------------------------------

    def is_homogeneous(self, d: int | None = None) -> bool:
        exps = _unpacked(self.n)
        degs = {2 * sum(exps[code]) for code in self.terms}
        return len(degs) <= 1 and (d is None or degs <= {d})

    def coefficient(self, exp: Monomial) -> QSqrt2:
        return reduced(*self.terms.get(_pack(exp), (0, 0, 1)))

    def constant_term(self) -> QSqrt2:
        return reduced(*self.terms.get(0, (0, 0, 1)))

    def sorted_terms(self) -> list:
        """``(exponent tuple, QSqrt2)`` per term, largest first in the canonical order."""
        exps = _unpacked(self.n)
        terms = [(exps[code], c) for code, c in self.terms.items()]
        terms.sort(key=lambda t: (sum(t[0]), t[0]), reverse=True)
        return [(exp, reduced(*c)) for exp, c in terms]

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
        exps = _unpacked(self.n)
        result = Poly.zero(self.n)
        for code, c in p.terms.items():
            term = Poly(self.n)
            term.terms = {0: c}
            for j, e in enumerate(exps[code]):
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


@lru_cache(maxsize=None)
def monomial_codes(n: int, d: int) -> tuple:
    """The packed codes of ``monomial_exponents(n, d)``, in that order."""
    return tuple(_pack(exp) for exp in monomial_exponents(n, d))


def divide_by_linear(p: Poly, ell: Poly) -> Poly:
    """Return ``q`` with ``p == ell * q`` for a linear form ``ell``, or raise.

    Single-divisor division in the canonical monomial order; a nonzero
    remainder means ``ell`` does not divide ``p`` (for Demazure decomposition
    that signals a wrongly chosen reflection root).
    """
    if not ell or not ell.is_homogeneous(2):
        raise ValueError("divisor must be a nonzero linear form")
    lead_exp, lead_coeff = ell.sorted_terms()[0]
    quotient = Poly.zero(p.n)
    rest = p
    while rest.terms:
        exp, c = rest.sorted_terms()[0]
        diff = tuple(a - b for a, b in zip(exp, lead_exp))
        if any(e < 0 for e in diff):
            raise ExactDivisionError(f"{ell} does not divide {p}")
        t = Poly.monomial(diff, c / lead_coeff)
        quotient = quotient + t
        rest = rest - t * ell
    return quotient


# -- polynomial text grammar --------------------------------------------------
#
# The one grammar of certificate entries.  An entry is a sum of terms joined
# by '+', a term is a product of factors joined by '*', and a factor is one
# of: a rational "3", "-1/2"; "sqrt2" or "-sqrt2"; a variable "X0", "-X1^2";
# or a number in parentheses, which is read as a polynomial that must be
# constant, e.g. "(1 + -1*sqrt2)*X0".  Digits are ASCII only.  A ParseError
# gives its position in the whole entry.  The printer is canonical and
# round-trips bit-exactly, which the certificate files rely on.  It writes
# each coefficient from its ``(p, q, d)`` ints (``QSqrt2.__str__``), in
# parentheses when both of its parts are nonzero.

_VAR_RE = re.compile(r"X([0-9]+)(?:\^([0-9]+))?")
_RAT_RE = re.compile(r"([0-9]+)(?:/([0-9]+))?")


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
    if c.p and c.q:
        return f"({c})"
    if has_vars and c == ONE:
        return ""
    return str(c)


def parse_poly(text: str, n: int) -> Poly:
    return _parse_sum(text, 0, text, n)


def _parse_sum(full: str, offset: int, text: str, n: int) -> Poly:
    """The sum ``text``, which starts at ``offset`` of ``full``; errors carry positions in ``full``."""
    if not text.strip():
        raise ParseError("empty polynomial", full, offset)
    result = Poly.zero(n)
    for start, term in _split_top(full, offset, text, "+"):
        if not term.strip():
            raise ParseError("empty term", full, start)
        result = result + _parse_term(full, start, term, n)
    return result


def _split_top(full: str, offset: int, text: str, sep: str) -> Iterator:
    """``(position in full, piece)`` for each piece of ``text`` between ``sep``s outside parentheses."""
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ')'", full, offset + i)
        elif ch == sep and depth == 0:
            yield offset + start, text[start:i]
            start = i + 1
    if depth:
        raise ParseError("unbalanced '('", full, offset + len(text) - 1)
    yield offset + start, text[start:]


def _parse_term(full: str, offset: int, term: str, n: int) -> Poly:
    coeff = ONE
    exp = [0] * n
    for at, raw in _split_top(full, offset, term, "*"):
        factor = raw.strip()
        if not factor:
            raise ParseError("empty factor", full, at)
        if factor.startswith("(") and factor.endswith(")"):
            # a number in parentheses holds no parenthesis, so the parse
            # recurses at most once, however deep the input nests
            start, inner = at + raw.index("(") + 1, factor[1:-1]
            nested = next((i for i, ch in enumerate(inner) if ch in "()"), None)
            if nested is not None:
                raise ParseError("parenthesis inside a number in parentheses", full, start + nested)
            inside = _parse_sum(full, start, inner, n)
            if not inside.is_homogeneous(0):
                raise ParseError("expected a number in parentheses", full, at)
            coeff = coeff * inside.constant_term()
            continue
        sign = 1 if factor.startswith("-") else 0
        if factor[sign:] == "sqrt2":
            coeff = coeff * SQRT2
        elif m := _VAR_RE.fullmatch(factor, sign):
            j = parse_int(m[1], full, at)
            if j >= n:
                raise ParseError(f"variable X{j} out of range for n={n}", full, at)
            exp[j] += parse_int(m[2], full, at) if m[2] else 1
            if exp[j] > MAX_EXPONENT:
                raise ParseError(f"exponent of X{j} over {MAX_EXPONENT}", full, at)
        elif m := _RAT_RE.fullmatch(factor, sign):
            den = parse_int(m[2], full, at) if m[2] else 1
            if den == 0:
                raise ParseError("zero denominator", full, at)
            coeff = coeff * reduced(parse_int(m[1], full, at), 0, den)
        else:
            raise ParseError(f"unrecognised factor {factor!r}", full, at)
        if sign:
            coeff = -coeff
    return Poly.monomial(tuple(exp), coeff)
