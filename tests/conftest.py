"""Fixtures and helpers shared by the test modules.

An empty certify-pair core cache for every test; the relation reports,
built once per session; the unit-fixing isomorphism the degree-0 solver
finds between two bimodules; the coordinates of ``1 (x) p (x) 1`` in a
tensor of two ``B_t``; the paper's generators of the invariant
subalgebras of four reflections; and ``Fraction`` pairs for values of
Q(sqrt2).
"""

from fractions import Fraction
from math import lcm

import pytest

from braidcert import homotopy
from braidcert.bimodcalc import mat_identity, mat_mul, solve_morphisms
from braidcert.coxeter import demazure_decompose
from braidcert.homotopy import relation_certificates
from braidcert.polyring import Poly, parse_poly
from braidcert.scalars import QSqrt2, reduced


@pytest.fixture(autouse=True)
def fresh_core_cache():
    """Each test starts with no certify-pair core cached, so what a test
    counts does not depend on the pairs the tests before it certified."""
    homotopy._CORE_CACHE.clear()


@pytest.fixture(scope="session")
def certificates_n2():
    return relation_certificates(2)


@pytest.fixture(scope="session")
def certificates_n3():
    return relation_certificates(3)


def solver_iso(src, tgt):
    """``(forward, inverse)``: the degree-0 map ``src -> tgt`` the solver finds, scaled to fix the unit.

    ``None`` unless ``Hom^0(src, tgt)`` is one-dimensional, its basis map is
    a bimodule map whose entry (0, 0) has a nonzero constant term (the unit,
    basis element 0 on both sides, goes to that constant times the unit),
    and ``graded_inverse`` inverts it on both sides.  ``forward`` is the
    basis map divided by that constant.
    """
    basis = solve_morphisms(src, tgt)
    if len(basis) != 1:
        return None
    (b,) = basis
    c = b.matrix[0][0].constant_term() if 0 in b.matrix[0] else None
    if not c or b.morphism_failures():
        return None
    forward = b.scale(c.inverse())
    inverse = forward.graded_inverse()
    if inverse is None:
        return None
    ident = mat_identity(src.rank, src.n)
    if mat_mul(*inverse.after(forward)) != ident or mat_mul(*forward.after(inverse)) != ident:
        return None
    return forward, inverse


def middle_coords(t, p):
    """Coordinates of ``1 (x) p (x) 1`` in ``B_t (x) B_u``: the t-invariant part of ``p`` moves left.

    ``p = p0 + p1 * root_t`` with ``p0`` and ``p1`` t-invariant, so the
    element is ``p0 (x) 1 (x) 1 + p1 (x) root_t (x) 1``, basis elements 0 and 2.
    """
    p0, p1 = demazure_decompose(t, p)
    zero = Poly.zero(p.n)
    return [p0, zero, p1, zero]


# Generators of the invariant subalgebra of each reflection the exchange maps
# move past one another, at three variables.  With n variables a generator
# that mentions a missing variable is dropped, and X3, ..., X(n-1), which every
# one of the four reflections fixes, are added.
INVARIANT_GENERATORS = {
    (0,): ("sqrt2*X0 + 2*X1", "X0^2", "X2"),
    (1,): ("2*X0 + sqrt2*X1", "X1 + 2*X2", "X1^2"),
    (1, 0, 1): ("X0", "X1 + X2", "sqrt2*X0*X1 + X1^2"),
    (0, 1, 0): ("X0 + sqrt2*X2", "X1", "X0^2 + sqrt2*X0*X1"),
}


def invariant_generators(word, n):
    texts = [t for t in INVARIANT_GENERATORS[word] if n > 2 or "X2" not in t]
    return [parse_poly(t, n) for t in texts] + [Poly.variable(n, j) for j in range(3, n)]


def qsqrt2(a, b=0) -> QSqrt2:
    """``a + b*sqrt2`` for two rationals (ints or ``Fraction``s), through ``reduced``."""
    a, b = Fraction(a), Fraction(b)
    d = lcm(a.denominator, b.denominator)
    return reduced(a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), d)


def parts(x: QSqrt2) -> tuple:
    """The rational part and the sqrt2 coefficient of ``x``, as ``Fraction``s."""
    return Fraction(x.p, x.d), Fraction(x.q, x.d)
