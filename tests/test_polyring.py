import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from braidcert.errors import ExactDivisionError, ParseError
from braidcert.polyring import (
    MAX_EXPONENT,
    LinearEndo,
    Poly,
    divide_by_linear,
    format_poly,
    monomial_exponents,
    parse_poly,
)
from braidcert.scalars import QSqrt2


def X(n, j):
    return Poly.variable(n, j)


coeffs = st.builds(QSqrt2, st.fractions(max_denominator=8), st.fractions(max_denominator=8))


def polys(n, max_degree=3):
    exps = [
        e
        for d in range(0, 2 * max_degree + 1, 2)
        for e in monomial_exponents(n, d)
    ]
    return st.dictionaries(st.sampled_from(exps), coeffs, max_size=6).map(
        lambda terms: Poly(n, terms)
    )


def test_product_example():
    # appears as a generator of an invariant subalgebra: X1*(sqrt2*X0 + X1)
    n = 2
    lhs = X(n, 1) * (X(n, 0).scale(QSqrt2.sqrt2()) + X(n, 1))
    expected = Poly(
        n,
        {
            (1, 1): QSqrt2.sqrt2(),
            (0, 2): QSqrt2(1),
        },
    )
    assert lhs == expected


def _convolution(p, q, size):
    """``p * q`` by the textbook rule, over dense exponent grids below ``size``.

    Coefficients are ``(a, b)`` pairs of ``Fraction``s standing for
    ``a + b*sqrt2``; the zero cells of the result are left out.
    """
    grid = list(itertools.product(range(size), repeat=p.n))
    zero = QSqrt2(0)
    out = {}
    for e1 in grid:
        c1 = p.terms.get(e1, zero)
        for e2 in grid:
            c2 = q.terms.get(e2, zero)
            e = tuple(x + y for x, y in zip(e1, e2))
            a, b = out.get(e, (Fraction(0), Fraction(0)))
            out[e] = (a + c1.a * c2.a + 2 * c1.b * c2.b, b + c1.a * c2.b + c1.b * c2.a)
    return {e: QSqrt2(a, b) for e, (a, b) in out.items() if a or b}


@given(polys(2), polys(2), st.booleans())
@example(X(2, 0), X(2, 1), True)
@settings(max_examples=60, deadline=None)
def test_product_matches_dense_convolution(p, q, cancel):
    if cancel:
        # (p + q) * (p - q): the cross products p*q and -q*p cancel
        p, q = p + q, p - q
    product = p * q
    assert product.terms == _convolution(p, q, 4)
    assert all(product.terms.values()), "a cancelled coefficient is stored"


def test_add_cancels():
    n = 2
    p = X(n, 1) + X(n, 0).scale(QSqrt2.sqrt2())
    assert p + X(n, 0).scale(-QSqrt2.sqrt2()) == X(n, 1)


def test_mul_square():
    n = 1
    assert X(n, 0) * X(n, 0) == Poly.monomial((2,))


def test_homogeneous_basis_examples():
    # the exponents of X0, X1 and of X0^2, X0*X1, X1^2, in canonical order
    assert monomial_exponents(2, 2) == [(1, 0), (0, 1)]
    assert monomial_exponents(2, 4) == [(2, 0), (1, 1), (0, 2)]
    assert monomial_exponents(2, 3) == []
    assert monomial_exponents(2, -2) == []


def test_homogeneous_basis_against_bruteforce():
    for n, d in itertools.product((1, 2, 3), (0, 2, 4, 6)):
        got = {tuple(e) for e in monomial_exponents(n, d)}
        want = {
            e
            for e in itertools.product(range(d // 2 + 1), repeat=n)
            if 2 * sum(e) == d
        }
        assert got == want


def test_divide_by_linear_examples():
    n = 2
    assert divide_by_linear(X(n, 0).scale(2) * X(n, 0), X(n, 0).scale(2)) == X(n, 0)
    assert divide_by_linear(X(n, 0) * X(n, 1) + X(n, 1) * X(n, 1), X(n, 1)) == X(n, 0) + X(n, 1)
    # X0 - alpha0(X0) = 2*X0
    assert divide_by_linear(X(n, 0).scale(2), X(n, 0).scale(2)) == Poly.one(n)


def test_divide_by_linear_failure():
    n = 2
    with pytest.raises(ExactDivisionError):
        divide_by_linear(X(n, 0) * X(n, 0) + X(n, 1), X(n, 1))


@given(polys(2), st.sampled_from([(1, 0), (0, 1)]), coeffs, coeffs)
@settings(max_examples=50)
def test_divide_multiples_exactly(q, exp, c0, c1):
    n = 2
    ell = X(n, 0).scale(c0) + X(n, 1).scale(c1)
    if not ell:
        return
    assert divide_by_linear(ell * q, ell) == q


def test_substitute_identity():
    n = 3
    p = X(n, 0) * X(n, 1) + X(n, 2)
    assert LinearEndo.identity(n).apply(p) == p


def test_endo_composition_property():
    n = 3
    e1 = LinearEndo([X(n, 0) + X(n, 1), X(n, 1), X(n, 2)])
    e2 = LinearEndo([X(n, 0), X(n, 0).scale(QSqrt2.sqrt2()) + X(n, 1), X(n, 1) + X(n, 2)])
    p = X(n, 0) * X(n, 2) + X(n, 1) * X(n, 1)
    assert e1.compose(e2).apply(p) == e1.apply(e2.apply(p))


def test_endo_requires_linear_images():
    n = 2
    with pytest.raises(ValueError):
        LinearEndo([X(n, 0) * X(n, 0), X(n, 1)])


def test_degree_and_homogeneity():
    n = 2
    p = X(n, 0) * X(n, 1)
    assert p.degree() == 4
    assert p.is_homogeneous(4)
    assert not (p + X(n, 0)).is_homogeneous()
    assert Poly.zero(n).is_homogeneous()


@given(polys(3))
@settings(max_examples=60)
def test_poly_text_round_trip(p):
    assert parse_poly(format_poly(p), 3) == p


def test_parse_poly_errors():
    with pytest.raises(ParseError):
        parse_poly("X0 + ", 2)
    with pytest.raises(ParseError):
        parse_poly("X5", 2)
    with pytest.raises(ParseError):
        parse_poly("foo*X0", 2)
    with pytest.raises(ParseError):
        parse_poly("", 2)


def test_parse_errors_carry_positions():
    for text, message, position in [
        ("(1 + 3/00*sqrt2)*X0", "zero denominator", 4),
        ("X0*(1", "unbalanced '('", 4),
        ("(1))*X0", "unbalanced ')'", 3),
        ("()*X0", "empty polynomial", 1),
        # spellings no printer writes
        ("(1 - sqrt2)*X0", "unrecognised factor '1 - sqrt2'", 1),
        ("(X0)*X1", "expected a number in parentheses", 0),
        ("((1/2))*(2*sqrt2)", "parenthesis inside a number in parentheses", 1),
        ("1 + (1 + X0)*X1", "expected a number in parentheses", 3),
        ("+1", "empty term", 0),
        ("(+1)*X0", "empty term", 1),
        ("- 1*X0", "unrecognised factor '- 1'", 0),
        ("--1*X0", "unrecognised factor '--1'", 0),
        ("X0 - X1", "unrecognised factor 'X0 - X1'", 0),
        # int() reads any Unicode digit: "X١^٢ + ١/٢" was once read as "X1^2 + 1/2"
        ("X١^٢ + ١/٢", "unrecognised factor 'X١^٢'", 0),
        ("X1^2 + ١/٢", "unrecognised factor '١/٢'", 6),
        ("(١)*X0", "unrecognised factor '١'", 1),
    ]:
        with pytest.raises(ParseError) as exc:
            parse_poly(text, 2)
        assert (exc.value.message, exc.value.position) == (message, position), text


def test_nested_parentheses_are_refused_at_any_depth():
    # a number in parentheses holds no parenthesis, so the parse recurses at
    # most once: 500 levels once ended in a RecursionError
    for depth in (2, 3, 500, 100_000):
        text = "(" * depth + "1" + ")" * depth
        with pytest.raises(ParseError) as exc:
            parse_poly(text, 2)
        assert (exc.value.message, exc.value.position) == ("parenthesis inside a number in parentheses", 1), depth
    for text, position in [("X0*((1))", 4), ("(1 + (2))*X0", 5), ("(1)(2)", 2)]:
        with pytest.raises(ParseError) as exc:
            parse_poly(text, 2)
        assert (exc.value.message, exc.value.position) == ("parenthesis inside a number in parentheses", position), text
    assert parse_poly("(1)*(2)*X0", 2) == parse_poly("2*X0", 2)


def test_constants_parse_like_the_scalar_printer():
    n = 2
    for text, value in [
        ("-1/2*sqrt2", QSqrt2(0, Fraction(-1, 2))),
        ("3", QSqrt2(3)),
        ("sqrt2", QSqrt2(0, 1)),
        ("-sqrt2", QSqrt2(0, -1)),
        ("1 + -1/2*sqrt2", QSqrt2(1, Fraction(-1, 2))),
        ("(1 + -1/2*sqrt2)", QSqrt2(1, Fraction(-1, 2))),
        ("(1/2)*(2*sqrt2)", QSqrt2(0, 1)),
    ]:
        assert parse_poly(text, n) == Poly.constant(n, value), text


@given(coeffs, st.integers(1, 4))
def test_scalar_text_round_trip(x, n):
    # a scalar's own text is a sum of constant terms; format_poly parenthesises it
    constant = Poly.constant(n, x)
    assert parse_poly(format_poly(constant), n) == constant
    assert parse_poly(str(x), n) == constant


def test_over_long_numbers_are_parse_errors():
    digits = "1" * 5000
    for text, position in [
        (f"X{digits}", 0),
        (f"1 + X0^{digits}", 3),
        (f"1 + -X{digits}*X1", 3),
        (f"(1 + -{digits}*sqrt2)*X0", 4),
    ]:
        with pytest.raises(ParseError) as exc:
            parse_poly(text, 2)
        assert exc.value.position == position, text
        assert exc.value.message == "number too long (5000 digits)"


def test_exponents_stay_inside_the_packed_field():
    # a factor may carry MAX_EXPONENT, so a product of two reaches 2 * MAX_EXPONENT
    top = parse_poly(f"X1^{MAX_EXPONENT}", 2)
    assert (top * top).terms == {(0, 2 * MAX_EXPONENT): QSqrt2(1)}
    assert format_poly(top * X(2, 0)) == f"X0*X1^{MAX_EXPONENT}"
    for text, position, j in [(f"X0^{MAX_EXPONENT + 1}", 0, 0), (f"1 + X1*X1^{MAX_EXPONENT}", 7, 1)]:
        with pytest.raises(ParseError) as exc:
            parse_poly(text, 2)
        assert exc.value.position == position, text
        assert exc.value.message == f"exponent of X{j} over {MAX_EXPONENT}"
    with pytest.raises(ValueError, match="too large to multiply"):
        Poly.monomial((MAX_EXPONENT + 1, 0)) * X(2, 0)


def test_parse_mixed_coefficient():
    p = parse_poly("(1 + -1*sqrt2)*X0*X1 + 1/2", 2)
    assert p.coefficient((1, 1)) == QSqrt2(1, -1)
    assert p.constant_term() == QSqrt2(Fraction(1, 2))


@given(polys(2), polys(2), polys(2))
@settings(max_examples=40)
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
