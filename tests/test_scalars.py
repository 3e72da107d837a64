from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from braidcert.errors import ParseError
from braidcert.polyring import Poly, format_poly, parse_poly
from braidcert.scalars import ONE, SQRT2, QSqrt2, reduced
from conftest import parts, qsqrt2

rationals = st.fractions(max_denominator=50)
scalars = st.builds(qsqrt2, rationals, rationals)


def test_sqrt2_squares_to_two():
    half_sqrt2 = reduced(0, 1, 2)
    assert half_sqrt2 * half_sqrt2 == reduced(1, 0, 2)


def test_additive_inverse():
    assert reduced(0, -1, 2) + reduced(0, 1, 2) == QSqrt2(0)


def test_div_one_by_sqrt2_multiplies_back():
    x = ONE / SQRT2
    assert x == reduced(0, 1, 2)
    # oracle: multiplying back recovers the dividend
    assert x * SQRT2 == ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / QSqrt2(0)


def test_floats_rejected():
    with pytest.raises(TypeError):
        QSqrt2(0.5)


def test_only_ints_construct():
    # a value with a denominator comes from reduced(p, q, d)
    for a, b in [(Fraction(1, 2), 0), (0, Fraction(1, 2)), (Fraction(2), 0), ("1", 0), (QSqrt2(1), 0)]:
        with pytest.raises(TypeError):
            QSqrt2(a, b)
    assert (QSqrt2(3, -4).p, QSqrt2(3, -4).q, QSqrt2(3, -4).d) == (3, -4, 1)


def test_printed_forms():
    # the text parse_poly reads back as a constant (tests/test_polyring.py)
    assert [str(x) for x in (QSqrt2(0), QSqrt2(3), reduced(0, -1, 2), QSqrt2(1, -1))] == [
        "0",
        "3",
        "-1/2*sqrt2",
        "1 + -1*sqrt2",
    ]


# Certificate numbers are read as constant polynomials, so these parse
# through parse_poly; positions are those in the whole entry.
def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_poly("1 + bogus", 1)
    assert (exc.value.message, exc.value.position) == ("unrecognised factor 'bogus'", 3)
    with pytest.raises(ParseError):
        parse_poly("", 1)


def test_zero_denominator_is_parse_error():
    for text, position in [("1/0", 0), ("1 + 3/00*sqrt2", 3)]:
        with pytest.raises(ParseError) as exc:
            parse_poly(text, 1)
        assert (exc.value.message, exc.value.position) == ("zero denominator", position), text


def test_over_long_numbers_are_parse_errors():
    digits = "1" * 5000
    for text, position in [(digits, 0), (f"1 + 1/{digits}*sqrt2", 3)]:
        with pytest.raises(ParseError) as exc:
            parse_poly(text, 1)
        assert exc.value.position == position, text
        assert exc.value.message == "number too long (5000 digits)"


@given(scalars, scalars, scalars)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    assert x + QSqrt2(0) == x
    assert x * ONE == x
    assert x + (-x) == QSqrt2(0)


@given(scalars)
def test_multiplicative_inverse(x):
    if x:
        assert x * x.inverse() == ONE


@given(scalars, scalars)
def test_equality_iff_components(x, y):
    assert (x == y) == (parts(x) == parts(y))


def _in_normal_form(x):
    return x.d > 0 and gcd(x.p, x.q, x.d) == 1


@given(rationals, rationals, rationals, rationals)
def test_operations_match_fraction_formulas(a1, b1, a2, b2):
    # Oracle on Fraction pairs: the field axioms above also hold in Q(sqrt3),
    # so they cannot catch a wrong constant in the product.
    x, y = qsqrt2(a1, b1), qsqrt2(a2, b2)
    expected = {
        "add": (x + y, (a1 + a2, b1 + b2)),
        "sub": (x - y, (a1 - a2, b1 - b2)),
        "rsub": (1 - x, (1 - a1, -b1)),
        "mul": (x * y, (a1 * a2 + 2 * b1 * b2, a1 * b2 + b1 * a2)),
        "neg": (-x, (-a1, -b1)),
    }
    norm = a1 * a1 - 2 * b1 * b1
    if norm:
        expected["inverse"] = (x.inverse(), (a1 / norm, -b1 / norm))
    for name, (got, (a, b)) in expected.items():
        assert parts(got) == (a, b), name
        assert _in_normal_form(got), name
    assert _in_normal_form(x) and parts(x) == (a1, b1)


# Parts of a triple (p + q*sqrt2)/d: zero, small, negative and 100-digit.
_BIG = 10**99
_parts = st.one_of(st.just(0), st.integers(-12, 12), st.integers(-(10 * _BIG), 10 * _BIG))
_denominators = st.one_of(st.integers(1, 12), st.integers(_BIG, 10 * _BIG))


def _fraction_printed(x):
    """The printer's text as the ``Fraction`` components give it: the oracle."""
    a, b = Fraction(x.p, x.d), Fraction(x.q, x.d)
    if b == 0:
        return str(a)
    return f"{b}*sqrt2" if a == 0 else f"{a} + {b}*sqrt2"


@given(_parts, _parts, _denominators)
@example(0, 0, 7)
@example(-6, 4, 2)
@example(3 * _BIG, -_BIG, 6 * _BIG)
@example(1, -1, 2**61 - 1)  # a large prime denominator
def test_printing_from_the_ints_matches_the_fractions(p, q, d):
    x = reduced(p, q, d)
    a, b = Fraction(p, d), Fraction(q, d)
    assert str(x) == _fraction_printed(x)
    assert repr(x) == f"QSqrt2({a}, {b})"
    # format_poly puts a coefficient with both parts nonzero in parentheses,
    # drops a coefficient of 1 before variables, and reads back exactly
    n = 2
    coeff = f"({_fraction_printed(x)})" if a and b else _fraction_printed(x)
    for poly, text in [
        (Poly.constant(n, x), coeff),
        (Poly.monomial((1, 2), x), "X0*X1^2" if x == ONE else f"{coeff}*X0*X1^2"),
    ]:
        assert format_poly(poly) == (text if x else "0")
        assert parse_poly(format_poly(poly), n) == poly
