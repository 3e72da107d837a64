from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from braidcert.errors import ParseError
from braidcert.scalars import ONE, SQRT2, QSqrt2

rationals = st.fractions(max_denominator=50)
scalars = st.builds(QSqrt2, rationals, rationals)


def test_sqrt2_squares_to_two():
    half_sqrt2 = QSqrt2(0, Fraction(1, 2))
    assert half_sqrt2 * half_sqrt2 == QSqrt2(Fraction(1, 2))


def test_additive_inverse():
    assert QSqrt2(0, Fraction(-1, 2)) + QSqrt2(0, Fraction(1, 2)) == QSqrt2(0)


def test_div_one_by_sqrt2_multiplies_back():
    x = ONE / SQRT2
    assert x == QSqrt2(0, Fraction(1, 2))
    # oracle: multiplying back recovers the dividend
    assert x * SQRT2 == ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / QSqrt2(0)


def test_floats_rejected():
    with pytest.raises(TypeError):
        QSqrt2(0.5)


def test_parse_examples():
    assert QSqrt2.parse("-1/2*sqrt2") == QSqrt2(0, Fraction(-1, 2))
    assert QSqrt2.parse("3") == QSqrt2(3)
    assert str(QSqrt2(1, -1)) == "1 + -1*sqrt2"
    assert QSqrt2.parse("sqrt2") == SQRT2
    assert QSqrt2.parse("1 - 1/2*sqrt2") == QSqrt2(1, Fraction(-1, 2))


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        QSqrt2.parse("1 + bogus")
    assert exc.value.position == 4
    with pytest.raises(ParseError):
        QSqrt2.parse("")


def test_zero_denominator_is_parse_error():
    with pytest.raises(ParseError) as exc:
        QSqrt2.parse("1/0")
    assert exc.value.position == 0
    assert "zero denominator" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        QSqrt2.parse("1 + 3/00*sqrt2")
    assert exc.value.position == 4


@given(scalars)
def test_format_round_trip(x):
    assert QSqrt2.parse(str(x)) == x


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
    assert (x == y) == (x.a == y.a and x.b == y.b)


def _in_normal_form(x):
    return x.d > 0 and gcd(x.p, x.q, x.d) == 1


@given(rationals, rationals, rationals, rationals)
def test_operations_match_fraction_formulas(a1, b1, a2, b2):
    # Oracle on Fraction pairs: the field axioms above also hold in Q(sqrt3),
    # so they cannot catch a wrong constant in the product.
    x, y = QSqrt2(a1, b1), QSqrt2(a2, b2)
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
        assert (got.a, got.b) == (a, b), name
        assert _in_normal_form(got), name
        assert hash(got) == hash((got.a, got.b)), name
    assert _in_normal_form(x) and hash(x) == hash((a1, b1))
