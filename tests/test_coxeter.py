import itertools

import pytest
from hypothesis import given, settings, strategies as st

from braidcert.coxeter import (
    Reflection,
    act,
    alpha,
    cartan,
    demazure_decompose,
    make_reflection,
    word_endo,
)
from braidcert.errors import ReflectionError
from braidcert.homotopy import F_word
from braidcert.polyring import LinearEndo, Poly, monomial_exponents
from braidcert.scalars import SQRT2, QSqrt2, reduced
from braidcert.words import Alphabet, parse_word
from conftest import invariant_generators, qsqrt2


def X(n, j):
    return Poly.variable(n, j)


def test_cartan_values():
    t = cartan(4)
    assert t[0][0] == QSqrt2(1)
    assert t[0][1] == reduced(0, -1, 2)
    assert t[1][2] == reduced(-1, 0, 2)
    assert t[0][2] == QSqrt2(0)
    for i, j in itertools.product(range(4), repeat=2):
        assert t[i][j] == t[j][i]


def test_alpha0_images():
    a0 = alpha(0, 3)
    assert a0.images[0] == -X(3, 0)
    assert a0.images[1] == X(3, 1) + X(3, 0).scale(SQRT2)
    assert a0.images[2] == X(3, 2)


def test_alpha1_images():
    a1 = alpha(1, 3)
    assert a1.images[0] == X(3, 0) + X(3, 1).scale(SQRT2)
    assert a1.images[1] == -X(3, 1)
    assert a1.images[2] == X(3, 1) + X(3, 2)


def test_alpha_middle_generator():
    n = 5
    a2 = alpha(2, n)
    assert a2.images[1] == X(n, 1) + X(n, 2)
    assert a2.images[3] == X(n, 3) + X(n, 2)
    assert a2.images[2] == -X(n, 2)
    assert a2.images[4] == X(n, 4)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_coxeter_relations(n):
    identity = LinearEndo.identity(n)
    for i in range(n):
        assert alpha(i, n).compose(alpha(i, n)) == identity
    for i, j in itertools.combinations(range(n), 2):
        if j - i > 1:
            assert word_endo((i, j), n) == word_endo((j, i), n)
    for i in range(1, n - 1):
        assert word_endo((i, i + 1, i), n) == word_endo((i + 1, i, i + 1), n)
    assert word_endo((0, 1, 0, 1), n) == word_endo((1, 0, 1, 0), n)


def test_act_composition_order():
    # act([1,0,1], X0) == X0, cross-checked by explicit nesting
    n = 3
    assert act((1, 0, 1), X(n, 0)) == X(n, 0)
    nested = alpha(1, n).apply(alpha(0, n).apply(alpha(1, n).apply(X(n, 0))))
    assert act((1, 0, 1), X(n, 0)) == nested
    assert act((), X(n, 0) * X(n, 2)) == X(n, 0) * X(n, 2)


def test_relB3_on_all_variables():
    n = 4
    for j in range(n):
        assert act((0, 1, 0, 1), X(n, j)) == act((1, 0, 1, 0), X(n, j))


@given(st.lists(st.integers(0, 3), max_size=6))
@settings(max_examples=60, deadline=None)
def test_word_endo_matches_letterwise_action(word):
    # oracle: each variable's image through the letters, rightmost first, by
    # apply alone (word_endo composes)
    n = 4
    for j in range(n):
        image = X(n, j)
        for i in reversed(word):
            image = alpha(i, n).apply(image)
        assert word_endo(tuple(word), n).images[j] == image


def test_a_long_run_of_virtual_letters_stays_iterative():
    # 5000 letters, far past the recursion limit; (s0 s1)^4 = 1 in type B
    n = 3
    (twist,) = F_word(parse_word("z0 z1 " * 2500, Alphabet.vbB(n)), n).objects.values()
    assert [row[0][0] for row in twist.actions] == [X(n, j) for j in range(n)]
    assert word_endo((1,) + (0, 1) * 2500, n) == alpha(1, n)


def test_element_equal_examples():
    # the action is faithful, so equal endomorphisms mean equal elements:
    # (s1 s0 s1) s0 (s1 s0 s1) spells the same element as s0
    assert word_endo((1, 0, 1, 0, 1, 0, 1), 3) == word_endo((0,), 3)
    for i in range(3):
        assert word_endo((i, i), 3) == word_endo((), 3)
    assert word_endo((0, 1), 2) != word_endo((1, 0), 2)


def test_is_invariant_examples():
    n = 3
    p = X(n, 0).scale(SQRT2) + X(n, 1).scale(2)
    assert act((0,), p) == p
    q = X(n, 1) * (X(n, 0).scale(SQRT2) + X(n, 1))
    assert act((1, 0, 1), q) == q
    assert act((0,), X(n, 0)) != X(n, 0)


def test_make_reflection_roots():
    n = 3
    assert make_reflection((0,), n).root == X(n, 0)
    r101 = make_reflection((1, 0, 1), n)
    assert r101.root == X(n, 0) + X(n, 1).scale(SQRT2)
    assert act((1, 0, 1), r101.root) == -r101.root
    r010 = make_reflection((0, 1, 0), n)
    assert r010.root == X(n, 1) + X(n, 0).scale(SQRT2)
    assert act((0, 1, 0), r010.root) == -r010.root


def test_make_reflection_rejects_non_reflections():
    with pytest.raises(ReflectionError):
        make_reflection((0, 1), 3)  # even length
    with pytest.raises(ReflectionError):
        make_reflection((0, 1, 2), 3)  # odd length but not an involution


def test_reflection_involution_property():
    n = 3
    for word in [(0,), (1,), (2,), (1, 0, 1), (0, 1, 0), (1, 2, 1), (2, 1, 0, 1, 2)]:
        r = make_reflection(word, n)
        assert r.endo.compose(r.endo).is_identity()
        assert r.apply(r.root) == -r.root


def test_demazure_examples():
    n = 2
    s0 = make_reflection((0,), n)
    p, q = demazure_decompose(s0, X(n, 0))
    assert (p, q) == (Poly.zero(n), Poly.one(n))
    p, q = demazure_decompose(s0, X(n, 1))
    assert p == X(n, 1) + X(n, 0).scale(reduced(0, 1, 2))
    assert q == Poly.constant(n, reduced(0, -1, 2))
    p, q = demazure_decompose(s0, X(n, 0) * X(n, 0))
    assert (p, q) == (X(n, 0) * X(n, 0), Poly.zero(n))


def coeffs():
    return st.builds(
        qsqrt2,
        st.fractions(max_denominator=6),
        st.fractions(max_denominator=6),
    )


@st.composite
def homogeneous_polys(draw, n, max_degree=12):
    d = draw(st.sampled_from(range(0, max_degree + 1, 2)))
    exps = monomial_exponents(n, d)
    terms = draw(st.dictionaries(st.sampled_from(exps), coeffs(), max_size=5))
    return Poly(n, terms)


@given(homogeneous_polys(3))
@settings(max_examples=60, deadline=None)
def test_demazure_reassembles(f):
    for word in [(0,), (1,), (1, 0, 1), (0, 1, 0)]:
        t = make_reflection(word, 3)
        p, q = demazure_decompose(t, f)
        assert p + q * t.root == f
        assert act(word, p) == p
        assert act(word, q) == q


def test_demazure_scalar_independence():
    # scaling the root leaves p alone and rescales q inversely
    n = 3
    t = make_reflection((1, 0, 1), n)
    scaled = Reflection(t.word, n, t.root.scale(QSqrt2(-3)), t.endo)
    f = X(n, 0) * X(n, 1) + X(n, 2) * X(n, 2)
    p1, q1 = demazure_decompose(t, f)
    p2, q2 = demazure_decompose(scaled, f)
    assert p1 == p2
    assert q1 == q2.scale(QSqrt2(-3))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_invariant_tables(n):
    for word in [(0,), (1,), (1, 0, 1), (0, 1, 0)]:
        gens = invariant_generators(word, n)
        assert gens
        for g in gens:
            assert act(word, g) == g


def test_x2_squared_identity():
    # X2^2 splits into a part invariant under both s0 and s1s0s1 plus a
    # multiple of X2 with invariant cofactor
    n = 3
    x0, x1, x2 = (X(n, j) for j in range(n))
    sqrt2 = SQRT2
    first = x1 * (x0.scale(sqrt2) + x1) - (x1 + x2) * (x1 + x2) - x0.scale(sqrt2) * (x1 + x2)
    second = x0.scale(sqrt2) + x1.scale(2) + x2.scale(2)
    assert first + second * x2 == x2 * x2
    for part in (first, second):
        assert act((0,), part) == part
        assert act((1, 0, 1), part) == part
