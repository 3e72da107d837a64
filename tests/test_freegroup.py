import functools

import pytest
from hypothesis import given, settings, strategies as st

from braidcert import freegroup as fg


def test_reduce_examples():
    assert fg.reduce_word([(1, 1), (1, -1)]) == ()
    assert fg.reduce_word([("t", 1), (2, 1), (2, -1), ("t", -1)]) == ()
    assert fg.reduce_word([(1, 1), ("t", 1), ("t", -1), (2, 1)]) == ((1, 1), (2, 1))


@given(st.lists(st.tuples(st.integers(-3, 3), st.sampled_from([1, -1]))))
def test_reduce_idempotent(letters):
    once = fg.reduce_word(letters)
    assert fg.reduce_word(once) == once


def naive_inverse(word):
    return tuple((g, -e) for g, e in reversed(list(word)))


@given(st.lists(st.tuples(st.integers(-2, 2), st.sampled_from([1, -1])), max_size=8))
def test_word_times_inverse_reduces_to_empty(letters):
    assert fg.invert_word(letters) == naive_inverse(letters)
    assert fg.reduce_word(list(letters) + list(fg.invert_word(letters))) == ()


def test_word_text_form():
    assert fg.format_word(((1, 1), (2, -1), (fg.T, 1))) == "a1 a2^-1 t"
    assert fg.format_word(((-1, 1), (fg.T, -1), (0, 1))) == "a-1 t^-1 a0"
    assert fg.format_word(()) == "1"


GENS = fg.strand_gens(1, 3)  # four strands: a1..a4, t


def sigma(i):
    return fg.sigma_auto(i, GENS)


def sigma_inv(i):
    return fg.sigma_inv_auto(i, GENS)


def zeta(i):
    return fg.zeta_auto(i, GENS)


def test_generator_images():
    a1 = ((1, 1),)
    assert fg.format_word(sigma(1).apply(a1)) == "a2"
    assert fg.format_word(zeta(1).apply(a1)) == "t a2 t^-1"
    assert fg.format_word(fg.FreeAutomorphism.identity(GENS).apply(a1 + a1 + ((2, 1),))) == "a1 a1 a2"


def test_sigma_inverse_two_sided():
    for i in (1, 2, 3):
        assert sigma(i).compose(sigma_inv(i)) == fg.FreeAutomorphism.identity(GENS)
        assert sigma_inv(i).compose(sigma(i)) == fg.FreeAutomorphism.identity(GENS)


def test_zeta_is_involution():
    for i in (1, 2, 3):
        assert zeta(i).compose(zeta(i)) == fg.FreeAutomorphism.identity(GENS)


def img(word_letters, lo=1, hi=3):
    return fg.manturov_image(word_letters, lo, hi)


def test_zeta_sigma_image():
    # the invariant of "zet_i sig_i" sends a_i to t^-1 a_i t
    got = img([("zet", 1, 1), ("sig", 1, 1)])
    assert fg.format_word(got.image(1)) == "t^-1 a1 t"


def test_sigma_zeta_image():
    got = img([("sig", 1, 1), ("zet", 1, 1)])
    assert fg.format_word(got.image(1)) == "t a2^-1 a1 a2 t^-1"


def test_sigma_zeta_not_equal_zeta_sigma():
    assert img([("sig", 1, 1), ("zet", 1, 1)]) != img([("zet", 1, 1), ("sig", 1, 1)])


def _forbidden_pair(i=1):
    lhs = img([("zet", i, 1), ("sig", i + 1, 1), ("sig", i, 1)])
    rhs = img([("sig", i + 1, 1), ("sig", i, 1), ("zet", i + 1, 1)])
    return lhs, rhs


def test_forbidden_move_tables():
    i = 1
    lhs, rhs = _forbidden_pair(i)
    assert fg.format_word(lhs.image("t")) == "t"
    assert fg.format_word(lhs.image(i)) == f"a{i+2}"
    assert fg.format_word(lhs.image(i + 1)) == f"a{i+2}^-1 t a{i+1} t^-1 a{i+2}"
    assert fg.format_word(lhs.image(i + 2)) == f"a{i+2}^-1 t^-1 a{i} t a{i+2}"
    assert fg.format_word(rhs.image(i)) == f"a{i+2}"
    assert fg.format_word(rhs.image(i + 1)) == f"t a{i+2}^-1 a{i+1} a{i+2} t^-1"
    assert fg.format_word(rhs.image(i + 2)) == f"t^-1 a{i+2}^-1 a{i} a{i+2} t"
    assert lhs != rhs
    assert fg.first_difference(lhs, rhs) == i + 1


def test_forbidden_move_merges_at_t_equal_one():
    lhs, rhs = _forbidden_pair()
    assert lhs.specialize_t1() == rhs.specialize_t1()


def test_specialize_t1_examples():
    z = zeta(1)
    assert z.specialize_t1().image(1) == ((2, 1),)
    ident = fg.FreeAutomorphism.identity(GENS)
    assert ident.specialize_t1() == fg.FreeAutomorphism.identity(tuple(g for g in GENS if g != "t"))


def test_images_fix_t():
    for letters in [
        [("sig", 1, 1)],
        [("sig", 2, -1)],
        [("zet", 3, 1)],
        [("sig", 1, 1), ("zet", 2, 1), ("sig", 3, -1)],
    ]:
        assert fg.T not in img(letters).images


def test_image_index_range_enforced():
    with pytest.raises(IndexError):
        img([("sig", 5, 1)])


braid_letter = st.tuples(st.sampled_from(["sig", "zet"]), st.integers(1, 3), st.sampled_from([1, -1]))
braid_letters = st.lists(braid_letter, max_size=6)


@given(braid_letters, braid_letters)
@settings(max_examples=40, deadline=None)
def test_invariant_is_homomorphism(u, v):
    uv = list(u) + list(v)
    assert img(uv) == img(u).compose(img(v))


@pytest.mark.parametrize("lo, hi", [(1, 7), (-7, 7)])
def test_every_letter_automorphism_fixes_t(lo, hi):
    # the premise of cancelling a common context at t = 1 (``words`` module doc)
    gens = fg.strand_gens(lo, hi)
    for i in range(lo, hi + 1):
        for auto in (fg.sigma_auto(i, gens), fg.sigma_inv_auto(i, gens), fg.zeta_auto(i, gens)):
            assert auto.image(fg.T) == ((fg.T, 1),)


@given(st.lists(st.lists(braid_letter, max_size=6), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_specialize_t1_is_multiplicative(pieces):
    autos = [img(piece) for piece in pieces]
    whole = functools.reduce(fg.FreeAutomorphism.compose, autos)
    specialised = [auto.specialize_t1() for auto in autos]
    assert whole.specialize_t1() == functools.reduce(fg.FreeAutomorphism.compose, specialised)


def _invert_braid_letters(letters):
    out = []
    for kind, index, exp in reversed(list(letters)):
        out.append((kind, index, -exp if kind == "sig" else 1))
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_all_vb_relators_map_to_identity(n):
    from braidcert.words import invariant, relator_table

    for rel in relator_table("vbA", n):
        assert invariant(rel.lhs) == invariant(rel.rhs), rel.label
        # u v^-1 literally maps to the identity automorphism
        letters = list(rel.lhs.letters) + _invert_braid_letters(rel.rhs.letters)
        auto = fg.manturov_image(letters, 1, n - 1)
        assert auto == fg.FreeAutomorphism.identity(auto.gens), rel.label


def test_long_images_from_doubling():
    # the two sides of "z0 s1 z0 s1" vs "s1 z0 s1 z0" after doubling, n=2
    lo, hi = -1, 1
    w1 = [("zet", 0, 1), ("sig", -1, 1), ("sig", 1, 1), ("zet", 0, 1), ("sig", -1, 1), ("sig", 1, 1)]
    w2 = [("sig", -1, 1), ("sig", 1, 1), ("zet", 0, 1), ("sig", -1, 1), ("sig", 1, 1), ("zet", 0, 1)]
    i1 = fg.manturov_image(w1, lo, hi)
    i2 = fg.manturov_image(w2, lo, hi)
    assert fg.format_word(i1.image(2)) == "a2^-1 t^-1 a0^-1 t a2 a1^-1 t^-1 a-1 t a1 a2^-1 t^-1 a0 t a2"
    assert fg.format_word(i2.image(2)) == "a2^-1 a1^-1 a2 t^-1 a0^-1 a-1 a0 t a2^-1 a1 a2"
    assert i1 != i2
    assert fg.first_difference(i1, i2) == 2


def letter_auto(kind, index, exp):
    if kind == "zet":
        return zeta(index)
    return sigma(index) if exp == 1 else sigma_inv(index)


free_words = st.lists(st.tuples(st.sampled_from(GENS), st.sampled_from([1, -1])), max_size=6)


@given(braid_letters, free_words)
@settings(max_examples=60, deadline=None)
def test_image_applies_letters_rightmost_first(letters, word):
    expected = fg.reduce_word(word)
    for letter in reversed(letters):
        expected = letter_auto(*letter).apply(expected)
    assert img(letters).apply(word) == expected


@given(braid_letters)
@settings(max_examples=60, deadline=None)
def test_stored_images_are_reduced_and_moved(letters):
    for auto in (img(letters), img(letters).specialize_t1()):
        for g, image in auto.images.items():
            assert fg.reduce_word(image) == image
            assert image != ((g, 1),)


def test_equal_automorphisms_built_two_ways_compare_equal():
    identity = fg.FreeAutomorphism.identity(GENS)
    for i in (1, 2, 3):
        square = zeta(i).compose(zeta(i))
        assert square == identity
    lhs = img([("sig", 1, 1), ("sig", 2, 1), ("sig", 1, 1)])
    rhs = img([("sig", 2, 1), ("sig", 1, 1), ("sig", 2, 1)])
    assert lhs == rhs


# -- the seam join against a naive oracle ----------------------------------------------
#
# the oracle is plain concatenation of the images, then one reduce_word of the
# whole: it assumes nothing about which letters can cancel


def naive_apply(images, word):
    out = []
    for gen, exp in word:
        image = images.get(gen)
        if image is None:
            image = ((gen, 1),)
        out.extend(image if exp == 1 else naive_inverse(image))
    return fg.reduce_word(out)


def naive_image(letters):
    images = {}
    for letter in letters:
        moved = {g: naive_apply(images, w) for g, w in letter_auto(*letter).images.items()}
        images = {g: w for g, w in {**images, **moved}.items() if w != ((g, 1),)}
    return images


@given(st.lists(braid_letter, max_size=12))
@settings(max_examples=150, deadline=None)
def test_image_matches_naive_fold(letters):
    tables = {letter: dict(letter_auto(*letter).images) for letter in letters}
    assert img(letters).images == naive_image(letters)
    # the cached letter automorphisms come out of the fold unchanged
    assert tables == {letter: letter_auto(*letter).images for letter in letters}


# words with a cancelling middle: u x x^-1 v
unreduced_words = st.tuples(free_words, free_words, free_words).map(
    lambda t: t[0] + t[1] + list(naive_inverse(t[1])) + t[2]
)


@given(braid_letters, unreduced_words)
@settings(max_examples=100, deadline=None)
def test_apply_on_unreduced_words_matches_naive_reduction(letters, word):
    auto = img(letters)
    assert auto.apply(word) == naive_apply(auto.images, word)


def test_apply_refuses_unknown_generators():
    for auto in (sigma(1), fg.FreeAutomorphism.identity(GENS)):
        with pytest.raises(KeyError):
            auto.apply(((1, 1), (9, 1)))


def test_compose_with_a_letter_applies_twice(monkeypatch):
    a = img([("sig", 1, 1), ("zet", 2, 1), ("sig", 3, -1), ("zet", 1, 1)])
    apply = fg.FreeAutomorphism.apply
    calls = []

    def counted(self, word):
        calls.append(word)
        return apply(self, word)

    monkeypatch.setattr(fg.FreeAutomorphism, "apply", counted)
    for i in (1, 2, 3):
        calls.clear()
        a.compose(sigma(i))
        assert len(calls) == 2, i
