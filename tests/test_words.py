import copy
import hashlib
import pickle
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from braidcert import freegroup as fg
from braidcert.errors import ParseError, parse_int
from braidcert.words import (
    Alphabet,
    BraidWord,
    check_relators_via_invariant,
    embed_j,
    format_word,
    invariant,
    invariant_difference,
    make_word,
    parse_word,
    relator_table,
)


def _concat(*words):
    """The letters of ``words`` one after another, over the first one's alphabet."""
    return BraidWord(words[0].alphabet, sum((w.letters for w in words), ()))


def test_words_compare_hash_and_print_by_their_fields():
    # Alphabet keys _token_table's cache; BraidWord stays a record, not a tuple
    ab = Alphabet.vbB(3)
    w = parse_word("s0 z1", ab)
    rel = relator_table("vbB", 2)[0]
    assert ab == Alphabet("vbB", 0, 2) and hash(ab) == hash(("vbB", 0, 2))
    assert ab != Alphabet.vbA(3) and ab != ("vbB", 0, 2)
    assert w == parse_word("s0 z1^-1", ab)
    assert w != parse_word("s0 z1", Alphabet.vbB(4)) and w != parse_word("z1 s0", ab)
    assert repr(ab) == "Alphabet(tag='vbB', lo=0, hi=2)"
    assert repr(w) == "BraidWord(alphabet=Alphabet(tag='vbB', lo=0, hi=2), letters=(('s', 0, 1), ('z', 1, 1)))"
    assert repr(rel).startswith("RelatorPair(label='relB3', lhs=BraidWord(alphabet=Alphabet(tag='vbB', lo=0, hi=1), ")
    with pytest.raises(AttributeError, match="cannot assign to field 'lo'"):
        ab.lo = 1
    with pytest.raises(AttributeError, match="cannot delete field 'letters'"):
        del w.letters
    with pytest.raises(TypeError):
        len(w)
    for record in (ab, w):
        assert copy.deepcopy(record) == record and pickle.loads(pickle.dumps(record)) == record
    # a relator pair compares by identity; its copies keep its fields
    for copied in (copy.deepcopy(rel), pickle.loads(pickle.dumps(rel))):
        assert copied != rel and (copied.label, copied.lhs, copied.rhs) == (rel.label, rel.lhs, rel.rhs)


def test_parse_vbB_example():
    ab = Alphabet.vbB(2)
    w = parse_word("s0 z1 s0 z1", ab)
    assert w.letters == (("s", 0, 1), ("z", 1, 1), ("s", 0, 1), ("z", 1, 1))


def test_parse_normalizes_z_inverse():
    ab = Alphabet.vbB(2)
    assert parse_word("z0^-1", ab).letters == (("z", 0, 1),)
    with pytest.raises(ParseError):
        parse_word("z0^2", ab)


def test_parse_errors():
    ab = Alphabet.vbB(3)
    with pytest.raises(ParseError) as exc:
        parse_word("s5", ab)
    assert exc.value.position == 0
    with pytest.raises(ParseError):
        parse_word("s0 sig1", ab)  # wrong alphabet kind
    with pytest.raises(ParseError):
        parse_word("q1", ab)
    aba = Alphabet.vbA_shifted(2)
    w = parse_word("sig-1 zet0 sig1^-1", aba)
    assert w.letters == (("sig", -1, 1), ("zet", 0, 1), ("sig", 1, -1))


def test_parse_error_names_the_rule_broken():
    ab = Alphabet.vbB(3)
    for text, message, position in [
        ("s0 sig1", "letter kind 'sig' not in alphabet vbB", 3),
        ("z1 s3", "index 3 outside 0..2", 3),
        ("z0^2", "involution letter z0 cannot carry exponent 2", 0),
        ("s1 s2^3", "exponent 3 not supported", 3),
        # int() reads any Unicode digit: "s١" was once read as "s1"
        ("s١", "unknown letter 's١'", 0),
        ("s0 z١^-1", "unknown letter 'z١^-1'", 3),
        ("s1^-١", "unknown letter 's1^-١'", 0),
    ]:
        with pytest.raises(ParseError) as exc:
            parse_word(text, ab)
        assert (exc.value.message, exc.value.position) == (message, position), text


def test_make_word_checks_each_letter():
    ab = Alphabet.vbB(3)
    assert make_word(ab, [("s", 2, -1), ("z", 0, 1)]).letters == (("s", 2, -1), ("z", 0, 1))
    for letter in [("sig", 1, 1), ("s", 3, 1), ("z", 0, -1), ("s", 1, 2)]:
        with pytest.raises(ValueError):
            make_word(ab, [("s", 0, 1), letter])


def test_over_long_numbers_are_parse_errors():
    ab = Alphabet.vbB(3)
    digits = "1" * 5000
    for text in [f"s0 s{digits}", f"s0 z1^{digits}"]:
        with pytest.raises(ParseError) as exc:
            parse_word(text, ab)
        assert exc.value.position == 3
        assert exc.value.message == "number too long (5000 digits)"


def test_z_squared_reduces_to_empty():
    ab = Alphabet.vbB(2)
    auto = invariant(parse_word("z0 z0", ab))
    assert auto == fg.FreeAutomorphism.identity(auto.gens)


def test_free_reduce_examples():
    ab = Alphabet.vbB(2)
    for text, reduced in [("s0 s0^-1", ""), ("z1 z1 z0", "z0"), ("s0 z1 z1 s0^-1", "")]:
        assert invariant(parse_word(text, ab)) == invariant(parse_word(reduced, ab)), text


def letters_strategy(n):
    kinds = st.sampled_from(["s", "z"])
    return st.lists(
        st.tuples(kinds, st.integers(0, n - 1), st.sampled_from([1, -1])).map(
            lambda t: (t[0], t[1], 1) if t[0] == "z" else t
        ),
        max_size=8,
    )


CANCELLING_PAIRS = [(("s", 1), ("s", -1)), (("s", -1), ("s", 1)), (("z", 1), ("z", 1))]


@given(letters_strategy(2), st.integers(0, 8), st.sampled_from(CANCELLING_PAIRS), st.integers(0, 1))
@settings(max_examples=30, deadline=None)
def test_free_reduce_preserves_invariant(letters, at, pair, index):
    # inserting s s^-1, s^-1 s or z z anywhere leaves the invariant unchanged
    ab = Alphabet.vbB(2)
    at = min(at, len(letters))
    inserted = letters[:at] + [(kind, index, exp) for kind, exp in pair] + letters[at:]
    assert invariant(make_word(ab, inserted)) == invariant(make_word(ab, letters))


# a copy of the positional parser: the oracle for every spelling, error
# message and position that parse_word's token table must reproduce
_ORACLE_TOKEN = re.compile(r"(sig|zet|s|z)(-?\d+)(?:\^(-?\d+))?$")


def positional_parse(text, alphabet):
    letters = []
    pos = 0
    for token in text.split():
        start = text.index(token, pos)
        pos = start + len(token)
        m = _ORACLE_TOKEN.match(token)
        if m is None:
            raise ParseError(f"unknown letter {token!r}", text, start)
        kind, index, exp = m.groups()
        index = parse_int(index, text, start)
        exp = 1 if exp is None else parse_int(exp, text, start)
        if kind in ("z", "zet") and exp == -1:
            exp = 1
        try:
            letters.append(alphabet.check_letter((kind, index, exp)))
        except ValueError as exc:
            raise ParseError(str(exc), text, start) from None
    return tuple(letters)


def parse_outcome(parse, text, alphabet):
    try:
        return parse(text, alphabet)
    except ParseError as exc:
        return exc.message, exc.position


PARSE_ALPHABETS = [Alphabet.vbB(4), Alphabet.vbA(4), Alphabet.vbA_shifted(4)]
# other spellings of letters, letters just outside each alphabet's index
# range, other kinds and malformed tokens
ODD_TOKENS = [
    "s01", "s3^1", "z3^-1", "s-1", "s4", "z4", "q1", "s3^-2", "s" + "7" * 5000,
    "sig01", "sig2^1", "zet2^-1", "sig0", "sig-4", "sig4", "zet-4", "sig2^-2", "zet1^" + "1" * 5000,
]


def canonical_tokens(alphabet):
    return [
        format_word(make_word(alphabet, [(kind, index, exp)]))
        for kind in alphabet.kinds
        for index in range(alphabet.lo, alphabet.hi + 1)
        for exp in ((1,) if kind in ("z", "zet") else (1, -1))
    ]


@st.composite
def spelled_words(draw):
    alphabet = draw(st.sampled_from(PARSE_ALPHABETS))
    tokens = draw(st.lists(st.sampled_from(canonical_tokens(alphabet)), max_size=8))
    for at, token in draw(st.lists(st.tuples(st.integers(0, 8), st.sampled_from(ODD_TOKENS)), max_size=2)):
        tokens.insert(at, token)
    space, ends = st.sampled_from([" ", "  ", "\t", "\n", " \t\n "]), st.sampled_from(["", " ", "\n\t"])
    text = draw(ends)
    for i, token in enumerate(tokens):
        text += (draw(space) if i else "") + token
    return text + draw(ends), alphabet


@given(spelled_words())
# canonical spellings one index outside the range, each the only odd token
@example(("s0 s4", Alphabet.vbB(4)))
@example(("z-1\ts3^-1", Alphabet.vbB(4)))
@example(("sig0 zet3", Alphabet.vbA(4)))
@example(("sig1^-1\nzet4 ", Alphabet.vbA(4)))
@example(("sig-4 zet3", Alphabet.vbA_shifted(4)))
@example((" sig3 sig4^-1", Alphabet.vbA_shifted(4)))
@settings(max_examples=300, deadline=None)
def test_parse_word_agrees_with_the_positional_parser(case):
    text, alphabet = case
    got = parse_outcome(lambda t, ab: parse_word(t, ab).letters, text, alphabet)
    assert got == parse_outcome(positional_parse, text, alphabet)


def test_word_round_trip():
    ab = Alphabet.vbB(3)
    for text in ["s0 z1 s0 z1", "s1^-1 z2 s0", ""]:
        w = parse_word(text, ab)
        assert parse_word(format_word(w), ab) == w


def test_embed_examples():
    ab = Alphabet.vbB(2)
    assert format_word(embed_j(parse_word("s0", ab))) == "sig0"
    assert format_word(embed_j(parse_word("z1", ab))) == "zet-1 zet1"
    assert format_word(embed_j(parse_word("z0 s1 z0 s1", ab))) == "zet0 sig-1 sig1 zet0 sig-1 sig1"
    assert format_word(embed_j(parse_word("s1^-1", ab))) == "sig1^-1 sig-1^-1"


@given(letters_strategy(3), letters_strategy(3))
def test_embed_respects_concatenation(u, v):
    ab = Alphabet.vbB(3)
    wu, wv = make_word(ab, u), make_word(ab, v)
    assert embed_j(_concat(wu, wv)) == _concat(embed_j(wu), embed_j(wv))


def test_relator_table_contents():
    labels2 = {r.label for r in relator_table("vbB", 2)}
    assert labels2 == {
        "relB3",
        "relWB3",
        "relWB0[0]",
        "relWB0[1]",
        "relmixB3",
        "relmixB4",
        "relmixB5",
    }
    rels3 = {r.label: r for r in relator_table("vbB", 3)}
    r = rels3["relB3"]
    assert format_word(r.lhs) == "s0 s1 s0 s1" and format_word(r.rhs) == "s1 s0 s1 s0"
    r = rels3["relmixB3"]
    assert format_word(r.lhs) == "s0 z1 z0 z1" and format_word(r.rhs) == "z1 z0 z1 s0"
    r = rels3["relmixB4"]
    assert format_word(r.lhs) == "z0 s1 z0 z1" and format_word(r.rhs) == "z1 z0 s1 z0"
    assert "relWB1[0,2]" in rels3 and "relmixB1[0,2]" in rels3 and "relmixB1[2,0]" in rels3
    vba3 = {r.label: r for r in relator_table("vbA", 3)}
    r = vba3["vb4[1]"]
    assert format_word(r.lhs) == "zet1 zet2 zet1" and format_word(r.rhs) == "zet2 zet1 zet2"


def relator_table_digest(group):
    """sha256 over every relation of ``relator_table(group, n)``, n = 2..8."""
    lines = [
        f"{n} {rel.label}: {format_word(rel.lhs)} = {format_word(rel.rhs)}\n"
        for n in range(2, 9)
        for rel in relator_table(group, n)
    ]
    return hashlib.sha256("".join(lines).encode()).hexdigest()


@pytest.mark.parametrize(
    "group,digest",
    [
        ("vbA", "a8cac14b8917c852cc4fd528eff173e31d6716eb5d1a5c356d89c6f5ac957888"),
        ("vbB", "5de1bfbc02afd8ace2e02cba8bef03aa9648904ebbc4ab07908a42ab85f48b23"),
    ],
)
def test_relator_tables_are_pinned(group, digest):
    # every label and word of both tables, in order
    assert relator_table_digest(group) == digest


def test_relator_table_rejects_other_groups():
    with pytest.raises(ValueError):
        relator_table("bB", 3)


def test_relator_table_deterministic():
    a = [r.label for r in relator_table("vbB", 4)]
    b = [r.label for r in relator_table("vbB", 4)]
    assert a == b


@pytest.mark.parametrize("group,n", [("vbB", 2), ("vbB", 3), ("vbB", 4), ("vbA", 2), ("vbA", 3)])
def test_all_relators_pass_invariant_check(group, n):
    report = check_relators_via_invariant(group, n)
    assert report["all_pass"], [r for r in report["results"] if r["status"] != "pass"]
    assert all(r["status"] == "pass" for r in report["results"])


def test_non_relations_detected():
    ab = Alphabet.vbB(2)
    lhs = invariant(parse_word("z0 s1 z0 s1", ab))
    rhs = invariant(parse_word("s1 z0 s1 z0", ab))
    assert lhs != rhs
    assert fg.first_difference(lhs, rhs) == 2
    for i in (0, 1):
        l = invariant(parse_word(f"s{i} z{i}", ab))
        r = invariant(parse_word(f"z{i} s{i}", ab))
        assert l != r


def test_forbidden_move_is_unequal_but_welded_equal():
    ab = Alphabet.vbA(4)
    lhs = invariant(parse_word("zet1 sig2 sig1", ab))
    rhs = invariant(parse_word("sig2 sig1 zet2", ab))
    assert lhs != rhs
    assert lhs.specialize_t1() == rhs.specialize_t1()


def whole_word_difference(lhs, rhs, t1):
    """The witness read from the folds of the two whole words."""
    phi, psi = invariant(lhs), invariant(rhs)
    if t1:
        phi, psi = phi.specialize_t1(), psi.specialize_t1()
    g = fg.first_difference(phi, psi)
    return None if g is None else (g, phi.image(g), psi.image(g))


def _letters(alphabet):
    involution = alphabet.kinds[1]
    return st.tuples(
        st.sampled_from(alphabet.kinds), st.integers(alphabet.lo, alphabet.hi), st.sampled_from([1, -1])
    ).map(lambda t: (t[0], t[1], 1) if t[0] == involution else t)


@st.composite
def pairs_around_cores(draw):
    # u c1 v vs u c2 v; split_common may find a longer common prefix or suffix
    alphabet = draw(st.sampled_from([Alphabet.vbA(3), Alphabet.vbA(4), Alphabet.vbB(2), Alphabet.vbB(3)]))
    u, c1, c2, v = (
        make_word(alphabet, draw(st.lists(_letters(alphabet), max_size=size))) for size in (6, 3, 3, 6)
    )
    return _concat(u, c1, v), _concat(u, c2, v)


def _pair(lhs, rhs, alphabet):
    return parse_word(lhs, alphabet), parse_word(rhs, alphabet)


@given(pairs_around_cores(), st.booleans())
# an empty core on one side, equal and unequal
@example(_pair("s1 z0 z0 s0", "s1 s0", Alphabet.vbB(3)), False)
@example(_pair("s1 s0 z1 s0", "s1 s0", Alphabet.vbB(3)), True)
# no context on either side
@example(_pair("s0 z0", "z0 s0", Alphabet.vbB(2)), False)
@example(_pair("zet1 sig2 sig1", "sig2 sig1 zet2", Alphabet.vbA(4)), True)
# the suffix s2 fixes the witness a0; the prefix s1 moves its images
@example(_pair("s1 s0 z0 s2", "s1 z0 s0 s2", Alphabet.vbB(3)), False)
@example(_pair("s1 s0 z0 s2", "s1 z0 s0 s2", Alphabet.vbB(3)), True)
# differences at a-1, a0, a1 and a2: the witness is the least
@example(_pair("s2 s1 z1 s0", "s2 z1 s1 s0", Alphabet.vbB(3)), False)
@settings(max_examples=150, deadline=None)
def test_invariant_difference_matches_the_whole_words(pair, t1):
    lhs, rhs = pair
    assert invariant_difference(lhs, rhs, t1) == whole_word_difference(lhs, rhs, t1)
