import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from braidcert import freegroup as fg
from braidcert.errors import ParseError
from braidcert.words import (
    Alphabet,
    check_relators_via_invariant,
    embed_j,
    format_word,
    invariant,
    make_word,
    parse_word,
    relator_table,
)


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
    assert invariant(parse_word("z0 z0", ab)).is_identity()


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
    assert embed_j(wu * wv) == embed_j(wu) * embed_j(wv)


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
