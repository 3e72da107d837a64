import collections
import hashlib
import random
import itertools
import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from braidcert.bimodcalc import (
    Bimodule,
    Morphism,
    bimodule_Bs,
    bimodule_R,
    bimodule_Rw,
    id_tensor,
    mat_identity,
    shift,
    tensor,
)
from braidcert import bimodcalc, homotopy, linalg
from braidcert.coxeter import make_reflection
from braidcert.homotopy import (
    Complex,
    F_letter,
    F_one,
    F_word,
    chain_iso_failures,
    chain_map_failures,
    chain_map_space,
    certify_pair,
    complex_failures,
    find_chain_iso,
    find_homotopy_equiv,
    homotopy_classes,
    homotopy_failures,
    relation_certificates,
    tensor_complex,
    verify_certificate_dict,
)
from braidcert.polyring import Poly, _from_sums, format_poly, monomial_exponents
from braidcert.scalars import SQRT2, QSqrt2, reduced_triple
from braidcert.words import Alphabet, parse_word, split_common


def W(text, n):
    return parse_word(text, Alphabet.vbB(n))


def FW(text, n):
    return F_word(W(text, n), n)


def iso(c, d):
    return find_chain_iso(c, d, chain_map_space(c, d))


def identity_map(m):
    """The identity morphism of the bimodule ``m``."""
    return Morphism(m, m, mat_identity(m.rank, m.n))


def heq(c, d):
    return find_homotopy_equiv(c, d, chain_map_space(c, d))


# -- letter complexes ---------------------------------------------------------------


def test_positive_letter_complex():
    n = 2
    c = F_letter(("s", 0, 1), n)
    assert c.support() == [-1, 0]
    assert c.objects[-1].basis_degrees == (2,)
    assert c.objects[0].basis_degrees == (0, 2)
    d = c.diffs[-1]
    assert [{j: format_poly(e) for j, e in row.items()} for row in d.matrix] == [{0: "X0"}, {0: "1"}]
    assert not complex_failures(c)


def test_negative_letter_complex():
    n = 2
    c = F_letter(("s", 0, -1), n)
    assert c.support() == [0, 1]
    assert c.objects[0].basis_degrees == (-2, 0)
    assert c.objects[1].basis_degrees == (-2,)
    d = c.diffs[0]
    assert [{j: format_poly(e) for j, e in row.items()} for row in d.matrix] == [{0: "1", 1: "X0"}]
    assert not complex_failures(c)


def test_virtual_letter_complex():
    n = 2
    c = F_letter(("z", 1, 1), n)
    assert c.support() == [0]
    assert not c.diffs
    assert c.objects[0] == bimodule_Rw((1,), n)


def test_unit_complex_is_tensor_unit():
    n = 2
    c = FW("s0 z1", n)
    left = tensor_complex(F_one(n), c)
    right = tensor_complex(c, F_one(n))
    for other in (left, right):
        assert other.support() == c.support()
        for k in c.support():
            assert other.objects[k] == c.objects[k]
        for k, d in c.diffs.items():
            assert other.diffs[k].matrix == d.matrix


def test_tensor_complex_associative_on_presentations():
    n = 2
    a = F_letter(("s", 0, 1), n)
    b = F_letter(("z", 1, 1), n)
    c = F_letter(("s", 1, -1), n)
    left = tensor_complex(tensor_complex(a, b), c)
    right = tensor_complex(a, tensor_complex(b, c))
    assert left.support() == right.support()
    for k in left.support():
        assert left.objects[k] == right.objects[k]
    for k in left.diffs:
        assert left.diffs[k].matrix == right.diffs[k].matrix
    # and is a verified chain isomorphism via the identity components
    identity = {k: identity_map(left.objects[k]) for k in left.objects}
    assert not chain_iso_failures({"forward": identity, "inverse": identity}, left, right)


def _tensor_through_id_tensor(m, other):
    # every action of the product crossed entry by entry, also for a rank-one ``other``
    t = tensor(m, other)
    return Bimodule(t.n, t.basis_degrees, [id_tensor(m, a, other.rank) for a in other.actions], t.block_spans)


def _letter_by_letter(letters, n):
    # the plain functor: the unit, then one letter complex tensored on at a time
    result = F_one(n)
    with mock.patch.object(homotopy, "tensor", _tensor_through_id_tensor):
        for letter in letters:
            result = tensor_complex(result, F_letter(letter, n))
    return result


def _assert_same_presentation(c, d):
    assert c.support() == d.support()
    for k in c.support():
        a, b = c.objects[k], d.objects[k]
        assert (a.basis_degrees, a.block_spans, a.actions) == (b.basis_degrees, b.block_spans, b.actions), k
    assert sorted(c.diffs) == sorted(d.diffs)
    for k, diff in c.diffs.items():
        assert diff.matrix == d.diffs[k].matrix, k


@st.composite
def words_with_virtual_runs(draw):
    n = draw(st.sampled_from([2, 3]))
    letter = st.one_of(
        st.tuples(st.just("s"), st.integers(0, n - 1), st.sampled_from([1, -1])),
        st.tuples(st.just("z"), st.integers(0, n - 1), st.just(1)),
    )
    word = st.lists(letter, max_size=7).filter(lambda letters: sum(kind == "s" for kind, _, _ in letters) <= 3)
    return n, draw(word)


@given(words_with_virtual_runs())
@settings(max_examples=40, deadline=None)
def test_word_complex_matches_the_letter_by_letter_fold(case):
    n, letters = case
    _assert_same_presentation(F_word(letters, n), _letter_by_letter(letters, n))


@pytest.mark.parametrize(
    "text, n",
    [
        ("z0 z1 z2 z1 z0 z2 z2 z1 z0 z0 z1 z2", 3),
        ("z0 z2 z1 s1 s1^-1 z2 z1 z0", 3),
    ],
    ids=["twelve-virtual", "runs-around-reid2"],
)
def test_word_complex_matches_the_letter_by_letter_fold_on_chosen_words(text, n):
    letters = W(text, n).letters
    _assert_same_presentation(F_word(letters, n), _letter_by_letter(letters, n))


@pytest.mark.parametrize("text, kind", [("zet1 zet2 sig1", "zet"), ("sig1^-1 zet2", "sig")], ids=["zet", "sig"])
def test_word_complex_refuses_vbA_letters(text, kind):
    # the functor is defined on type-B words only: a vbA letter is refused
    # by kind, whether it would have been a braid or a virtual letter
    letters = parse_word(text, Alphabet.vbA(3)).letters
    with pytest.raises(ValueError, match=f"^no complex for letter kind '{kind}'$"):
        F_word(letters, 3)


def test_out_of_range_index_inside_a_run_raises_the_letter_error():
    letters = [("z", 0, 1), ("z", 1, 1), ("z", 5, 1), ("z", 2, 1)]
    with pytest.raises(IndexError) as folded:
        _letter_by_letter(letters, 3)
    with pytest.raises(IndexError, match="letter index 5 out of range for n=3") as run:
        F_word(letters, 3)
    assert str(run.value) == str(folded.value)


def _cached_pieces(n):
    return [homotopy._twist_complex(run, n) for run in ((1, 0), (2, 1), (1, 0, 2, 1))] + [
        homotopy._letter_complex(kind, index, exp, n)
        for kind, index, exp in (("s", 2, 1), ("s", 2, -1), ("z", 1, 1), ("z", 2, 1))
    ]


def test_shared_matrices_stay_unmutated_by_certify_and_verify():
    n = 3
    homotopy._twist_complex.cache_clear()
    homotopy._letter_complex.cache_clear()
    pieces = _cached_pieces(n)
    # a rank-one twist that fixes X0 shares X0's matrix with the factor before it
    whiskered = FW("s2 z2", n)
    assert whiskered.objects[0].actions[0] is pieces[3].objects[0].actions[0]
    # two cores, each certified bare or whiskered and then whiskered again
    # from the complexes the core cache shares across requests
    pairs = (
        ("z1 z0 s2 s2^-1 z2 z1", "z1 z0 z2 z1"),
        ("z2 s2 s2^-1 z0", "z2 z0"),
        ("s2 z2", "z2 s2"),
        ("z1 s2 z2 z0", "z1 z2 s2 z0"),
    )
    for lhs, rhs in pairs:
        kind, cert = certify_pair(W(lhs, n), W(rhs, n), n)
        assert kind is not None, (lhs, rhs)
        assert verify_certificate_dict(json.loads(json.dumps(cert))) == (True, [])
    cores = [(key[:2], complexes) for key, (_, _, complexes, _) in homotopy._CORE_CACHE.items()]
    assert [words for words, _ in cores] == [
        (W("s2 s2^-1", n).letters, ()),
        (W("s2 z2", n).letters, W("z2 s2", n).letters),
    ]
    homotopy._twist_complex.cache_clear()
    homotopy._letter_complex.cache_clear()
    olds = pieces + [whiskered] + [c for _, complexes in cores for c in complexes]
    rebuilt = _cached_pieces(n) + [FW("s2 z2", n)] + [F_word(w, n) for words, _ in cores for w in words]
    images = 0
    for old, fresh in zip(olds, rebuilt, strict=True):
        _assert_same_presentation(old, fresh)
        for k, m in old.objects.items():
            for exp, matrix in m._monomial_cache.items():
                assert matrix == fresh.objects[k]._monomial_action(exp), (k, exp)
            # each memoized twist image is what a fresh factor substitutes
            for terms, image in m._images.items():
                assert image == fresh.objects[k].substitute(_from_sums(n, dict(terms))), (k, terms)
            images += len(m._images)
    assert images


letters_st = st.lists(
    st.one_of(
        st.tuples(st.just("s"), st.integers(0, 2), st.sampled_from([1, -1])),
        st.tuples(st.just("z"), st.integers(0, 2), st.just(1)),
    ),
    max_size=6,
)


@given(letters_st)
@settings(max_examples=25, deadline=None)
def test_koszul_sign_gives_square_zero(letters):
    c = F_word(letters, 3)
    assert not complex_failures(c)


def test_every_word_complex_verifies_deterministic_sample():
    for text in [
        "s0 s1 s0 s1",
        "s1 s0 s1 s0",
        "s0 z1 s0 z1",
        "z1 s0 z1 s0",
        "s0 s0^-1 s1 z0",
        "z0 z1 z0 z1 s0 s1",
    ]:
        assert not complex_failures(FW(text, 3)), text


def test_six_braid_letter_complex_verifies():
    # total rank 3^6: the longest word the certificates use is half of it
    assert complex_failures(FW("s0 s1 s0 s1 s0 s1", 3)) == []


# -- frozen structure of the mixed-relation complexes ----------------------------


def test_twisted_two_term_complex_structure():
    # F(z1 z0 z1 s0): one twisted rank-one object mapping into its rank-two
    # partner by a (X0, 1) column: the twist of the three z-letters acts as
    # the conjugated word, which fixes X0
    n = 2
    c = FW("z1 z0 z1 s0", n)
    assert c.support() == [-1, 0]
    # the twist composes to s1 s0 s1 (with a grading shift)
    from braidcert.bimodcalc import shift

    assert c.objects[-1] == shift(bimodule_Rw((1, 0, 1), n), 2)
    twisted = c.objects[-1]
    assert twisted.basis_degrees == (2,)
    from braidcert.coxeter import act

    for j in range(n):
        assert twisted.actions[j][0][0] == act((1, 0, 1), Poly.variable(n, j))
    d = c.diffs[-1]
    assert [{j: format_poly(e) for j, e in row.items()} for row in d.matrix] == [{0: "X0"}, {0: "1"}]


def test_relmixB3_identity_components_give_iso():
    # identity in coordinates at both degrees; verified as a chain iso
    n = 2
    c = FW("z1 z0 z1 s0", n)
    d = FW("s0 z1 z0 z1", n)
    comps = {k: Morphism(c.objects[k], d.objects[k], mat_identity(c.objects[k].rank, n)) for k in c.objects}
    comps_back = {k: Morphism(d.objects[k], c.objects[k], mat_identity(c.objects[k].rank, n)) for k in c.objects}
    assert not chain_iso_failures({"forward": comps, "inverse": comps_back}, c, d)


def test_relmixB3_sign_flip_fails_with_witness():
    n = 2
    c = FW("z1 z0 z1 s0", n)
    d = FW("s0 z1 z0 z1", n)
    comps = {
        -1: Morphism(c.objects[-1], d.objects[-1], [{0: Poly.constant(n, QSqrt2(-1))}]),
        0: Morphism(c.objects[0], d.objects[0], mat_identity(2, n)),
    }
    failures = chain_map_failures(comps, c, d)
    assert failures
    degree, what, row, col, residual = failures[0]
    assert what == "square" and degree == -1
    assert residual != "0"


def test_relmixB5_differential_matrices_match_description():
    # the four explicit degree -2 entries: one block carries the plain
    # column, the other the conjugated root with the Koszul minus sign
    n = 3
    x0 = Poly.variable(n, 0)
    root = x0 + Poly.variable(n, 1).scale(SQRT2)
    one = Poly.one(n)
    c = FW("s0 z1 s0 z1", n)
    assert [row[0] for row in c.diffs[-2].matrix] == [-root, -one, x0, one]
    d = FW("z1 s0 z1 s0", n)
    assert [row[0] for row in d.diffs[-2].matrix] == [-x0, -one, root, one]


def test_relmixB5_iso_found_with_sign_flip_in_bottom_degree():
    n = 3
    c = FW("s0 z1 s0 z1", n)
    d = FW("z1 s0 z1 s0", n)
    found = iso(c, d)
    assert found is not None
    assert not chain_iso_failures(found, c, d)
    bottom = found["forward"][-2].matrix[0][0]
    assert bottom == Poly.constant(n, QSqrt2(-1)) or bottom == Poly.one(n)


# -- search -------------------------------------------------------------------------


def test_chain_map_space_of_unit():
    n = 2
    c = F_one(n)
    basis = chain_map_space(c, c)
    assert len(basis) == 1


short_words_st = st.lists(
    st.one_of(
        st.tuples(st.just("s"), st.integers(0, 2), st.sampled_from([1, -1])),
        st.tuples(st.just("z"), st.integers(0, 2), st.just(1)),
    ),
    max_size=3,
)


@given(short_words_st)
@settings(max_examples=15, deadline=None)
def test_chain_map_space_endomorphisms_are_chain_maps(letters):
    # the identity is a chain map, so the space is never empty, and every
    # basis element commutes with the differentials (the -d_C term's sign)
    c = F_word(letters, 3)
    basis = chain_map_space(c, c)
    assert basis
    for f in basis:
        assert chain_map_failures(f, c, c) == []


@st.composite
def word_pairs_up_to_2_braid_letters(draw):
    n = draw(st.integers(2, 3))
    letter = st.one_of(
        st.tuples(st.just("s"), st.integers(0, n - 1), st.sampled_from([1, -1])),
        st.tuples(st.just("z"), st.integers(0, n - 1), st.just(1)),
    )
    word = st.lists(letter, max_size=3).filter(lambda letters: sum(kind == "s" for kind, _, _ in letters) <= 2)
    return n, draw(word), draw(word)


@given(word_pairs_up_to_2_braid_letters())
@example((2, [("s", 0, 1), ("s", 0, -1)], [("s", 0, -1), ("s", 0, 1)]))
@settings(max_examples=40, deadline=None)
def test_delta_of_a_homotopy_is_a_chain_map(pair):
    # delta o delta = 0, so B^0 = delta(Hom^-1) lies in Z^0; at p = -1 this
    # needs the sign in delta h = d h - (-1)^p h d to read d h + h d
    n, u, v = pair
    c, d = F_word(u, n), F_word(v, n)
    for _, k, h in homotopy._hom_basis(c, d, -1, 0)[0]:
        dh = homotopy._delta(c, d, -1, k, h)
        # ``_delta`` leaves each entry as the product kernel's sums
        matrices = {
            j: [{b: p for b, acc in row.items() if (p := _from_sums(n, acc))} for row in sums] for j, sums in dh.items()
        }
        f = {j: Morphism(c.object_at(j), d.object_at(j), m) for j, m in matrices.items()}
        assert chain_map_failures(f, c, d) == []


def test_delta_adds_no_product_for_a_missing_differential():
    # F(s0) has the one differential d_-1, so delta of an endomorphism at its
    # lowest degree is d h alone and at its highest h d alone: a missing
    # differential is zero, and its product has no entry
    n = 2
    c = FW("s0", n)
    low, high = (identity_map(c.objects[k]) for k in (-1, 0))
    assert list(homotopy._delta(c, c, 0, -1, low)) == [-1]
    assert list(homotopy._delta(c, c, 0, 0, high)) == [-1]


def test_find_chain_iso_simple_cases():
    n = 2
    # involution relation: F(z0 z0) vs F(1); virtual order-4 relation
    for c, d in ((FW("z0 z0", n), F_one(n)), (FW("z0 z1 z0 z1", n), FW("z1 z0 z1 z0", n))):
        found = iso(c, d)
        assert found is not None and not chain_iso_failures(found, c, d)


def test_find_chain_iso_negative_controls():
    n = 2
    assert iso(FW("s0", n), FW("z0", n)) is None
    assert iso(FW("s0", n), FW("s0^-1", n)) is None


def test_find_homotopy_negative_control():
    n = 2
    assert heq(FW("s0", n), FW("z0", n)) is None


def test_reidemeister_two_contraction():
    n = 2
    c = FW("s0 s0^-1", n)
    assert sorted(c.objects) == [-1, 0, 1]
    cert = heq(c, F_one(n))
    assert cert is not None
    # independent oracle for the found certificate: the verifier recomputes
    # every identity from scratch
    assert not homotopy_failures(cert, c, F_one(n))


def test_degree_bound_is_certify_pairs_alone(monkeypatch):
    # certify_pair reads the bound from the words; the search has none, so
    # its None always means "not homotopy equivalent"
    n = 2
    c = FW("s0 s0^-1", n)
    monkeypatch.setattr(homotopy, "DEGREE_BOUND", 2)
    cert = heq(c, F_one(n))
    assert cert is not None and not homotopy_failures(cert, c, F_one(n))


def test_relB2_homotopy_at_n3():
    n = 3
    c, d = FW("s1 s2 s1", n), FW("s2 s1 s2", n)
    cert = heq(c, d)
    assert cert is not None and not homotopy_failures(cert, c, d)


def test_corrupted_homotopy_certificate_fails_with_witness():
    n = 2
    c, d = FW("s0 s0^-1", n), F_one(n)
    cert = heq(c, d)
    assert cert is not None
    # flip one sign inside a forward component
    comp = cert["forward"][0]
    matrix = [dict(row) for row in comp.matrix]
    done = False
    for i, row in enumerate(matrix):
        for j in sorted(row):
            if not done:
                matrix[i][j] = -row[j]
                done = True
    corrupted = {**cert, "forward": {0: Morphism(comp.source, comp.target, matrix)}}
    failures = homotopy_failures(corrupted, c, d)
    assert failures
    degree, what, row, col, residual = failures[0]
    assert residual != "0"


# -- certificates -------------------------------------------------------------------


def test_searches_return_their_kinds_fields_in_table_order():
    # one table writes each kind's fields; both searches return exactly those
    # maps in its order, and certify_pair's JSON keeps the order after its header
    n = 2
    fields = {kind: [entry[0] for entry in entries] for kind, entries in homotopy._KIND_FIELDS.items()}
    assert fields == {"iso": ["forward", "inverse"], "homotopy": ["forward", "backward", "homotopy_source", "homotopy_target"]}
    assert list(iso(FW("s0 z0", n), FW("z0 s0", n))) == fields["iso"]
    assert list(heq(FW("s0 s0^-1", n), F_one(n))) == fields["homotopy"]
    header = ["format", "relation", "kind", "group", "n", "words"]
    cases = [("s0 z0", "z0 s0", "auto", "iso"), ("s0 z0", "z0 s0", "homotopy", "homotopy"), ("s0 s0^-1", "", "auto", "homotopy")]
    for lhs, rhs, kind, found in cases:
        got, cert = certify_pair(W(lhs, n), W(rhs, n), n, kind=kind)
        assert got == found and list(json.loads(json.dumps(cert))) == header + fields[found]


def test_certify_pair_and_round_trip():
    n = 2
    lhs, rhs = W("s0 z0", n), W("z0 s0", n)
    kind, cert = certify_pair(lhs, rhs, n)
    assert kind == "iso"
    blob = json.dumps(cert)
    ok, failures = verify_certificate_dict(json.loads(blob))
    assert ok and not failures
    assert json.dumps(json.loads(blob), sort_keys=True) == json.dumps(
        cert, sort_keys=True
    )


def test_certify_pair_none():
    n = 2
    assert certify_pair(W("s0", n), W("z0", n), n) == (None, "not homotopy equivalent")


def test_certificate_tamper_detected_after_round_trip():
    n = 2
    kind, cert = certify_pair(W("s0 s0^-1", n), W("", n), n)
    assert kind == "homotopy"
    blob = json.loads(json.dumps(cert))
    # flip a sign in the first nonzero forward entry
    for item in blob["forward"]:
        for row in item["matrix"]:
            for i, e in enumerate(row):
                if e != "0":
                    row[i] = e[1:] if e.startswith("-") else "-" + e
                    ok, failures = verify_certificate_dict(blob)
                    assert not ok and failures
                    return
    raise AssertionError("no nonzero entry found")


def test_remark_isos_at_n3():
    n = 3
    pairs = [(f"s{i} z{i}", f"z{i} s{i}") for i in range(n)] + [("z0 s1 z0 s1", "s1 z0 s1 z0")]
    for lhs, rhs in pairs:
        c, d = FW(lhs, n), FW(rhs, n)
        found = iso(c, d)
        assert found is not None and not chain_iso_failures(found, c, d), lhs


# -- exact witnesses ----------------------------------------------------------------
# Every failure is a (degree, tag, row, col, residual) tuple; residuals are
# listed entry by entry in row-major order.


def test_non_square_zero_complex_witnesses():
    n = 2
    b = bimodule_Bs(make_reflection((0,), n))
    src = shift(bimodule_R(n), 2)
    d = Morphism(src, b, [{0: Poly.variable(n, 0)}, {0: Poly.one(n)}])
    c = Complex(n, {-1: src, 0: b, 1: b}, {-1: d, 0: identity_map(b)})
    assert complex_failures(c) == [
        (-1, "d.d != 0", 0, 0, "X0"),
        (-1, "d.d != 0", 1, 0, "1"),
    ]


def test_non_commuting_chain_map_witnesses():
    n = 2
    c = FW("z1 z0 z1 s0", n)
    d = FW("s0 z1 z0 z1", n)
    comps = {
        -1: Morphism(c.objects[-1], d.objects[-1], [{0: Poly.constant(n, QSqrt2(-1))}]),
        0: Morphism(c.objects[0], d.objects[0], mat_identity(2, n)),
    }
    assert chain_map_failures(comps, c, d) == [
        (-1, "square", 0, 0, "2*X0"),
        (-1, "square", 1, 0, "2"),
    ]


def test_broken_inverse_witnesses():
    n = 3
    c, d = FW("s0 s2", n), FW("s2 s0", n)
    found = iso(c, d)
    doubled = {k: m.scale(QSqrt2(2)) for k, m in found["inverse"].items()}
    # g.f = 2 id and f.g = 2 id, so every diagonal entry leaves residual 1
    diagonal = [(-2, 0)] + [(k, i) for k in (-1, 0) for i in range(4)]
    assert chain_iso_failures({**found, "inverse": doubled}, c, d) == [
        (k, f"{side}: {comp} + dh + hd != id", i, i, "1")
        for side, comp in (("source", "g.f"), ("target", "f.g"))
        for k, i in diagonal
    ]


def test_tampered_homotopy_witnesses():
    n = 2
    c, d = FW("s0 s0^-1", n), F_one(n)
    cert = heq(c, d)
    h_source = dict(cert["homotopy_source"])
    h_source[0] = h_source[0].scale(QSqrt2(2))
    tampered = {**cert, "homotopy_source": h_source}
    tag = "source: g.f + dh + hd != id"
    assert homotopy_failures(tampered, c, d) == [
        (-1, tag, 0, 0, "1"),
        (-1, tag, 1, 1, "1"),
        (0, tag, 0, 3, "-1"),
        (0, tag, 0, 4, "-1*X0"),
        (0, tag, 1, 3, "X0"),
        (0, tag, 2, 4, "X0"),
        (0, tag, 3, 3, "1"),
        (0, tag, 4, 4, "1"),
    ]


# -- H^0 Hom: degree-0 chain maps modulo null-homotopic ones -------------------------

REPORT_N3 = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "certify_n3.json"


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def h0(c, d):
    """``(dim Z^0, dim H^0)`` of ``Hom(c, d)``."""
    fb = chain_map_space(c, d)
    return len(fb), homotopy_classes(c, d, fb)[1]


def outside_b0(maps, c, d):
    """For each chain map ``c -> d``, whether it is not null-homotopic."""
    return [bool(cls) for cls in homotopy_classes(c, d, maps)[0]]


@pytest.mark.parametrize(
    "lhs, rhs, n, dims",
    [
        ("s0 s1 s0 s1", "s1 s0 s1 s0", 2, (13, 1)),
        ("s1 s2 s1", "s2 s1 s2", 3, (2, 1)),
        ("s1 s2 s1 s2", "s2 s1 s2 s1", 3, (16, 0)),
        ("s1", "s2", 3, (0, 0)),
        ("z0", "z1", 3, (0, 0)),
        ("s0 s0^-1", "", 2, (1, 1)),
    ],
)
def test_degree_zero_hom_dimensions(lhs, rhs, n, dims):
    assert h0(FW(lhs, n), FW(rhs, n)) == dims


def _forward_maps(report):
    for result in report["results"]:
        cert = result["certificate"]
        n = cert["n"]
        lhs, rhs = (FW(w, n) for w in cert["words"])
        yield cert["relation"], homotopy._components_from_json(cert, "forward", lhs, rhs), lhs, rhs


def test_every_certified_forward_map_lies_outside_b0():
    with open(REPORT_N3) as fh:
        n3 = json.load(fh)
    for report in (relation_certificates(2), n3):
        for label, f, lhs, rhs in _forward_maps(report):
            assert outside_b0([f], lhs, rhs) == [True], (report["n"], label)


def test_outside_b0_agrees_with_the_solve_on_the_relB3_probes():
    # the first 13 probes are the 13 basis maps; only the last is outside B^0,
    # and it is the only one whose solve succeeds
    n = 2
    c, d = FW("s0 s1 s0 s1", n), FW("s1 s0 s1 s0", n)
    fb, gb = chain_map_space(c, d), chain_map_space(d, c)
    assert list(homotopy._candidate_iter(fb))[:13] == fb
    outside = outside_b0(fb, c, d)
    solved = [homotopy._solve_homotopy_for(f, gb, c, d) is not None for f in fb]
    assert outside == solved == [False] * 12 + [True]


def test_relB3_search_makes_one_solve(monkeypatch):
    n = 2
    c, d = FW("s0 s1 s0 s1", n), FW("s1 s0 s1 s0", n)
    fb = chain_map_space(c, d)
    solves = count_calls(monkeypatch, linalg, "solve_affine")
    probes = count_calls(monkeypatch, homotopy, "_candidate_iter")
    cert = find_homotopy_equiv(c, d, fb)
    assert cert is not None and not homotopy_failures(cert, c, d)
    assert cert["forward"] is fb[12]
    assert len(solves) == 1 and not probes


def test_h0_zero_pair_is_decided_without_a_solve(monkeypatch):
    # H^0 = 0: no backward space, no probe and no solve (the parent built
    # 200 probes in full here)
    n = 3
    c, d = FW("s1 s2 s1 s2", n), FW("s2 s1 s2 s1", n)
    fb = chain_map_space(c, d)
    solves = count_calls(monkeypatch, linalg, "solve_affine")
    spaces = count_calls(monkeypatch, homotopy, "chain_map_space")
    probes = count_calls(monkeypatch, homotopy, "_candidate_iter")
    assert find_homotopy_equiv(c, d, fb) is None
    assert not solves and not spaces and not probes


def count_probes(monkeypatch):
    """The isomorphism probes ``_candidate_iter`` yields, recorded as they go."""
    probes = []
    original = homotopy._candidate_iter

    def counted(basis):
        for f in original(basis):
            probes.append(f)
            yield f

    monkeypatch.setattr(homotopy, "_candidate_iter", counted)
    return probes


def test_h0_zero_pair_iso_search_probes_each_basis_map_then_the_sum(monkeypatch):
    # Z^0 is 16-dimensional and holds no isomorphism: 16 basis maps, the
    # weighted sum, and the search stops
    n = 3
    c, d = FW("s1 s2 s1 s2", n), FW("s2 s1 s2 s1", n)
    fb = chain_map_space(c, d)
    probes = count_probes(monkeypatch)
    assert certify_pair(W("s1 s2 s1 s2", n), W("s2 s1 s2 s1", n), n) == (None, "not homotopy equivalent")
    assert len(fb) == 16 and len(probes) == 17

    def matrices(f):
        return {k: m.matrix for k, m in f.items()}

    assert [matrices(f) for f in probes[:16]] == [matrices(f) for f in fb]
    assert all(matrices(probes[16]) != matrices(f) for f in fb)


SHORT_LETTERS_N2 = ["s0", "s0^-1", "s1", "s1^-1", "z0", "z1"]
SHORT_PAIRS_N2_SHA256 = "5d0c5a5a1cb7772b786ddc509ebe0c5c4798502608a145458a959a3155498635"


def test_iso_search_on_all_short_word_pairs_at_n2():
    # every pair of vbB words of <= 2 letters at n = 2 whose graded ranks
    # match: which isomorphisms are found, which probe finds each, and the
    # certificate bytes, which equal those of a search that also probed 2-
    # and 3-term signed combinations.  Basis map 0 misses ten of them: basis
    # map 2 finds s0 s0 ~ s0 s0 and s1 s1 ~ s1 s1, and only the weighted sum
    # finds the other eight, for i = 0, 1: si si^-1 and si^-1 si against
    # themselves and each other, and si^-1 si^-1 ~ si^-1 si^-1
    n = 2
    words = [W(" ".join(w), n) for k in range(3) for w in itertools.product(SHORT_LETTERS_N2, repeat=k)]
    complexes = [F_word(w, n) for w in words]
    pairs = isos = 0
    winners = collections.Counter()
    digest = hashlib.sha256()
    for i, j in itertools.combinations_with_replacement(range(len(words)), 2):
        c, d = complexes[i], complexes[j]
        if not homotopy._graded_ranks_match(c, d):
            continue
        pairs += 1
        fb = chain_map_space(c, d)
        found = find_chain_iso(c, d, fb)
        if found is None:
            continue
        isos += 1
        winners[next((i for i, f in enumerate(fb) if f is found["forward"]), "sum")] += 1
        label = f"{words[i]} ~ {words[j]}"
        cert = homotopy._certificate(label, n, words[i], words[j], "iso", **homotopy._bare(found))
        digest.update(json.dumps(cert, sort_keys=True).encode() + b"\n")
    assert (pairs, isos) == (194, 52)
    assert winners == {0: 42, 2: 2, "sum": 8}
    assert digest.hexdigest() == SHORT_PAIRS_N2_SHA256


def test_differing_reduced_homologies_stop_the_search(monkeypatch):
    # s0 vs s0^-1: H^0 = 1, so the one solve on the map outside B^0 decides,
    # and its inconsistency stops the search without a probe
    n = 2
    c, d = FW("s0", n), FW("s0^-1", n)
    assert h0(c, d)[1] == 1
    solves = count_calls(monkeypatch, linalg, "solve_affine")
    probes = count_calls(monkeypatch, homotopy, "_candidate_iter")
    assert heq(c, d) is None
    assert len(solves) == 1 and not probes


WORDS_N3 = ["s0", "s1", "s2", "s0^-1", "s1^-1", "s2^-1", "z0", "z1", "z2"]


def test_endomorphism_h0_is_one_dimensional_on_short_words():
    # F(w) is invertible up to homotopy, so H^0 End(F(w)) = Q(sqrt2): the
    # fact that makes H^0 decide the homotopy search
    n = 3
    words = WORDS_N3 + [f"{a} {b}" for a in WORDS_N3 for b in WORDS_N3]
    assert len(words) == 90
    for w in words:
        c = FW(w, n)
        assert h0(c, c)[1] == 1, w


words_up_to_4_braid_letters_st = st.lists(
    st.one_of(
        st.tuples(st.just("s"), st.integers(0, 2), st.sampled_from([1, -1])),
        st.tuples(st.just("z"), st.integers(0, 2), st.just(1)),
    ),
    max_size=6,
).filter(lambda letters: sum(kind == "s" for kind, _, _ in letters) <= 4)


@given(words_up_to_4_braid_letters_st)
@settings(max_examples=15, deadline=None)
def test_endomorphism_h0_is_one_dimensional(letters):
    c = F_word(letters, 3)
    identity = {k: identity_map(m) for k, m in c.objects.items()}
    assert h0(c, c)[1] == 1
    assert outside_b0([identity], c, c) == [True]


virtual_words_st = st.lists(st.integers(0, 2).map(lambda i: f"z{i}"), max_size=2).map(" ".join)


@given(
    st.sampled_from([f"s{i} s{i}^-1|" for i in range(3)] + [f"s{i}^-1 s{i}|" for i in range(3)] + ["s1 s2 s1|s2 s1 s2"]),
    virtual_words_st,
    virtual_words_st,
)
@settings(max_examples=15, deadline=None)
def test_whiskered_relations_are_certified(relation, u, v):
    # reid2a/b[i] and relB2, wrapped as u.lhs.v ~ u.rhs.v: the search never
    # answers "not equivalent" for a pair the paper's relations make equivalent
    n = 3
    lhs, rhs = (" ".join(part for part in (u, side, v) if part) for side in relation.split("|"))
    c, d = FW(lhs, n), FW(rhs, n)
    assert h0(c, d)[1] == 1
    cert = find_homotopy_equiv(c, d, chain_map_space(c, d))
    assert cert is not None
    data = homotopy._certificate("whiskered", n, W(lhs, n), W(rhs, n), "homotopy", **homotopy._bare(cert))
    assert verify_certificate_dict(data) == (True, [])


def test_certify_pair_builds_the_chain_map_space_once(monkeypatch):
    # relB2 at n=3 has matching graded ranks but no isomorphism, so auto mode
    # runs both searches: c -> d once, shared by the two, and d -> c once
    n = 3
    spaces = count_calls(monkeypatch, homotopy, "chain_map_space")
    kind, cert = certify_pair(W("s1 s2 s1", n), W("s2 s1 s2", n), n)
    assert kind == "homotopy" and verify_certificate_dict(cert)[0]
    (c, d), backward = spaces
    assert backward == (d, c)


@pytest.mark.parametrize("kind", ["auto", "homotopy"])
def test_certify_pair_past_the_degree_bound_searches_nothing(monkeypatch, kind):
    # relB3 at n=2 spans 5 degrees: past a bound of 2, no mode builds Z^0
    n = 2
    monkeypatch.setattr(homotopy, "DEGREE_BOUND", 2)
    spaces = count_calls(monkeypatch, homotopy, "chain_map_space")
    assert certify_pair(W("s0 s1 s0 s1", n), W("s1 s0 s1 s0", n), n, kind) == (
        None,
        "not searched: the pair spans 5 degrees, above DEGREE_BOUND = 2",
    )
    assert spaces == []


@pytest.mark.parametrize("kind", ["auto", "homotopy"])
def test_certify_pair_past_the_degree_bound_builds_no_complex(monkeypatch, kind):
    # relB3 squared at n=2 spans 9 degrees, one past the bound: the words
    # alone decide, so neither rank-3^8 complex is built
    n = 2

    def refuse(*args):
        raise AssertionError(f"F_word{args} called")

    monkeypatch.setattr(homotopy, "F_word", refuse)
    lhs, rhs = W("s0 s1 s0 s1 s0 s1 s0 s1", n), W("s1 s0 s1 s0 s1 s0 s1 s0", n)
    assert certify_pair(lhs, rhs, n, kind) == (None, "not searched: the pair spans 9 degrees, above DEGREE_BOUND = 8")


@pytest.mark.parametrize("kind", ["iso", "", "Homotopy"])
def test_certify_pair_refuses_an_unknown_kind(monkeypatch, kind):
    # refused before the words are read, so nothing is built or cached
    n = 2

    def refuse(*args):
        raise AssertionError("the words were read")

    monkeypatch.setattr(homotopy, "pair_degrees", refuse)
    monkeypatch.setattr(homotopy, "F_word", refuse)
    with pytest.raises(ValueError, match="expected one of auto, homotopy"):
        certify_pair(W("s0 z0", n), W("z0 s0", n), n, kind)
    assert homotopy._CORE_CACHE == {}


def test_pair_degrees_read_from_the_words_match_the_complexes():
    # F(w) is nonzero in exactly degrees -p .. q (p positive, q negative
    # braid letters), so a pair spans max(p) + max(q) + 1 degrees
    n = 2
    words = [W(" ".join(w), n) for k in range(4) for w in itertools.product(SHORT_LETTERS_N2, repeat=k)]
    degrees = [set(F_word(w, n).objects) for w in words]
    for u, du in zip(words, degrees):
        for v, dv in zip(words, degrees):
            assert homotopy.pair_degrees(u, v) == len(du | dv), (u, v)


def test_word_complex_builds_each_monomial_once_without_identity_products(monkeypatch):
    # every product while a word's complex is built makes one monomial matrix
    # X^exp of one bimodule, never twice, and never with an identity factor
    n = 3
    building = []  # the (bimodule, exponent) whose matrix is being made
    made = []  # one per product; holding the bimodules keeps their ids distinct
    monomial_action, mat_mul = bimodcalc.Bimodule._monomial_action, bimodcalc.mat_mul

    def tracked(self, exp):
        building.append((self, exp))
        try:
            return monomial_action(self, exp)
        finally:
            building.pop()

    def checked(a, b):
        assert building, "a product that makes no monomial matrix"
        for m in (a, b):
            assert not (m and m == mat_identity(len(m), n)), f"identity factor in X^{building[-1][1]}"
        made.append(building[-1])
        return mat_mul(a, b)

    monkeypatch.setattr(bimodcalc.Bimodule, "_monomial_action", tracked)
    monkeypatch.setattr(bimodcalc, "mat_mul", checked)
    FW("z0 z1 s0 s1 s0 z2 z1", n)
    keys = [(id(m), exp) for m, exp in made]
    assert keys and len(set(keys)) == len(keys)


# -- whiskers: a common virtual prefix and suffix around a core pair ------------------


def search_whole_pair(c, d):
    """Auto mode's verdict and kind, from the searches run on the whole pair's complexes."""
    if homotopy._graded_ranks_match(c, d) and iso(c, d) is not None:
        return "iso"
    return "homotopy" if heq(c, d) is not None else None


def whiskered_cases():
    """``(lhs, rhs, n)``: seeded virtual prefixes and suffixes of 0-2 letters around core pairs.

    The cores are the 23 n=3 report pairs the ``pairs`` benchmark wraps (all
    but relB2 and relB3) and ``s0`` vs ``s0^-1`` (not equivalent), each with a
    left, a right and a two-sided whisker pair; ``s1 s2 s1 s2`` vs ``s2 s1 s2
    s1`` (not equivalent, and slow to decide) with a two-sided one; and relB3
    at n=2 with a left and a right one.
    """
    with open(REPORT_N3) as fh:
        report = json.load(fh)
    cores = [
        (*r["certificate"]["words"], 3) for r in report["results"] if not r["relation"].startswith(("relB2", "relB3"))
    ]
    cores += [("s0", "s0^-1", 3), ("s1 s2 s1 s2", "s2 s1 s2 s1", 3)]
    rng = random.Random(27)
    out = []
    for a, b, n in cores + [("s0 s1 s0 s1", "s1 s0 s1 s0", 2)]:
        lengths = [(1, 0), (0, 1), (rng.randint(1, 2), rng.randint(1, 2))]
        lengths = lengths[:2] if n == 2 else lengths[2:] if a == "s1 s2 s1 s2" else lengths
        for lu, lv in lengths:
            u = " ".join(f"z{rng.randrange(n)}" for _ in range(lu))
            v = " ".join(f"z{rng.randrange(n)}" for _ in range(lv))
            out.append(tuple(" ".join(p for p in (u, w, v) if p) for w in (a, b)) + (n,))
    return out


def test_whiskered_pairs_agree_with_the_search_on_the_whole_pair():
    cases = whiskered_cases()
    assert len(cases) == 3 * 24 + 1 + 2
    nones = []
    for lhs, rhs, n in cases:
        kind, cert = certify_pair(W(lhs, n), W(rhs, n), n)
        assert kind == search_whole_pair(FW(lhs, n), FW(rhs, n)), (lhs, rhs)
        if kind is None:
            assert cert == "not homotopy equivalent", (lhs, rhs)
            nones.append((lhs, rhs))
            continue
        assert cert["kind"] == kind and cert["words"] == [lhs, rhs]
        assert verify_certificate_dict(cert) == (True, []), (lhs, rhs)
    # the not-equivalent cores, and nothing else, stay not equivalent
    cores = {split_common(W(lhs, 3).letters, W(rhs, 3).letters, homotopy._is_virtual)[1:3] for lhs, rhs in nones}
    assert len(nones) == 4 and cores == {
        (W("s0", 3).letters, W("s0^-1", 3).letters),
        (W("s1 s2 s1 s2", 3).letters, W("s2 s1 s2 s1", 3).letters),
    }


@pytest.mark.parametrize(
    "core, v, n",
    [
        (("s1 s2 s1", "s2 s1 s2"), "z0 z2", 3),
        (("s0 s0^-1", ""), "z1", 3),
        (("z0 s1 z0 s1", "s1 z0 s1 z0"), "z2 z1", 3),
        (("s0 s1 s0 s1", "s1 s0 s1 s0"), "z1", 2),
    ],
)
def test_a_right_whisker_keeps_the_core_matrices(core, v, n):
    # M (x) R_v has M's basis and differentials, so the certificate of
    # u.w.v with u empty is the core's matrix for matrix, and it is the one
    # the search on the whole pair finds
    kind, core_cert = certify_pair(W(core[0], n), W(core[1], n), n)
    lhs, rhs = (" ".join(p for p in (w, v) if p) for w in core)
    whisker_kind, cert = certify_pair(W(lhs, n), W(rhs, n), n)
    assert whisker_kind == kind
    fields = [key for key in cert if key not in ("relation", "words")]
    assert all(cert[key] == core_cert[key] for key in fields)
    found_kind, maps = homotopy._search(FW(lhs, n), FW(rhs, n), "auto")
    assert homotopy._certificate(cert["relation"], n, W(lhs, n), W(rhs, n), found_kind, **homotopy._bare(maps)) == cert


def _with_a_monomial_added(maps, rng):
    """``maps`` with one seeded non-zero entry plus a monomial of the entry's own degree.

    The grading still holds, so only a residual can catch the change.
    """
    spots = [(f, k, i, j) for f, comps in maps.items() for k, m in comps.items() for i, row in enumerate(m.matrix) for j in row]
    f, k, i, j = rng.choice(spots)
    m = maps[f][k]
    degree = m.source.basis_degrees[j] - m.target.basis_degrees[i]
    row = {**m.matrix[i], j: m.matrix[i][j] + Poly.monomial(monomial_exponents(m.source.n, degree)[-1])}
    matrix = [{c: x for c, x in row.items() if x} if r == i else old for r, old in enumerate(m.matrix)]
    return {**maps, f: {**maps[f], k: Morphism(m.source, m.target, matrix)}}


def test_a_common_right_context_keeps_the_verdict_of_the_left_whiskered_check():
    # the lemma certify_pair checks by: maps pass on F(u w v), F(u w' v)
    # exactly when they pass on R_u (x) F(w), R_u (x) F(w').  Four n=3 cores
    # (two isomorphisms, two homotopies), every virtual u and v of at most 2
    # letters, each u with one v; the found maps pass in both frames, and a
    # copy with one entry changed in its own degree fails in both, on a residual
    n = 3
    contexts = [()] + [tuple(("z", i, 1) for i in w) for k in (1, 2) for w in itertools.product(range(n), repeat=k)]
    rng = random.Random(5)
    for a, b in (("s1 z1", "z1 s1"), ("s0 s0^-1", ""), ("s0 z1 s0 z1", "z1 s0 z1 s0"), ("s1 s2 s1", "s2 s1 s2")):
        core = FW(a, n), FW(b, n)
        kind, maps = homotopy._search(*core, "auto")
        for u, v in zip(contexts, contexts[4:] + contexts[:4]):
            left = [homotopy._whiskered_complex(x, u, n) for x in core]
            whole = [F_word(u + W(w, n).letters + v, n) for w in (a, b)]
            for found, fails in ((maps, False), (_with_a_monomial_added(maps, rng), True)):
                verdicts = []
                for c, d in (left, whole):
                    failures = homotopy._certificate_failures(kind, homotopy._whiskered(kind, found, u, n, c, d), c, d)
                    assert not [f for f in failures if f[1].endswith("grading")], (a, u, v)
                    verdicts.append(bool(failures))
                assert verdicts == [fails, fails], (a, b, u, v)


def test_pairs_that_share_a_core_search_it_once_and_check_each_result(monkeypatch):
    # remark_sz[1] at n=3 is an isomorphism: Z^0 is built once, by the first
    # call.  Each left context u is whiskered and checked once, on
    # R_u (x) F(w), and its checked matrices serve every right context after
    # it; the search checks nothing, and every result still verifies
    n = 3
    spaces = count_calls(monkeypatch, homotopy, "chain_map_space")
    checks = count_calls(monkeypatch, homotopy, "chain_iso_failures")
    whiskers = count_calls(monkeypatch, homotopy, "_whiskered_complex")
    results = []
    contexts = (("z0", "z2"), ("z2 z1", ""), ("", ""), ("z0", ""), ("z2 z1", "z0 z1"), ("", "z1"), ("z1", "z2"))
    seen = set()
    for u, v in contexts:
        lhs, rhs = (" ".join(p for p in (u, w, v) if p) for w in ("s1 z1", "z1 s1"))
        before = len(checks)
        results.append((lhs, rhs, *certify_pair(W(lhs, n), W(rhs, n), n)))
        if u in seen:
            assert checks[before:] == [], (u, v)
            continue
        seen.add(u)
        ((_, c, d),) = checks[before:]
        assert c.objects == FW(" ".join(p for p in (u, "s1 z1") if p), n).objects
        assert d.objects == FW(" ".join(p for p in (u, "z1 s1") if p), n).objects
    assert len(spaces) == 1 and len(checks) == len(seen) == 4 and len(whiskers) == 2 * 4
    for lhs, rhs, kind, cert in results:
        assert kind == "iso" and cert["words"] == [lhs, rhs]
        assert verify_certificate_dict(cert) == (True, [])


def test_the_largest_certify_n2_system_is_the_relB3_pane(monkeypatch):
    # every system certify --n 2 eliminates, with a fresh pane cache: the
    # largest (rows x cols) is the 1044 x 303 pane of relB3, with one kernel
    # vector, so a change to the pane builder's equation count shows here.
    # There are 100 of them, 84 pane solves and 16 Z^0 systems: 35 of the
    # 119 distinct panes are a shift or the dual of a pane solved before
    # (see test_panes_read_from_their_duals_equal_their_own_solves), so a
    # pane key that stops matching equal panes shows here too
    shapes = []
    kernel_basis = linalg.kernel_basis

    def recorded(rows, ncols):
        basis = kernel_basis(rows, ncols)
        shapes.append((len(rows), ncols, len(basis)))
        return basis

    monkeypatch.setattr(linalg, "kernel_basis", recorded)
    monkeypatch.setattr(bimodcalc, "_PANE_CACHE", {})
    assert relation_certificates(2)["all_certified"]
    assert max(shapes, key=lambda s: s[0] * s[1]) == (1044, 303, 1)
    assert len(shapes) == 100


@pytest.mark.parametrize("n, duals", [(2, 28), (3, 41)])
def test_panes_read_from_their_duals_equal_their_own_solves(monkeypatch, n, duals):
    # every pane the relation certificates take from a cached dual pane
    # has the basis that the pane's own system gives, on the same blocks
    solve_pane = bimodcalc._solve_pane
    derived = []

    def checked(m, sspan, target, tspan, dual=None):
        local = solve_pane(m, sspan, target, tspan, dual)
        if dual is not None:
            assert local == solve_pane(m, sspan, target, tspan)
            derived.append(local)
        return local

    monkeypatch.setattr(bimodcalc, "_solve_pane", checked)
    monkeypatch.setattr(bimodcalc, "_PANE_CACHE", {})
    assert relation_certificates(n)["all_certified"]
    assert len(derived) == duals and any(derived)


def test_a_wrong_homotopy_solve_is_an_error(monkeypatch):
    # relB2 at n=3 is decided by one solve; a solution with one coefficient
    # doubled fails the certificate's check, which is an error, never NONE
    n = 3
    solve = linalg.solve_affine

    def doubled(rows, rhs):
        solution = solve(rows, rhs)
        var = min(solution)
        p, q, d = solution[var]
        return {**solution, var: reduced_triple(2 * p, 2 * q, d)}

    monkeypatch.setattr(linalg, "solve_affine", doubled)
    with pytest.raises(RuntimeError, match="fails its check"):
        certify_pair(W("s1 s2 s1", n), W("s2 s1 s2", n), n)


def test_a_wrong_graded_inverse_is_an_error(monkeypatch):
    # remark_sz[1] at n=3 and s0 s0^-1 ~ s0^-1 s0 at n=2 are isomorphisms; an
    # inverse scaled by 2, or one built from a constant part inverted wrongly,
    # fails the certificate's check, which is an error, never a certificate of
    # another kind: graded_inverse checks nothing, so no probe is skipped
    inverse, dense_inverse = Morphism.graded_inverse, linalg.dense_inverse

    def doubled(self):
        inv = inverse(self)
        return inv and inv.scale(QSqrt2(2))

    def doubled_constant_part(matrix):
        inv = dense_inverse(matrix)
        return inv and [[x * QSqrt2(2) for x in row] for row in inv]

    for owner, name, fault in ((Morphism, "graded_inverse", doubled), (linalg, "dense_inverse", doubled_constant_part)):
        for lhs, rhs, n in (("s1 z1", "z1 s1", 3), ("s0 s0^-1", "s0^-1 s0", 2)):
            homotopy._CORE_CACHE.clear()
            with monkeypatch.context() as patch:
                patch.setattr(owner, name, fault)
                with pytest.raises(RuntimeError, match="fails its check"):
                    certify_pair(W(lhs, n), W(rhs, n), n)


def test_a_whiskered_certificate_that_fails_its_check_is_an_error():
    # a cached core whose whiskered maps fail is an internal error, never NONE
    n = 3
    certify_pair(W("z0 s1 z1", n), W("z0 z1 s1", n), n)
    ((key, (kind, matrices, core, checked)),) = homotopy._CORE_CACHE.items()
    homotopy._CORE_CACHE[key] = kind, {**matrices, "inverse": {}}, core, checked
    with pytest.raises(RuntimeError, match="fails its check"):
        certify_pair(W("z2 s1 z1", n), W("z2 z1 s1", n), n)
    # the left context z0 was checked before the maps broke, and serves as checked
    kind, cert = certify_pair(W("z0 s1 z1 z2", n), W("z0 z1 s1 z2", n), n)
    assert kind == "iso" and verify_certificate_dict(cert) == (True, [])


def test_a_cached_core_is_whiskered_without_folding_a_braid_letter(monkeypatch):
    # remark_sz[1] at n=3 with other whiskers: the second pair builds its
    # left-whiskered complexes R_u (x) F(w) from the cached core's, so no
    # braid letter's complex is looked up, and its certificate is still
    # checked once, on those complexes
    n = 3
    certify_pair(W("z0 s1 z1 z2", n), W("z0 z1 s1 z2", n), n)

    def refuse(*args):
        raise AssertionError(f"a braid letter was folded: {args}")

    with monkeypatch.context() as patch:
        patch.setattr(homotopy, "F_letter", refuse)
        patch.setattr(homotopy, "_letter_complex", refuse)
        checks = count_calls(patch, homotopy, "_certificate_failures")
        kind, cert = certify_pair(W("z2 z1 s1 z1 z0", n), W("z2 z1 z1 s1 z0", n), n)
    assert kind == "iso" and len(homotopy._CORE_CACHE) == 1
    ((_, _, c, d),) = checks
    _assert_same_presentation(c, FW("z2 z1 s1 z1", n))
    _assert_same_presentation(d, FW("z2 z1 z1 s1", n))
    assert verify_certificate_dict(cert) == (True, [])


def test_relation_certificates_keep_no_core_cached():
    # no two relations share a core, so the report drops each core it
    # cached once its entry is written; a core cached before it stays
    n = 2
    certify_pair(W("s0 z0", n), W("z0 s0", n), n)
    before = list(homotopy._CORE_CACHE.items())
    report = relation_certificates(n)
    assert report["all_certified"] and len(report["results"]) == 11
    assert list(homotopy._CORE_CACHE.items()) == before


def test_a_core_without_a_certificate_caches_no_complex(monkeypatch):
    # s0 vs s0^-1 is not homotopy equivalent: the cache keeps its None and
    # nothing else, and a whiskered repeat builds no complex at all
    n = 3
    assert certify_pair(W("z0 s0 z1", n), W("z0 s0^-1 z1", n), n) == (None, "not homotopy equivalent")
    assert list(homotopy._CORE_CACHE.values()) == [None]

    def refuse(*args):
        raise AssertionError(f"a complex was built: {args}")

    monkeypatch.setattr(homotopy, "F_word", refuse)
    monkeypatch.setattr(homotopy, "tensor_complex", refuse)
    assert certify_pair(W("z2 s0", n), W("z2 s0^-1", n), n) == (None, "not homotopy equivalent")
    # a whisker letter out of range is still refused, though nothing is built
    with pytest.raises(IndexError, match="letter index 2 out of range for n=2"):
        certify_pair(W("z2 s0", n), W("z2 s0^-1", n), 2)


@st.composite
def whiskered_words(draw):
    """``(n, u, core)``: a virtual ``u`` before a core of at most 3 braid letters."""
    n = draw(st.integers(2, 4))
    virtual = st.tuples(st.just("z"), st.integers(0, n - 1), st.just(1))
    braid = st.tuples(st.just("s"), st.integers(0, n - 1), st.sampled_from([1, -1]))
    core = st.lists(st.one_of(braid, virtual), max_size=6).filter(lambda w: sum(k == "s" for k, _, _ in w) <= 3)
    u, core = draw(st.lists(virtual, max_size=3)), draw(core)
    return n, tuple(u), tuple(core)


@given(whiskered_words())
@settings(max_examples=60, deadline=None)
@example((3, (("z", 2, 1),), (("s", 0, 1), ("s", 1, -1))))  # degree 0 has two blocks
@example((3, (("z", 0, 1),), (("z", 1, 1), ("s", 1, 1), ("z", 2, 1))))  # runs merge
@example((3, (("z", 1, 1), ("z", 2, 1)), (("s", 0, 1), ("s", 1, -1))))  # a two-letter context
@example((2, (), (("s", 0, -1), ("z", 1, 1), ("s", 1, 1))))  # no context: the core itself
@example((3, (("z", 2, 1),), (("z", 0, 1), ("z", 1, 1))))  # an all-virtual core: rank one
def test_whiskered_core_complex_is_the_folded_word(case):
    # R_u (x) F(core) is the presentation F_word folds for u core, block
    # spans included, so the whiskered certificate is checked on it
    n, u, core = case
    _assert_same_presentation(homotopy._whiskered_complex(F_word(core, n), u, n), F_word(u + core, n))


def test_a_cached_core_is_whiskered_with_no_tensor_product(monkeypatch):
    # the left whisker is written from the core's matrices in one pass,
    # degree 0's two blocks included: no complex and no bimodule is tensored
    n = 3
    u, core = (W(text, n).letters for text in ("z2 z0", "s0 z1 s1^-1"))
    cached, expected = F_word(core, n), F_word(u + core, n)

    def refuse(*args):
        raise AssertionError(f"a tensor product was built: {args}")

    for module, name in ((homotopy, "tensor_complex"), (homotopy, "tensor"), (bimodcalc, "tensor")):
        monkeypatch.setattr(module, name, refuse)
    _assert_same_presentation(homotopy._whiskered_complex(cached, u, n), expected)
    # an empty left context is the core itself, shared read-only
    assert homotopy._whiskered_complex(cached, (), n) is cached
