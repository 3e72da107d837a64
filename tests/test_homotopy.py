import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from braidcert.bimodcalc import (
    Morphism,
    bimodule_Bs,
    bimodule_R,
    bimodule_Rw,
    mat_identity,
    shift,
)
from braidcert import homotopy, linalg
from braidcert.coxeter import make_reflection
from braidcert.homotopy import (
    ChainMap,
    Complex,
    HomotopyEquivalence,
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
    homotopy_failures,
    reduced_complex,
    reduced_homology,
    relation_certificates,
    tensor_complex,
    verify_certificate_dict,
)
from braidcert.polyring import Poly, format_poly
from braidcert.scalars import QSqrt2
from braidcert.words import Alphabet, parse_word


def W(text, n):
    return parse_word(text, Alphabet.vbB(n))


def FW(text, n):
    return F_word(W(text, n), n)


def iso(c, d):
    return find_chain_iso(c, d, chain_map_space(c, d))


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
    f = ChainMap(left, right, {k: Morphism.identity(left.objects[k]) for k in left.objects})
    g = ChainMap(right, left, {k: Morphism.identity(left.objects[k]) for k in left.objects})
    assert not chain_iso_failures(f, g)


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
    f = ChainMap(c, d, comps)
    comps_back = {k: Morphism(d.objects[k], c.objects[k], mat_identity(c.objects[k].rank, n)) for k in c.objects}
    g = ChainMap(d, c, comps_back)
    assert not chain_iso_failures(f, g)


def test_relmixB3_sign_flip_fails_with_witness():
    n = 2
    c = FW("z1 z0 z1 s0", n)
    d = FW("s0 z1 z0 z1", n)
    comps = {
        -1: Morphism(c.objects[-1], d.objects[-1], [{0: Poly.constant(n, QSqrt2(-1))}]),
        0: Morphism(c.objects[0], d.objects[0], mat_identity(2, n)),
    }
    f = ChainMap(c, d, comps)
    failures = chain_map_failures(f)
    assert failures
    degree, what, row, col, residual = failures[0]
    assert what == "square" and degree == -1
    assert residual != "0"


def test_relmixB5_differential_matrices_match_description():
    # the four explicit degree -2 entries: one block carries the plain
    # column, the other the conjugated root with the Koszul minus sign
    n = 3
    x0 = Poly.variable(n, 0)
    root = x0 + Poly.variable(n, 1).scale(QSqrt2.sqrt2())
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
    f, g = found
    assert not chain_iso_failures(f, g)
    bottom = f.component(-2).matrix[0][0]
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
        assert chain_map_failures(f) == []


def test_find_chain_iso_simple_cases():
    n = 2
    # involution relation: F(z0 z0) vs F(1)
    found = iso(FW("z0 z0", n), F_one(n))
    assert found is not None and not chain_iso_failures(*found)
    # virtual order-4 relation
    found = iso(FW("z0 z1 z0 z1", n), FW("z1 z0 z1 z0", n))
    assert found is not None and not chain_iso_failures(*found)


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
    assert not homotopy_failures(cert)


def test_degree_bound_caps_search(monkeypatch):
    n = 2
    c = FW("s0 s0^-1", n)
    monkeypatch.setattr(homotopy, "DEGREE_BOUND", 2)
    assert heq(c, F_one(n)) is None


def test_relB2_homotopy_at_n3():
    n = 3
    cert = heq(FW("s1 s2 s1", n), FW("s2 s1 s2", n))
    assert cert is not None and not homotopy_failures(cert)


def test_corrupted_homotopy_certificate_fails_with_witness():
    n = 2
    cert = heq(FW("s0 s0^-1", n), F_one(n))
    assert cert is not None
    # flip one sign inside a forward component
    comp = cert.forward.components[0]
    matrix = [dict(row) for row in comp.matrix]
    done = False
    for i, row in enumerate(matrix):
        for j in sorted(row):
            if not done:
                matrix[i][j] = -row[j]
                done = True
    bad = ChainMap(
        cert.forward.source,
        cert.forward.target,
        {0: Morphism(comp.source, comp.target, matrix)},
    )
    from braidcert.homotopy import HomotopyEquivalence

    corrupted = HomotopyEquivalence(bad, cert.backward, cert.h_source, cert.h_target)
    failures = homotopy_failures(corrupted)
    assert failures
    degree, what, row, col, residual = failures[0]
    assert residual != "0"


# -- certificates -------------------------------------------------------------------


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
    kind, cert = certify_pair(W("s0", n), W("z0", n), n)
    assert kind is None and cert is None


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
    for i in range(n):
        found = iso(FW(f"s{i} z{i}", n), FW(f"z{i} s{i}", n))
        assert found is not None and not chain_iso_failures(*found), i
    found = iso(FW("z0 s1 z0 s1", n), FW("s1 z0 s1 z0", n))
    assert found is not None and not chain_iso_failures(*found)


# -- exact witnesses ----------------------------------------------------------------
# Every failure is a (degree, tag, row, col, residual) tuple; residuals are
# listed entry by entry in row-major order.


def test_non_square_zero_complex_witnesses():
    n = 2
    b = bimodule_Bs(make_reflection((0,), n))
    src = shift(bimodule_R(n), 2)
    d = Morphism(src, b, [{0: Poly.variable(n, 0)}, {0: Poly.one(n)}])
    c = Complex(n, {-1: src, 0: b, 1: b}, {-1: d, 0: Morphism.identity(b)})
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
    assert chain_map_failures(ChainMap(c, d, comps)) == [
        (-1, "square", 0, 0, "2*X0"),
        (-1, "square", 1, 0, "2"),
    ]


def test_broken_inverse_witnesses():
    n = 3
    f, g = iso(FW("s0 s2", n), FW("s2 s0", n))
    doubled = ChainMap(g.source, g.target, {k: m.scale(QSqrt2(2)) for k, m in g.components.items()})
    # g.f = 2 id and f.g = 2 id, so every diagonal entry leaves residual 1
    diagonal = [(-2, 0)] + [(k, i) for k in (-1, 0) for i in range(4)]
    assert chain_iso_failures(f, doubled) == [
        (k, f"{side}: {comp} + dh + hd != id", i, i, "1")
        for side, comp in (("source", "g.f"), ("target", "f.g"))
        for k, i in diagonal
    ]


def test_tampered_homotopy_witnesses():
    n = 2
    cert = heq(FW("s0 s0^-1", n), F_one(n))
    h_source = dict(cert.h_source)
    h_source[0] = h_source[0].scale(QSqrt2(2))
    tampered = HomotopyEquivalence(cert.forward, cert.backward, h_source, cert.h_target)
    tag = "source: g.f + dh + hd != id"
    assert homotopy_failures(tampered) == [
        (-1, tag, 0, 0, "1"),
        (-1, tag, 1, 1, "1"),
        (0, tag, 0, 3, "-1"),
        (0, tag, 0, 4, "-1*X0"),
        (0, tag, 1, 3, "X0"),
        (0, tag, 2, 4, "X0"),
        (0, tag, 3, 3, "1"),
        (0, tag, 4, 4, "1"),
    ]


# -- the reduced functor k (x)_R - (x)_R k and the probe screen ---------------------

REPORT_N3 = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "certify_n3.json"


def screen_passes(f):
    return homotopy._cone_acyclic(f, reduced_complex(f.source), reduced_complex(f.target))


@pytest.mark.parametrize(
    "text, dims",
    [
        ("s0", {-1: 1, 0: 1}),
        ("z0", {0: 1}),
        ("s0^-1", {0: 1, 1: 1}),
        ("s0 s0^-1", {-1: 1, 0: 3, 1: 1}),
        ("s0 s1 s0 s1", {-4: 1, -3: 4, -2: 8, -1: 8, 0: 3}),
    ],
)
def test_reduced_complex_dimensions(text, dims):
    r = reduced_complex(FW(text, 2))
    assert {k: len(free) for k, (_, free, _) in r.items()} == dims


def test_reduced_homology_is_a_homotopy_invariant_on_known_pairs():
    n = 2
    assert reduced_homology(reduced_complex(FW("s0 s0^-1", n))) == {0: 1}
    assert reduced_homology(reduced_complex(F_one(n))) == {0: 1}
    relb3 = [reduced_homology(reduced_complex(FW(w, n))) for w in ("s0 s1 s0 s1", "s1 s0 s1 s0")]
    assert relb3[0] == relb3[1] == {-4: 1, -3: 2, -2: 2, -1: 2, 0: 1}
    # F(s0) and F(z0) differ after the functor, so they are not homotopy equivalent
    assert reduced_homology(reduced_complex(FW("s0", n))) == {-1: 1, 0: 1}
    assert reduced_homology(reduced_complex(FW("z0", n))) == {0: 1}


def _forward_maps(report):
    for result in report["results"]:
        cert = result["certificate"]
        n = cert["n"]
        lhs, rhs = (FW(w, n) for w in cert["words"])
        yield cert["relation"], ChainMap(lhs, rhs, homotopy._components_from_json(cert, "forward", lhs, rhs))


def test_every_certified_forward_map_passes_the_screen():
    with open(REPORT_N3) as fh:
        n3 = json.load(fh)
    for report in (relation_certificates(2), n3):
        for label, f in _forward_maps(report):
            assert screen_passes(f), (report["n"], label)


def test_screen_agrees_with_the_solve_on_the_relB3_probes():
    n = 2
    c, d = FW("s0 s1 s0 s1", n), FW("s1 s0 s1 s0", n)
    fb, gb = chain_map_space(c, d), chain_map_space(d, c)
    sides = homotopy._homotopy_sides(c, d, len(gb))
    rc, rd = reduced_complex(c), reduced_complex(d)
    probes = list(itertools.islice(homotopy._candidate_iter(fb, homotopy.MAX_HOMOTOPY_CANDIDATES), 13))
    screened = [homotopy._cone_acyclic(f, rc, rd) for f in probes]
    solved = [homotopy._solve_homotopy_for(f, gb, sides) is not None for f in probes]
    assert screened == solved == [False] * 12 + [True]


@given(short_words_st)
@settings(max_examples=15, deadline=None)
def test_identity_chain_map_passes_the_screen(letters):
    c = F_word(letters, 3)
    assert screen_passes(ChainMap(c, c, {k: Morphism.identity(m) for k, m in c.objects.items()}))


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_screened_probes_never_reach_the_solver(monkeypatch):
    # every probe after the first is rejected by the screen, so only the
    # first one is solved (it was 200 full solves before the screen)
    n = 3
    solves = count_calls(monkeypatch, linalg, "solve_affine")
    assert heq(FW("s1 s2 s1 s2", n), FW("s2 s1 s2 s1", n)) is None
    assert len(solves) <= 1


def test_differing_reduced_homologies_stop_the_search(monkeypatch):
    n = 2
    solves = count_calls(monkeypatch, linalg, "solve_affine")
    screens = count_calls(monkeypatch, homotopy, "_cone_acyclic")
    assert heq(FW("s0", n), FW("s0^-1", n)) is None
    assert len(solves) == 1 and not screens


def test_certify_pair_builds_the_chain_map_space_once(monkeypatch):
    # relB2 at n=3 has matching graded ranks but no isomorphism, so auto mode
    # runs both searches: c -> d once, shared by the two, and d -> c once
    n = 3
    spaces = count_calls(monkeypatch, homotopy, "chain_map_space")
    kind, cert = certify_pair(W("s1 s2 s1", n), W("s2 s1 s2", n), n)
    assert kind == "homotopy" and verify_certificate_dict(cert)[0]
    (c, d), backward = spaces
    assert backward == (d, c)
