"""Acceptance suite: every criterion checked exactly, one line printed each.

All comparisons are exact (rationals extended by sqrt 2); there is no
tolerance anywhere.  Run with ``pytest tests/test_acceptance.py -s`` to see
the per-criterion lines.
"""

import hashlib
import itertools
import json

import pytest

from braidcert import freegroup as fg
from braidcert import homotopy, linalg
from braidcert.bimodcalc import bimodule_Bs, bimodule_Rw, from_dense, mat_mul, tensor
from braidcert.cli import main
from braidcert.coxeter import act, alpha, demazure_decompose, make_reflection, word_endo
from braidcert.homotopy import (
    F_one,
    F_word,
    chain_map_space,
    find_chain_iso,
    find_homotopy_equiv,
    homotopy_classes,
    homotopy_failures,
    verify_certificate_dict,
    Morphism,
)
from braidcert.polyring import LinearEndo, Poly
from braidcert.scalars import SQRT2
from braidcert.words import (
    Alphabet,
    check_relators_via_invariant,
    invariant,
    parse_word,
    relator_table,
)
from conftest import invariant_generators, middle_coords, solver_iso


def _X(n, j):
    return Poly.variable(n, j)


def _report(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {num}: {name}")
    assert not failures, failures[:5]


def test_criterion_1_coxeter_action_suite():
    failures = []
    for n in range(2, 6):
        identity = LinearEndo.identity(n)
        for i in range(n):
            if alpha(i, n).compose(alpha(i, n)) != identity:
                failures.append(f"alpha_{i} not an involution at n={n}")
        for i, j in itertools.combinations(range(n), 2):
            if j - i > 1 and word_endo((i, j), n) != word_endo((j, i), n):
                failures.append(f"commuting relation ({i},{j}) fails at n={n}")
        for i in range(1, n - 1):
            if word_endo((i, i + 1, i), n) != word_endo((i + 1, i, i + 1), n):
                failures.append(f"braid relation at i={i}, n={n}")
        if word_endo((0, 1, 0, 1), n) != word_endo((1, 0, 1, 0), n):
            failures.append(f"order-4 relation fails at n={n}")
        for word in [(0,), (1,), (1, 0, 1), (0, 1, 0)]:
            for g in invariant_generators(word, n):
                if act(word, g) != g:
                    failures.append(f"table {word} entry {g} not invariant at n={n}")
    # the X2^2 identity, exactly
    n = 3
    sqrt2 = SQRT2
    x0, x1, x2 = (_X(n, j) for j in range(3))
    first = x1 * (x0.scale(sqrt2) + x1) - (x1 + x2) * (x1 + x2) - x0.scale(sqrt2) * (x1 + x2)
    second = x0.scale(sqrt2) + x1.scale(2) + x2.scale(2)
    if first + second * x2 != x2 * x2:
        failures.append("X2^2 identity fails")
    for part in (first, second):
        if act((0,), part) != part or act((1, 0, 1), part) != part:
            failures.append("X2^2 identity parts not doubly invariant")
    _report(1, "Coxeter action suite (n = 2..5), invariant tables, X2^2 identity", failures)


def test_criterion_2_invariant_regression():
    failures = []

    def img(letters, lo=1, hi=3):
        return fg.manturov_image(letters, lo, hi)

    i = 1
    checks = [
        (img([("zet", i, 1), ("sig", i, 1)]).image(i), "t^-1 a1 t"),
        (img([("sig", i, 1), ("zet", i, 1)]).image(i), "t a2^-1 a1 a2 t^-1"),
    ]
    lhs = img([("zet", i, 1), ("sig", i + 1, 1), ("sig", i, 1)])
    rhs = img([("sig", i + 1, 1), ("sig", i, 1), ("zet", i + 1, 1)])
    checks += [
        (lhs.image(i), "a3"),
        (lhs.image(i + 1), "a3^-1 t a2 t^-1 a3"),
        (lhs.image(i + 2), "a3^-1 t^-1 a1 t a3"),
        (rhs.image(i), "a3"),
        (rhs.image(i + 1), "t a3^-1 a2 a3 t^-1"),
        (rhs.image(i + 2), "t^-1 a3^-1 a1 a3 t"),
    ]
    w1 = [("zet", 0, 1), ("sig", -1, 1), ("sig", 1, 1)] * 2
    w2 = [("sig", -1, 1), ("sig", 1, 1), ("zet", 0, 1)] * 2
    checks += [
        (
            fg.manturov_image(w1, -1, 1).image(2),
            "a2^-1 t^-1 a0^-1 t a2 a1^-1 t^-1 a-1 t a1 a2^-1 t^-1 a0 t a2",
        ),
        (
            fg.manturov_image(w2, -1, 1).image(2),
            "a2^-1 a1^-1 a2 t^-1 a0^-1 a-1 a0 t a2^-1 a1 a2",
        ),
    ]
    for k, (got, want) in enumerate(checks):
        if fg.format_word(got) != want:
            failures.append(f"explicit image {k}: {fg.format_word(got)} != {want}")
    # all virtual braid relators map to the identity automorphism, n = 2..5
    for n in range(2, 6):
        for rel in relator_table("vbA", n):
            letters = list(rel.lhs.letters) + [
                (k, idx, -e if k == "sig" else 1)
                for k, idx, e in reversed(rel.rhs.letters)
            ]
            auto = fg.manturov_image(letters, 1, n - 1)
            if auto != fg.FreeAutomorphism.identity(auto.gens):
                failures.append(f"{rel.label} not identity at n={n}")
    _report(2, "invariant regression: explicit images and relator identities", failures)


def test_criterion_3_doubling_necessary_condition():
    failures = []
    for n in range(2, 5):
        report = check_relators_via_invariant("vbB", n)
        if not report["all_pass"]:
            bad = [r["relator_label"] for r in report["results"] if r["status"] != "pass"]
            failures.append(f"n={n}: {bad}")
    # the three inequalities, with their witness generators
    ab = Alphabet.vbA(4)
    i = 1
    pairs = [
        (
            parse_word(f"sig{i} zet{i}", ab),
            parse_word(f"zet{i} sig{i}", ab),
            i,
        ),
        (
            parse_word(f"zet{i} sig{i+1} sig{i}", ab),
            parse_word(f"sig{i+1} sig{i} zet{i+1}", ab),
            i + 1,
        ),
    ]
    for lhs, rhs, witness in pairs:
        a, b = invariant(lhs), invariant(rhs)
        if a == b:
            failures.append(f"{lhs} vs {rhs} unexpectedly equal")
        elif fg.first_difference(a, b) != witness:
            failures.append(f"wrong witness for {lhs} vs {rhs}")
    abB = Alphabet.vbB(2)
    a = invariant(parse_word("z0 s1 z0 s1", abB))
    b = invariant(parse_word("s1 z0 s1 z0", abB))
    if a == b or fg.first_difference(a, b) != 2:
        failures.append("z0 s1 z0 s1 comparison has wrong witness")
    # the forbidden move becomes equal in the welded quotient (t = 1)
    lhs, rhs, _ = pairs[1]
    if invariant(lhs).specialize_t1() != invariant(rhs).specialize_t1():
        failures.append("forbidden move not equal under t=1")
    _report(3, "doubling map: relators pass (n = 2..4), inequalities witnessed", failures)


def _on_column(matrix, coords):
    """``matrix`` times the coordinate column ``coords``: ``mat_mul`` with a one-column matrix."""
    n = coords[0].n
    return [row.get(0, Poly.zero(n)) for row in mat_mul(matrix, [{0: c} if c else {} for c in coords])]


def test_criterion_4_bimodule_calculus():
    failures = []
    for n in (2, 3):
        for word in [(0,), (1,), (1, 0, 1), (0, 1, 0)]:
            try:
                bimodule_Bs(make_reflection(word, n)).validate()
            except ValueError as exc:
                failures.append(f"B_{word} at n={n}: {exc}")
        try:
            tensor(
                bimodule_Bs(make_reflection((0,), n)),
                bimodule_Bs(make_reflection((1, 0, 1), n)),
            ).validate()
        except ValueError as exc:
            failures.append(f"tensor at n={n}: {exc}")
        # the twist swap R_w (x) B_t -> B_{w t w^-1} (x) R_w is the degree-0 map the
        # solver finds: it fixes the unit and sends 1 (x) root_t to the Demazure
        # split p + q * root' of w(root_t) over the conjugate reflection
        for w, t in [((1, 0, 1), (0,)), ((1,), (0,)), ((0,), (1,))]:
            tt, t2 = make_reflection(t, n), make_reflection(w + t + w[::-1], n)
            found = solver_iso(
                tensor(bimodule_Rw(w, n), bimodule_Bs(tt)),
                tensor(bimodule_Bs(t2), bimodule_Rw(w, n)),
            )
            p, q = demazure_decompose(t2, act(w, tt.root))
            if found is None:
                failures.append(f"swap ({w},{t}) at n={n}: Hom^0 not one-dimensional or not invertible")
            elif found[0].matrix != from_dense([[Poly.one(n), p], [Poly.zero(n), q]]):
                failures.append(f"swap ({w},{t}) at n={n} is not the Demazure split")
        # twisted tensor equals the composed twist
        if tensor(bimodule_Rw((0,), n), bimodule_Rw((1,), n)) != bimodule_Rw((0, 1), n):
            failures.append(f"R_w tensor composition fails at n={n}")
    n = 3
    b0, b1, b101, b010 = (bimodule_Bs(make_reflection(w, n)) for w in [(0,), (1,), (1, 0, 1), (0, 1, 0)])
    # phi: B_{s0} (x) B_{s1 s0 s1} -> B_{s1 s0 s1} (x) B_{s0} pulls the s0-invariants
    # to the far left and pushes the s1 s0 s1-invariants to the far right
    found = solver_iso(tensor(b0, b101), tensor(b101, b0))
    if found is None:
        failures.append("phi: Hom^0 not one-dimensional or not invertible")
    else:
        f = found[0]
        t0 = make_reflection((0,), n)
        unit = [Poly.one(n)] + [Poly.zero(n)] * 3
        for p in invariant_generators((0,), n):
            if _on_column(f.matrix, middle_coords(t0, p)) != [p] + [Poly.zero(n)] * 3:
                failures.append(f"invariant {p} not pulled left of phi")
        for p in invariant_generators((1, 0, 1), n):
            if _on_column(f.matrix, middle_coords(t0, p)) != _on_column(f.target.action_of(p), unit):
                failures.append(f"invariant {p} not pushed right of phi")
    # psi, the mirror B_{s1} (x) B_{s0 s1 s0} -> B_{s0 s1 s0} (x) B_{s1}, swaps basis elements 1 and 2
    found = solver_iso(tensor(b1, b010), tensor(b010, b1))
    one, zero = Poly.one(n), Poly.zero(n)
    swap_12 = from_dense(
        [
            [one, zero, zero, zero],
            [zero, zero, one, zero],
            [zero, one, zero, zero],
            [zero, zero, zero, one],
        ]
    )
    if found is None:
        failures.append("psi: Hom^0 not one-dimensional or not invertible")
    elif found[0].matrix != swap_12:
        failures.append("psi is not the pinned exchange")
    _report(4, "bimodule calculus: invariants, swaps, phi absorption checks, psi", failures)


def _check_certificates(report, n, failures):
    by_label = {r["relation"]: r for r in report["results"]}
    for rel in relator_table("vbB", n):
        entry = by_label.get(rel.label)
        if entry is None or entry["status"] != "certified":
            failures.append(f"n={n}: {rel.label} not certified")
            continue
        want_kind = "homotopy" if rel.label.startswith(("relB2", "relB3")) else "iso"
        if entry["kind"] != want_kind:
            failures.append(f"n={n}: {rel.label} certified with kind {entry['kind']}")
    # the contractions hold only up to homotopy; the remark pairs (n >= 3) on the nose
    want_kinds = {f"reid2{side}[{i}]": "homotopy" for side in "ab" for i in range(n)}
    if n >= 3:
        want_kinds.update({f"remark_sz[{i}]": "iso" for i in range(n)})
        want_kinds["remark_zszs"] = "iso"
    for tag, want_kind in want_kinds.items():
        entry = by_label.get(tag)
        if entry is None or entry["status"] != "certified":
            failures.append(f"n={n}: {tag} not certified")
        elif entry["kind"] != want_kind:
            failures.append(f"n={n}: {tag} certified with kind {entry['kind']}")


def test_criterion_5_relation_certificates(certificates_n2, certificates_n3):
    failures = []
    _check_certificates(certificates_n2, 2, failures)
    _check_certificates(certificates_n3, 3, failures)
    _report(5, "certificates for every defining relation at n = 2 and n = 3", failures)


def test_criterion_6_negative_controls(monkeypatch):
    failures = []
    n = 2
    ab = Alphabet.vbB(n)
    s0 = F_word(parse_word("s0", ab), n)
    # H^0 Hom is 1-dimensional, so the one solve on the map outside B^0
    # decides: an inconsistent system proves the pair is not equivalent
    solves = []
    solve_affine = linalg.solve_affine
    monkeypatch.setattr(linalg, "solve_affine", lambda rows, rhs: solves.append(solve_affine(rows, rhs)) or solves[-1])
    for other in ("z0", "s0^-1"):
        d = F_word(parse_word(other, ab), n)
        fb = chain_map_space(s0, d)
        if homotopy_classes(s0, d, fb)[1] != 1:
            failures.append(f"H^0 Hom(F(s0), F({other})) is not 1-dimensional")
        solves.clear()
        if find_homotopy_equiv(s0, d, fb) is not None:
            failures.append(f"F(s0) ~ F({other}) unexpectedly homotopy equivalent")
        if solves != [None]:
            failures.append(f"F(s0) vs F({other}): expected one inconsistent solve, got {solves}")
    z0 = F_word(parse_word("z0", ab), n)
    if find_chain_iso(s0, z0, chain_map_space(s0, z0)) is not None:
        failures.append("F(s0) ~ F(z0) unexpectedly isomorphic")
    # corrupting one sign in a verified certificate must produce a witness
    contraction = F_word(parse_word("s0 s0^-1", ab), n)
    cert = find_homotopy_equiv(contraction, F_one(n), chain_map_space(contraction, F_one(n)))
    if cert is None:
        failures.append("contraction certificate missing")
    else:
        comp = cert["forward"][0]
        matrix = [dict(row) for row in comp.matrix]
        flipped = False
        for i, row in enumerate(matrix):
            for j in sorted(row):
                if not flipped:
                    matrix[i][j] = -row[j]
                    flipped = True
        bad = {**cert, "forward": {0: Morphism(comp.source, comp.target, matrix)}}
        wits = homotopy_failures(bad, contraction, F_one(n))
        if not wits:
            failures.append("sign flip not detected")
        else:
            degree, what, row, col, residual = wits[0]
            if residual == "0":
                failures.append("witness residual is empty")
    _report(6, "negative controls: F(s0) not equivalent to F(z0) or F(s0^-1), decided; tamper detected", failures)


def test_criterion_7_remark_isomorphisms(certificates_n3):
    failures = []
    by_label = {r["relation"]: r for r in certificates_n3["results"]}
    for i in range(3):
        entry = by_label.get(f"remark_sz[{i}]")
        if entry is None or entry["status"] != "certified" or entry["kind"] != "iso":
            failures.append(f"remark_sz[{i}] not certified as iso")
    entry = by_label.get("remark_zszs")
    if entry is None or entry["status"] != "certified" or entry["kind"] != "iso":
        failures.append("remark_zszs not certified as iso")
    # ... while the same word pairs are distinguished in the group
    ab = Alphabet.vbB(3)
    for i in range(3):
        if invariant(parse_word(f"s{i} z{i}", ab)) == invariant(parse_word(f"z{i} s{i}", ab)):
            failures.append(f"s{i} z{i} not distinguished")
    if invariant(parse_word("z0 s1 z0 s1", ab)) == invariant(parse_word("s1 z0 s1 z0", ab)):
        failures.append("z0 s1 z0 s1 not distinguished")
    _report(7, "remark isomorphisms certified beside group inequalities", failures)


def test_criterion_8_serialization_round_trip(certificates_n2, certificates_n3):
    failures = []
    for report in (certificates_n2, certificates_n3):
        blob = json.dumps(report)
        loaded = json.loads(blob)
        if json.dumps(loaded, sort_keys=True) != json.dumps(report, sort_keys=True):
            failures.append("serialization not bit-stable")
        for item in loaded["results"]:
            cert = item.get("certificate")
            if cert is None:
                failures.append(f"{item['relation']} has no certificate")
                continue
            ok, wits = verify_certificate_dict(cert)
            if not ok:
                failures.append(f"{item['relation']} fails re-verification: {wits[:2]}")
    _report(8, "every certificate re-verifies after a JSON write/read cycle", failures)


# sha256 of the file ``braidcert certify --n N --format json --out F`` writes
# (the report dumped with indent=1, plus a newline): certificates must stay
# byte-identical unless a change means to alter them.
CERTIFY_SHA256 = {
    2: "d86d99ea3d1405d99de6dc628a0e648bc847d86bfc8c9bbae6198a01d200f0c5",
    3: "90d69fe5be5f87f43de52b5e61910fd1a41ce943abdf026782fe1df850fd6ac6",
}


def test_certify_output_bytes_unchanged(certificates_n2, certificates_n3):
    for n, report in ((2, certificates_n2), (3, certificates_n3)):
        text = json.dumps(report, indent=1) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == CERTIFY_SHA256[n], f"n={n}"


# sha256 of the stdout of ``braidcert certify-pair LHS RHS --n N --format json``
# for homotopy certificates that ``certify`` does not write
CERTIFY_PAIR_SHA256 = [
    (["z0 s0 s1 s0 s1", "z0 s1 s0 s1 s0", "--n", "2"], "homotopy", "70bc564fb28c984711251c95f72443ee3c2472b661455f903585a9dcc52d334f"),
    (["z1 s1 s2 s1", "z1 s2 s1 s2", "--n", "3"], "homotopy", "6ff240331811d25952d2e3106551aea027715e1135ea60f9e2fe5a58c9456ecf"),
    (["s0 s0^-1 z2", "z2", "--n", "3"], "homotopy", "bfd3a975ceb9179a91dd60431b5b1b4f6b5f5ac60fe7f5a6cc984fddaed46d1f"),
    (["s0 z0", "z0 s0", "--n", "2", "--kind", "homotopy"], "homotopy", "bcb293055590b488aeb011c7405ba9527980278f6cb6e5026653717898a79808"),
    # virtual runs of up to four letters on both sides of the braid letters
    (["z0 z2 s1 z2 z1 z1 z1", "z0 z2 z2 z1 s2 z1 z1", "--n", "3"], "iso", "9019c19fee0fc22c5447cfca4192b8f4001f78e56f0c6ad3fdd3252001b3b1a9"),
    (["z1 z0 s2 s2^-1 z2 z1", "z1 z0 z2 z1", "--n", "3"], "homotopy", "2d2a4bc1c04c9b46e8f16568f3b9bb8eaec2c08a0b1d25e872869f850ebdbf59"),
]


@pytest.mark.parametrize(
    "args, kind, digest",
    CERTIFY_PAIR_SHA256,
    ids=["z0-relB3-n2", "z1-relB2-n3", "reid2a-z2-n3", "sz-n2", "runs-iso-n3", "runs-reid2a-n3"],
)
def test_certify_pair_output_bytes_unchanged(args, kind, digest, capsys):
    capsys.readouterr()
    assert main(["certify-pair", *args, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["kind"] == kind
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the three virtual-context pairs .github/pins.sh pins, with their sha256
VIRTUAL_CONTEXT_PAIRS = [
    (["z0 z2 s1 z2 z1 z1 z1", "z0 z2 z2 z1 s2 z1 z1", "--n", "3"], "9019c19fee0fc22c5447cfca4192b8f4001f78e56f0c6ad3fdd3252001b3b1a9"),
    (["z1 s0 s0^-1 z2", "z1 z2", "--n", "3"], "8b7fc1e672c54c3f2cd9fcbc24043bc1134a695aa73c6e28de70827c97f94bf1"),
    (["z0 s0 s1 s0 s1", "z0 s1 s0 s1 s0", "--n", "2"], "70bc564fb28c984711251c95f72443ee3c2472b661455f903585a9dcc52d334f"),
]


def test_certify_pair_output_bytes_are_the_same_warm_and_cold(capsys):
    # twice in one process, the second time with every twist image memoized
    # and every core cached, then once more with the cached twists and
    # letters (and so their memos) and the core cache dropped
    def outputs():
        capsys.readouterr()
        texts = []
        for args, _ in VIRTUAL_CONTEXT_PAIRS:
            assert main(["certify-pair", *args, "--format", "json"]) == 0
            texts.append(capsys.readouterr().out)
        return texts

    runs = [outputs(), outputs()]
    homotopy._twist_complex.cache_clear()
    homotopy._letter_complex.cache_clear()
    homotopy._CORE_CACHE.clear()
    runs.append(outputs())
    assert runs[0] == runs[1] == runs[2]
    assert [hashlib.sha256(text.encode()).hexdigest() for text in runs[0]] == [d for _, d in VIRTUAL_CONTEXT_PAIRS]


VERIFIED_N3 = [
    "[ok] relB1[0,2] (iso)",
    "[ok] relB2[1] (homotopy)",
    "[ok] relB3 (homotopy)",
    "[ok] relWB1[0,2] (iso)",
    "[ok] relWB2[1] (iso)",
    "[ok] relWB3 (iso)",
    "[ok] relWB0[0] (iso)",
    "[ok] relWB0[1] (iso)",
    "[ok] relWB0[2] (iso)",
    "[ok] relmixB1[0,2] (iso)",
    "[ok] relmixB1[2,0] (iso)",
    "[ok] relmixB2[1] (iso)",
    "[ok] relmixB3 (iso)",
    "[ok] relmixB4 (iso)",
    "[ok] relmixB5 (iso)",
    "[ok] reid2a[0] (homotopy)",
    "[ok] reid2b[0] (homotopy)",
    "[ok] reid2a[1] (homotopy)",
    "[ok] reid2b[1] (homotopy)",
    "[ok] reid2a[2] (homotopy)",
    "[ok] reid2b[2] (homotopy)",
    "[ok] remark_sz[0] (iso)",
    "[ok] remark_sz[1] (iso)",
    "[ok] remark_sz[2] (iso)",
    "[ok] remark_zszs (iso)",
]


def test_verify_certificate_output_on_n3_report(certificates_n3, tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(certificates_n3, indent=1) + "\n")
    capsys.readouterr()
    assert main(["verify-certificate", str(path)]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines() == VERIFIED_N3 and out.endswith("\n") and err == ""


# ``verify-certificate`` output for single-entry tamperings of the n=3 report:
# (relation, field, degree, row, col, new entry) -> the exact printed lines.
# They pin the verdict, the witness order and the residual text, so a change
# to the matrix routines cannot silently change what the verifier reports.
_SRC_ID = "source: g.f + dh + hd != id"
TAMPERINGS = [
    (
        ("relB1[0,2]", "forward", -1, 0, 2, "0"),
        [
            "[FAIL] relB1[0,2] (iso)",
            "    degree -1: component action X0 at (0,3): -1*X0^2",
            "    degree -1: component action X0 at (1,2): 1",
            "    degree -1: component action X1 at (0,3): 1/2*sqrt2*X0^2",
            "    degree -1: component action X1 at (1,2): -1/2*sqrt2",
            "    degree -2: square at (0,0): -1*X0",
            "    ... and 4 more",
        ],
    ),
    (
        ("relB1[0,2]", "inverse", -1, 0, 0, "1"),
        [
            "[FAIL] relB1[0,2] (iso)",
            "    degree -1: component action X0 at (0,0): -1*X0",
            "    degree -1: component action X0 at (0,1): X0^2",
            "    degree -1: component action X1 at (0,0): 1/2*sqrt2*X0 + -1/2*X2",
            "    degree -1: component action X1 at (0,1): -1/2*sqrt2*X0^2",
            "    degree -1: component action X1 at (1,0): 1/2",
            "    ... and 7 more",
        ],
    ),
    (
        ("relB2[1]", "backward", -1, 4, 0, "1 + X1"),
        [
            "[FAIL] relB2[1] (homotopy)",
            "    degree -1: component grading at (4,0): X1 + 1",
            "    degree -1: component action X0 at (4,2): -1/2*sqrt2*X1^3",
            "    degree -1: component action X0 at (5,0): 1/2*sqrt2*X1",
            "    degree -1: component action X1 at (4,0): 1/4*X1^2 + 1/2*X1*X2",
            "    degree -1: component action X1 at (4,1): -1/4*X1^3 + -1/2*X1^2*X2 + -1/2*X1*X2^2",
            "    ... and 16 more",
        ],
    ),
    (
        ("relB3", "homotopy_source", -1, 8, 12, "0"),
        [
            "[FAIL] relB3 (homotopy)",
            "    degree -1: h_source action X0 at (8,13): -1/2*sqrt2*X0^2 + -1*X0*X1 + -1/2*sqrt2*X1^2",
            "    degree -1: h_source action X0 at (8,14): 1/2*X0^2",
            "    degree -1: h_source action X0 at (8,15): 1/2*sqrt2*X0^3 + X0^2*X1",
            "    degree -1: h_source action X0 at (9,12): 1/2*sqrt2",
            "    degree -1: h_source action X0 at (10,12): -1/2",
            "    ... and 17 more",
        ],
    ),
    (
        ("relB3", "homotopy_target", 0, 8, 8, "sqrt2"),
        [
            "[FAIL] relB3 (homotopy)",
            "    degree 0: h_target action X0 at (8,3): -2*sqrt2*X0^2 + -4*X0*X1 + -1*sqrt2*X1^2",
            "    degree 0: h_target action X0 at (8,7): "
            "2*sqrt2*X0^3 + 6*X0^2*X1 + 4*sqrt2*X0*X1^2 + 2*X1^3",
            "    degree 0: h_target action X0 at (8,9): 2*sqrt2*X0^2 + 4*X0*X1 + 2*sqrt2*X1^2",
            "    degree 0: h_target action X0 at (8,11): -2*X0*X1^2 + -1*sqrt2*X1^3",
            "    degree 0: h_target action X0 at (8,15): -4*X0^2*X1^2 + -4*sqrt2*X0*X1^3 + -2*X1^4",
            "    ... and 40 more",
        ],
    ),
    (
        ("relWB0[1]", "inverse", 0, 0, 0, "2"),
        [
            "[FAIL] relWB0[1] (iso)",
            f"    degree 0: {_SRC_ID} at (0,0): 1",
            "    degree 0: target: f.g + dh + hd != id at (0,0): 1",
        ],
    ),
    (
        ("reid2a[1]", "backward", 0, 3, 0, "X2"),
        [
            "[FAIL] reid2a[1] (homotopy)",
            "    degree 0: component grading at (3,0): X2",
            "    degree 0: component action X0 at (3,0): -1/2*sqrt2*X1*X2",
            "    degree 0: component action X0 at (4,0): 1/2*sqrt2*X2",
            "    degree 0: component action X1 at (3,0): X1*X2",
            "    degree 0: component action X1 at (4,0): -1*X2",
            "    ... and 7 more",
        ],
    ),
    (
        ("reid2a[0]", "homotopy_source", 1, 1, 0, "0"),
        [
            "[FAIL] reid2a[0] (homotopy)",
            "    degree 1: h_source action X0 at (1,1): -1*X0^2",
            "    degree 1: h_source action X0 at (2,0): 1",
            "    degree 1: h_source action X1 at (1,1): 1/2*sqrt2*X0^2",
            "    degree 1: h_source action X1 at (2,0): -1/2*sqrt2",
            f"    degree 0: {_SRC_ID} at (1,0): -1*X0",
            "    ... and 3 more",
        ],
    ),
    (
        ("remark_zszs", "forward", -2, 0, 0, "-1*sqrt2"),
        [
            "[FAIL] remark_zszs (iso)",
            "    degree -2: square at (0,0): (-2 + 1*sqrt2)*X0 + (1 + -1*sqrt2)*X1",
            "    degree -2: square at (1,0): (1 + -1*sqrt2)",
            "    degree -2: square at (2,0): (-1 + 1*sqrt2)*X1",
            "    degree -2: square at (3,0): (-1 + 1*sqrt2)",
            f"    degree -2: {_SRC_ID} at (0,0): (-1 + 1*sqrt2)",
            "    ... and 1 more",
        ],
    ),
]


@pytest.mark.parametrize(
    "tampering, expected", TAMPERINGS, ids=[f"{t[0]}-{t[1]}-{t[2]}" for t, _ in TAMPERINGS]
)
def test_verify_certificate_output_on_tampered_n3_entries(certificates_n3, tmp_path, capsys, tampering, expected):
    relation, field, degree, row, col, text = tampering
    [cert] = [r["certificate"] for r in certificates_n3["results"] if r["relation"] == relation]
    cert = json.loads(json.dumps(cert))
    [item] = [it for it in cert[field] if it["degree"] == degree]
    assert item["matrix"][row][col] != text
    item["matrix"][row][col] = text
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["verify-certificate", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == expected
