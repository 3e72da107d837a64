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
from braidcert.bimodcalc import (
    bimodule_Bs,
    bimodule_R,
    bimodule_Rw,
    iso_swap_Rw,
    mat_identity,
    mat_mul,
    middle_coords,
    phi,
    psi,
    tensor,
)
from braidcert.cli import main
from braidcert.coxeter import (
    act,
    alpha,
    invariant_generator_table,
    is_invariant,
    make_reflection,
    word_endo,
)
from braidcert.homotopy import (
    F_one,
    F_word,
    find_chain_iso,
    find_homotopy_equiv,
    homotopy_failures,
    verify_certificate_dict,
    relation_certificates,
    HomotopyEquivalence,
    ChainMap,
    Morphism,
)
from braidcert.polyring import LinearEndo, Poly
from braidcert.scalars import QSqrt2
from braidcert.words import (
    Alphabet,
    check_relators_via_invariant,
    invariant,
    parse_word,
    relator_table,
)


def _X(n, j):
    return Poly.variable(n, j)


def _report(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {num}: {name}")
    assert not failures, failures[:5]


@pytest.fixture(scope="module")
def certificates_n2():
    return relation_certificates(2)


@pytest.fixture(scope="module")
def certificates_n3():
    return relation_certificates(3)


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
            for g in invariant_generator_table(word, n):
                if not is_invariant(word, g):
                    failures.append(f"table {word} entry {g} not invariant at n={n}")
    # the X2^2 identity, exactly
    n = 3
    sqrt2 = QSqrt2.sqrt2()
    x0, x1, x2 = (_X(n, j) for j in range(3))
    first = x1 * (x0.scale(sqrt2) + x1) - (x1 + x2) * (x1 + x2) - x0.scale(sqrt2) * (x1 + x2)
    second = x0.scale(sqrt2) + x1.scale(2) + x2.scale(2)
    if first + second * x2 != x2 * x2:
        failures.append("X2^2 identity fails")
    for part in (first, second):
        if not (is_invariant((0,), part) and is_invariant((1, 0, 1), part)):
            failures.append("X2^2 identity parts not doubly invariant")
    _report(1, "Coxeter action suite (n = 2..5), invariant tables, X2^2 identity", failures)


def test_criterion_2_invariant_regression():
    failures = []
    W = fg.parse_word
    gens14 = fg.strand_gens(1, 3)

    def img(letters, lo=1, hi=3):
        return fg.manturov_image(letters, lo, hi)

    i = 1
    checks = [
        (img([("zet", i, 1), ("sig", i, 1)]).image(i), W("t^-1 a1 t")),
        (img([("sig", i, 1), ("zet", i, 1)]).image(i), W("t a2^-1 a1 a2 t^-1")),
    ]
    lhs = img([("zet", i, 1), ("sig", i + 1, 1), ("sig", i, 1)])
    rhs = img([("sig", i + 1, 1), ("sig", i, 1), ("zet", i + 1, 1)])
    checks += [
        (lhs.image(i), W("a3")),
        (lhs.image(i + 1), W("a3^-1 t a2 t^-1 a3")),
        (lhs.image(i + 2), W("a3^-1 t^-1 a1 t a3")),
        (rhs.image(i), W("a3")),
        (rhs.image(i + 1), W("t a3^-1 a2 a3 t^-1")),
        (rhs.image(i + 2), W("t^-1 a3^-1 a1 a3 t")),
    ]
    w1 = [("zet", 0, 1), ("sig", -1, 1), ("sig", 1, 1)] * 2
    w2 = [("sig", -1, 1), ("sig", 1, 1), ("zet", 0, 1)] * 2
    checks += [
        (
            fg.manturov_image(w1, -1, 1).image(2),
            W("a2^-1 t^-1 a0^-1 t a2 a1^-1 t^-1 a-1 t a1 a2^-1 t^-1 a0 t a2"),
        ),
        (
            fg.manturov_image(w2, -1, 1).image(2),
            W("a2^-1 a1^-1 a2 t^-1 a0^-1 a-1 a0 t a2^-1 a1 a2"),
        ),
    ]
    for k, (got, want) in enumerate(checks):
        if got != want:
            failures.append(f"explicit image {k}: {fg.format_word(got)} != {fg.format_word(want)}")
    # all virtual braid relators map to the identity automorphism, n = 2..5
    for n in range(2, 6):
        for rel in relator_table("vbA", n):
            letters = list(rel.lhs.letters) + [
                (k, idx, -e if k == "sig" else 1)
                for k, idx, e in reversed(rel.rhs.letters)
            ]
            if not fg.manturov_image(letters, 1, n - 1).is_identity():
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
        # twist swap isomorphisms with verified inverses
        for w, t in [((1, 0, 1), (0,)), ((1,), (0,)), ((0,), (1,))]:
            fwd, bwd = iso_swap_Rw(w, make_reflection(t, n), n)
            if fwd.morphism_failures() or bwd.morphism_failures():
                failures.append(f"swap ({w},{t}) fails at n={n}")
            if bwd.compose(fwd).matrix != mat_identity(2, n):
                failures.append(f"swap inverse ({w},{t}) wrong at n={n}")
        # twisted tensor equals the composed twist
        if tensor(bimodule_Rw((0,), n), bimodule_Rw((1,), n)) != bimodule_Rw((0, 1), n):
            failures.append(f"R_w tensor composition fails at n={n}")
    n = 3
    f = phi(n)
    if f.morphism_failures():
        failures.append("phi not a morphism")
    t0 = make_reflection((0,), n)
    unit = [Poly.zero(n)] * 4
    unit[0] = Poly.one(n)
    for p in invariant_generator_table((0,), n):
        want = [Poly.zero(n)] * 4
        want[0] = p
        if _on_column(f.matrix, middle_coords(f.source, t0, p)) != want:
            failures.append(f"invariant {p} not pulled left of phi")
    for p in invariant_generator_table((1, 0, 1), n):
        if _on_column(f.matrix, middle_coords(f.source, t0, p)) != _on_column(f.target.action_of(p), unit):
            failures.append(f"invariant {p} not pushed right of phi")
    finv = f.graded_inverse()
    if finv is None or finv.morphism_failures():
        failures.append("phi not invertible")
    fwd, bwd = psi(n)
    if fwd.morphism_failures() or bwd is None or bwd.morphism_failures():
        failures.append("psi not found or not verified")
    elif bwd.compose(fwd).matrix != mat_identity(4, n):
        failures.append("psi inverse wrong")
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
    for i in range(n):
        for tag in (f"reid2a[{i}]", f"reid2b[{i}]"):
            entry = by_label.get(tag)
            if entry is None or entry["status"] != "certified":
                failures.append(f"n={n}: {tag} not certified")


def test_criterion_5_relation_certificates(certificates_n2, certificates_n3):
    failures = []
    _check_certificates(certificates_n2, 2, failures)
    _check_certificates(certificates_n3, 3, failures)
    _report(5, "certificates for every defining relation at n = 2 and n = 3", failures)


def test_criterion_6_negative_controls():
    failures = []
    n = 2
    ab = Alphabet.vbB(n)
    s0 = F_word(parse_word("s0", ab), n)
    z0 = F_word(parse_word("z0", ab), n)
    if find_homotopy_equiv(s0, z0) is not None:
        failures.append("F(s0) ~ F(z0) unexpectedly homotopy equivalent")
    if find_chain_iso(s0, z0) is not None:
        failures.append("F(s0) ~ F(z0) unexpectedly isomorphic")
    # corrupting one sign in a verified certificate must produce a witness
    cert = find_homotopy_equiv(F_word(parse_word("s0 s0^-1", ab), n), F_one(n))
    if cert is None:
        failures.append("contraction certificate missing")
    else:
        comp = cert.forward.components[0]
        matrix = [dict(row) for row in comp.matrix]
        flipped = False
        for i, row in enumerate(matrix):
            for j in sorted(row):
                if not flipped:
                    matrix[i][j] = -row[j]
                    flipped = True
        bad = HomotopyEquivalence(
            ChainMap(
                cert.forward.source,
                cert.forward.target,
                {0: Morphism(comp.source, comp.target, matrix)},
            ),
            cert.backward,
            cert.h_source,
            cert.h_target,
        )
        wits = homotopy_failures(bad)
        if not wits:
            failures.append("sign flip not detected")
        else:
            degree, what, row, col, residual = wits[0]
            if residual == "0":
                failures.append("witness residual is empty")
    _report(6, "negative controls: no equivalence F(s0) ~ F(z0); tamper detected", failures)


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
