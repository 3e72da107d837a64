import json

import pytest

from braidcert.cli import main
from braidcert.polyring import format_poly, parse_poly
from braidcert.scalars import QSqrt2


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_invariant_vbA(capsys):
    code, out, _ = run(capsys, "invariant", "zet1 sig1", "--group", "vbA", "--n", "3")
    assert code == 0
    assert "a1 -> t^-1 a1 t" in out


def test_invariant_vbB_long_image(capsys):
    code, out, _ = run(capsys, "invariant", "z0 s1 z0 s1", "--group", "vbB", "--n", "2")
    assert code == 0
    assert "a2 -> a2^-1 t^-1 a0^-1 t a2 a1^-1 t^-1 a-1 t a1 a2^-1 t^-1 a0 t a2" in out


def test_invariant_empty_word_is_identity(capsys):
    code, out, _ = run(capsys, "invariant", "", "--group", "vbA", "--n", "3")
    assert code == 0
    for line in out.strip().splitlines():
        lhs, rhs = line.split(" -> ")
        assert lhs == rhs


def test_invariant_json(capsys):
    code, out, _ = run(
        capsys, "invariant", "z0", "--group", "vbB", "--n", "2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["images"]["t"] == "t"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "invariant", "s9", "--group", "vbB", "--n", "2")
    assert code == 2
    assert "parse error" in err


def test_distinguish_unequal(capsys):
    code, out, _ = run(
        capsys, "distinguish", "z0 s1 z0 s1", "s1 z0 s1 z0", "--group", "vbB", "--n", "2"
    )
    assert code == 0
    assert "UNEQUAL" in out and "a2" in out


def test_distinguish_equal_is_labeled_inconclusive(capsys):
    code, out, _ = run(
        capsys, "distinguish", "s0 z1 s0 z1", "z1 s0 z1 s0", "--group", "vbB", "--n", "2"
    )
    assert code == 0
    assert "invariant-equal" in out and "inconclusive" in out


def test_distinguish_welded_specialization(capsys):
    code, out, _ = run(
        capsys,
        "distinguish",
        "zet1 sig2 sig1",
        "sig2 sig1 zet2",
        "--group",
        "vbA",
        "--n",
        "4",
        "--t1",
    )
    assert code == 0
    assert "invariant-equal" in out
    code, out, _ = run(
        capsys, "distinguish", "zet1 sig2 sig1", "sig2 sig1 zet2", "--group", "vbA", "--n", "4"
    )
    assert "UNEQUAL" in out


def test_check_relations(capsys):
    code, out, _ = run(capsys, "check-relations", "--group", "vbB", "--n", "3")
    assert code == 0
    assert "all pass" in out


def test_check_relations_json_validates(capsys):
    import jsonschema
    from importlib import resources

    code, out, _ = run(
        capsys, "check-relations", "--group", "vbA", "--n", "3", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    schema = json.loads(
        resources.files("braidcert.schema").joinpath("report.schema.json").read_text()
    )
    jsonschema.validate(data, schema)


def test_certify_pair_remark_iso(capsys, tmp_path):
    out_path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys,
        "certify-pair",
        "s0 z0",
        "z0 s0",
        "--n",
        "2",
        "--format",
        "json",
        "--out",
        str(out_path),
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["kind"] == "iso"
    code, out, _ = run(capsys, "verify-certificate", str(out_path))
    assert code == 0
    assert "[ok]" in out


def test_certify_pair_none_exits_one(capsys):
    code, _, err = run(capsys, "certify-pair", "s0", "z0", "--n", "2")
    assert code == 1
    assert "NONE" in err


def test_verify_certificate_rejects_tampering(capsys, tmp_path):
    out_path = tmp_path / "cert.json"
    code, _, _ = run(
        capsys,
        "certify-pair",
        "z0 z0",
        "",
        "--n",
        "2",
        "--format",
        "json",
        "--out",
        str(out_path),
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    item = data["forward"][0]
    item["matrix"][0][0] = "2"  # no longer an inverse pair
    out_path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify-certificate", str(out_path))
    assert code == 1
    assert "FAIL" in out


def test_verify_certificate_counts_witnesses_left_out(capsys, tmp_path):
    out_path = tmp_path / "cert.json"
    code, _, _ = run(
        capsys, "certify-pair", "s0 s2", "s2 s0", "--n", "3", "--format", "json", "--out", str(out_path)
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["kind"] == "iso"
    # doubling the inverse gives g.f = 2 id and f.g = 2 id: 9 + 9 diagonal witnesses
    for item in data["inverse"]:
        item["matrix"] = [
            [format_poly(parse_poly(e, 3).scale(QSqrt2(2))) for e in row] for row in item["matrix"]
        ]
    out_path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify-certificate", str(out_path))
    assert code == 1
    tag = "source: g.f + dh + hd != id"
    assert out.splitlines() == [
        "[FAIL] s0 s2 ~ s2 s0 (iso)",
        f"    degree -2: {tag} at (0,0): 1",
        *(f"    degree -1: {tag} at ({i},{i}): 1" for i in range(4)),
        "    ... and 13 more",
    ]


def _over_budget(word, count):
    return (
        f"error: word '{word}' has {count} braid letters: its complex would have total rank "
        f"3^{count}, above the budget of 3^8\n"
    )


def test_certify_pair_refuses_words_over_the_rank_budget(capsys):
    word = " ".join(["s0", "s1"] * 4 + ["s0^-1"])
    code, out, err = run(capsys, "certify-pair", "z0", word, "--n", "2")
    assert (code, out, err) == (2, "", _over_budget(word, 9))


def test_rank_budget_counts_braid_letters_only(capsys):
    # twenty virtual letters have rank-one complexes: the pair is certified
    word = " ".join(["z0"] * 20 + ["s1"])
    code, _, _ = run(capsys, "certify-pair", word, "s1", "--n", "2")
    assert code == 0


def test_verify_certificate_refuses_words_over_the_rank_budget(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "certify-pair", "z0 z0", "", "--n", "2", "--format", "json", "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    word = " ".join(["s0", "z1", "s1"] * 15)
    data["words"][0] = word
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify-certificate", str(path))
    assert (code, out, err) == (2, "", _over_budget(word, 30))


def test_n_out_of_range(capsys):
    with pytest.raises(SystemExit):
        main(["check-relations", "--group", "vbB", "--n", "9"])


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "payload, message",
    [
        (
            {
                "format": "braidcert.certificate.v1",
                "relation": "z0 z0 ~ ",
                "kind": "iso",
                "group": "vbB",
                "n": 2,
                "words": ["z0 z0", ""],
                "forward": [],
            },
            "error: ",
        ),
        ([1, 2], "error: "),
        ({"format": "braidcert.report.v1", "kind": "invariant-relator-check", "results": []}, "error: "),
        (
            {
                "format": "braidcert.report.v1",
                "kind": "relation-certificates",
                "group": "vbB",
                "n": 2,
                "all_certified": True,
                "results": [
                    {
                        "relation": "relWB0[0]",
                        "kind": "iso",
                        "status": "certified",
                        "certificate": {
                            "format": "braidcert.certificate.v1",
                            "relation": "relWB0[0]",
                            "kind": "iso",
                            "group": "vbB",
                            "n": 2,
                            "words": ["z0 z0", ""],
                            "inverse": [],
                        },
                    }
                ],
            },
            "error: ",
        ),
        (
            {
                "format": "braidcert.report.v1",
                "kind": "invariant-relator-check",
                "all_pass": True,
                "results": [{"relator_label": "relWB0[0]", "status": "pass"}],
            },
            "error: ",
        ),
        (
            {
                "format": "braidcert.report.v1",
                "kind": "relation-certificates",
                "all_certified": True,
                "results": [],
            },
            "error: ",
        ),
        (
            {
                "format": "braidcert.certificate.v1",
                "relation": "z0 z0 ~ ",
                "kind": "iso",
                "group": "vbB",
                "n": 2,
                "words": ["z0 z0", ""],
                "forward": [{"degree": 0, "matrix": [["1/0*X0"]]}],
                "inverse": [{"degree": 0, "matrix": [["1"]]}],
            },
            "parse error: certificate 'z0 z0 ~ ', forward, degree 0, entry (0,0): "
            "zero denominator at position 0: '1/0'",
        ),
        (
            {
                "format": "braidcert.certificate.v1",
                "relation": "s0 ~ s0",
                "kind": "iso",
                "group": "vbB",
                "n": 2,
                "words": ["s0", "s0"],
                "forward": [
                    {"degree": -1, "matrix": [["1"]]},
                    {"degree": 0, "matrix": [["1", "0"], ["X7", "1"]]},
                ],
                "inverse": [{"degree": -1, "matrix": [["1"]]}],
            },
            "parse error: certificate 's0 ~ s0', forward, degree 0, entry (1,0): "
            "variable X7 out of range for n=2 at position 0: 'X7'",
        ),
        (
            {
                "format": "braidcert.certificate.v1",
                "relation": "s0 ~ s0",
                "kind": "iso",
                "group": "vbB",
                "n": 2,
                "words": ["s0", "s0"],
                "forward": [
                    {"degree": -1, "matrix": [["1"]]},
                    {"degree": 0, "matrix": [["1", "1/0"], ["1/0", "1"]]},
                ],
                "inverse": [{"degree": -1, "matrix": [["1"]]}],
            },
            "parse error: certificate 's0 ~ s0', forward, degree 0, entry (0,1): "
            "zero denominator at position 0: '1/0'",
        ),
        (
            {
                "format": "braidcert.certificate.v1",
                "relation": "z0 z0 ~ ",
                "kind": "iso",
                "group": "vbB",
                "n": 2,
                "words": ["z0 z0", ""],
                "forward": [{"degree": 0, "matrix": [["2"]]}, {"degree": 0, "matrix": [["1"]]}],
                "inverse": [{"degree": 0, "matrix": [["1"]]}],
            },
            "error: certificate 'z0 z0 ~ ', forward, degree 0: the degree appears more than once\n",
        ),
        (
            {
                "format": "braidcert.certificate.v1",
                "relation": "z0 z0 ~ ",
                "kind": "iso",
                "group": "vbB",
                "n": 2,
                "words": ["z0 z0", ""],
                "forward": [{"degree": 0, "matrix": [["1"], ["1"]]}],
                "inverse": [{"degree": 0, "matrix": [["1"]]}],
            },
            "error: certificate 'z0 z0 ~ ', forward, degree 0: "
            "matrix shape 2x1 does not map rank 1 into rank 1\n",
        ),
        (
            {
                "format": "braidcert.certificate.v1",
                "relation": "z0 z0 ~ ",
                "kind": "iso",
                "group": "vbB",
                "n": 2,
                "words": ["z0 z0", ""],
                "forward": [{"degree": 0, "matrix": [["1"]]}],
                "inverse": [{"degree": 0, "matrix": [["1"]]}, {"degree": 5, "matrix": [["1"]]}],
            },
            "error: certificate 'z0 z0 ~ ', inverse, degree 5: "
            "matrix shape 1x1 does not map rank 0 into rank 0\n",
        ),
        (
            {
                "format": "braidcert.certificate.v1",
                "relation": "z0 z0 ~ ",
                "kind": "iso",
                "group": "vbB",
                "n": 2,
                "words": ["z0 z7", ""],
                "forward": [{"degree": 0, "matrix": [["1"]]}],
                "inverse": [{"degree": 0, "matrix": [["1"]]}],
            },
            "parse error: certificate 'z0 z0 ~ ', words[0]: "
            "index 7 outside 0..1 at position 3: 'z0 z7'\n",
        ),
    ],
    ids=[
        "certificate-without-inverse",
        "top-level-array",
        "report-without-all_pass",
        "inner-certificate-without-forward",
        "relator-check-report",
        "report-without-entries",
        "zero-denominator",
        "bad-variable",
        "repeated-bad-text-names-the-first-entry",
        "repeated-degree",
        "wrong-shape",
        "component-where-both-complexes-are-zero",
        "bad-word",
    ],
)
def test_verify_certificate_malformed_file_is_usage_error(capsys, tmp_path, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "verify-certificate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(message) and err.count("\n") == 1


def test_verify_certificate_null_entry_fails(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(
        capsys, "certify-pair", "z0 z0", "", "--n", "2", "--format", "json", "--out", str(cert_path)
    )
    assert code == 0
    report = {
        "format": "braidcert.report.v1",
        "kind": "relation-certificates",
        "group": "vbB",
        "n": 2,
        "all_certified": False,
        "results": [
            {
                "relation": "relWB0[0]",
                "kind": "iso",
                "status": "certified",
                "certificate": json.loads(cert_path.read_text()),
            },
            {"relation": "relWB0[1]", "kind": "iso", "status": "failed", "certificate": None},
        ],
    }
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    code, out, _ = run(capsys, "verify-certificate", str(path))
    assert code == 1
    assert out.splitlines() == [
        "[ok] z0 z0 ~  (iso)",
        "[FAIL] relWB0[1] (iso): no certificate",
    ]
