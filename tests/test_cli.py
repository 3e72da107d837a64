import json
import os
import re
import subprocess
import sys
from functools import lru_cache
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import braidcert
from braidcert import cli, words
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


def test_repeated_main_calls_match_fresh_processes(capsys):
    # ``main`` reuses one parser per process; usage errors between calls must
    # leave nothing behind that a later call could see
    calls = [
        ["distinguish", "z0 s1 z0 s1", "s1 z0 s1 z0", "--n", "2"],
        [],
        ["invariant", "zet1 sig1", "--group", "vbA", "--n", "3", "--format", "json"],
        ["check-relations", "--group", "vbB", "--n", "9"],
        ["invariant", "s9", "--n", "2"],
        ["distinguish", "z0 s1 z0 s1", "s1 z0 s1 z0", "--n", "2"],
        ["invariant", "zet1 sig1", "--group", "vbA", "--n", "3", "--format", "json"],
    ]
    src = os.path.dirname(os.path.dirname(braidcert.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "braidcert.cli", *argv], capture_output=True, text=True, env=env
        )
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


# the certificate of ``z0 z0 ~ `` that ``certify-pair "z0 z0" "" --n 2`` writes
_TOO_DEEP = 100_000

_Z0Z0_CERT = {
    "format": "braidcert.certificate.v1",
    "relation": "z0 z0 ~ ",
    "kind": "iso",
    "group": "vbB",
    "n": 2,
    "words": ["z0 z0", ""],
    "forward": [{"degree": 0, "matrix": [["1"]]}],
    "inverse": [{"degree": 0, "matrix": [["1"]]}],
}


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
        (
            {**_Z0Z0_CERT, "n": 2.0},
            "error: does not match certificate.schema.json: n: 2.0 is not of type 'integer'\n",
        ),
        (
            {
                "format": "braidcert.report.v1",
                "kind": "relation-certificates",
                "group": "vbB",
                "n": 3.0,
                "all_certified": True,
                "results": [
                    {
                        "relation": "relWB0[0]",
                        "kind": "iso",
                        "status": "certified",
                        "certificate": {**_Z0Z0_CERT, "n": 3.0},
                    }
                ],
            },
            "error: does not match report.schema.json: n: 3.0 is not of type 'integer'\n",
        ),
        (
            {**_Z0Z0_CERT, "forward": [{"degree": 0.0, "matrix": [["1"]]}]},
            "error: does not match certificate.schema.json: "
            "forward[0].degree: 0.0 is not of type 'integer'\n",
        ),
        # raw JSON text nested deeper than any Python's parser recursion limit
        ("[" * _TOO_DEEP + "]" * _TOO_DEEP, "error: <file>: JSON nested too deeply to read\n"),
        (
            json.dumps({**_Z0Z0_CERT, "forward": "DEEP"}).replace('"DEEP"', "[" * _TOO_DEEP + "]" * _TOO_DEEP),
            "error: <file>: JSON nested too deeply to read\n",
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
        "integral-float-n",
        "integral-float-report-n",
        "integral-float-degree",
        "deeply-nested-brackets",
        "deeply-nested-forward",
    ],
)
def test_verify_certificate_malformed_file_is_usage_error(capsys, tmp_path, payload, message):
    # a ``str`` payload is the file's text; ``<file>`` in ``message`` is its path
    path = tmp_path / "bad.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    code, out, err = run(capsys, "verify-certificate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(message.replace("<file>", str(path))) and err.count("\n") == 1


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


ROOT = Path(__file__).resolve().parents[1]
REPORT_N3 = ROOT / "perfbench" / "data" / "certify_n3.json"


def test_verify_report_with_a_bad_last_certificate_verifies_nothing(capsys, tmp_path):
    # every certificate is checked against the schema before any is verified
    report = json.loads(REPORT_N3.read_text())
    report["results"][24]["certificate"]["forward"][2]["matrix"][3][1] = 5
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    code, out, err = run(capsys, "verify-certificate", str(path))
    assert (code, out) == (2, "")
    assert err == (
        "error: results[24].certificate does not match certificate.schema.json: "
        "forward[2].matrix[3][1]: 5 is not of type 'string'\n"
    )


def test_schema_errors_cut_the_offending_value(capsys, tmp_path):
    # a whole certificate component list, or a deeply nested one, in the wrong
    # place: the one error line shows a cut value and still says where it is
    report = json.loads(REPORT_N3.read_text())
    cert = report["results"][2]["certificate"]
    cert["homotopy_source"] = {"components": cert["homotopy_source"]}
    deep = json.dumps({**_Z0Z0_CERT, "forward": "DEEP"}).replace('"DEEP"', "[" * 500 + "]" * 500)
    cases = [
        (json.dumps(report), "results[2].certificate does not match", "homotopy_source: "),
        (deep, "does not match", "forward[0]: "),
    ]
    for text, where, path in cases:
        (tmp_path / "bad.json").write_text(text)
        code, out, err = run(capsys, "verify-certificate", str(tmp_path / "bad.json"))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and len(err) < 200, err
        assert err.startswith(f"error: {where} certificate.schema.json: {path}"), err


def test_verify_certificate_runs_without_jsonschema():
    code = (
        "import sys\n"
        "sys.modules['jsonschema'] = None\n"
        "from braidcert import cli\n"
        "sys.exit(cli.main(['verify-certificate', 'perfbench/data/certify_n3.json']))\n"
    )
    src = os.path.dirname(os.path.dirname(braidcert.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.count("[ok]") == 25 and "[FAIL]" not in proc.stdout


def _shipped_schema(name):
    return json.loads(resources.files("braidcert.schema").joinpath(name).read_text())


def _subschemas(schema):
    yield schema
    for key, arg in schema.items():
        if key in ("properties", "$defs"):
            subs = arg.values()
        elif key == "allOf":
            subs = arg
        elif key in ("items", "if", "then"):
            subs = [arg]
        else:
            continue
        for sub in subs:
            yield from _subschemas(sub)


@pytest.mark.parametrize("name", ["certificate.schema.json", "report.schema.json"])
def test_checker_knows_every_keyword_of_the_shipped_schemas(name):
    root = _shipped_schema(name)
    for node in _subschemas(root):
        cli._compile(root, node)  # raises on a keyword or type it does not know


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "string", "pattern": "^X"},
        {"properties": {"words": {"items": {"minLength": 1}}}},
        {"if": {"const": 1}, "then": {}, "else": {"required": ["a"]}},
        {"type": "number"},
        {"$ref": "https://example.org/schema.json"},
    ],
    ids=["pattern", "nested-minLength", "else", "type-number", "remote-ref"],
)
def test_checker_refuses_what_it_does_not_know(schema):
    with pytest.raises(ValueError, match="unsupported schema"):
        cli._compile(schema, schema)


@lru_cache(maxsize=None)
def _oracle_documents():
    """``(schema name, JSON text)`` of real documents: the committed n=3 report,
    each of its certificates, and a ``check-relations --format json`` report."""
    report = REPORT_N3.read_text()
    relations = json.dumps(words.check_relators_via_invariant("vbB", 3))
    return (
        ("report.schema.json", report),
        ("report.schema.json", relations),
        *(
            ("certificate.schema.json", json.dumps(r["certificate"]))
            for r in json.loads(report)["results"]
        ),
    )


@lru_cache(maxsize=None)
def _oracle(name):
    import jsonschema

    schema = _shipped_schema(name)
    return jsonschema.validators.validator_for(schema)(schema)


# what a mutation swaps in: every JSON type, integral and other floats, and
# the enum and const values of both schemas
_SWAPS = [
    None, True, False, 0, 1, 2, 9, -1, 3.0, 2.5, "", "x", "1", [], ["a", "b"], [["1"]], {},
    {"degree": 0, "matrix": []}, "iso", "homotopy", "vbB", "braidcert.certificate.v1",
    "braidcert.report.v1", "relation-certificates", "invariant-relator-check", "pass",
    "fail", "unequal", "certified", "failed",
]


def _mutate(data, doc):
    """Delete, swap, duplicate or shorten one value at a drawn place in ``doc``."""
    parent, depth = doc, data.draw(st.integers(0, 8))
    while parent:
        keys = sorted(parent) if type(parent) is dict else range(len(parent))
        key = data.draw(st.sampled_from(keys))
        child = parent[key]
        if depth == 0 or type(child) not in (dict, list) or not child:
            break
        parent, depth = child, depth - 1
    else:
        return
    op = data.draw(st.sampled_from(["delete", "swap", "duplicate", "shorten"]))
    if op == "delete":
        del parent[key]
    elif op == "swap":
        parent[key] = json.loads(json.dumps(data.draw(st.sampled_from(_SWAPS))))
    elif op == "duplicate" and type(parent) is list:
        parent.insert(key, json.loads(json.dumps(child)))
    elif type(child) is list:
        del child[data.draw(st.integers(0, len(child))):]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_checker_agrees_with_jsonschema_on_mutated_documents(data):
    name, text = data.draw(st.sampled_from(_oracle_documents()))
    doc = json.loads(text)
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, doc)
    found = cli._schema(name)(doc)
    if found is None:
        assert _oracle(name).is_valid(doc)  # never looser than jsonschema
    elif _oracle(name).is_valid(doc):
        # the one difference: an integral float is not an integer here
        assert re.fullmatch(r"-?\d+\.0 is not of type 'integer'", found[1]), found
