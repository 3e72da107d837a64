import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from functools import lru_cache
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import braidcert
from braidcert import cli, words
from braidcert import freegroup as fg
from braidcert.cli import main
from braidcert.polyring import MAX_EXPONENT, format_poly, parse_poly
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


def test_over_long_index_is_parse_error(capsys):
    code, out, err = run(capsys, "invariant", "s" + "1" * 5000, "--group", "vbB", "--n", "2")
    assert (code, out) == (2, "")
    assert err.startswith("parse error: number too long (5000 digits) at position 0: 's111")
    assert err.count("\n") == 1


# 16-letter contexts drawn like the benchmark's distinguish requests
LONG_U = "s0^-1 s3^-1 z6 s2^-1 s6^-1 s6 z4 s4 z1 s1^-1 z4 z1 s4^-1 z7 s0^-1 s4^-1"
LONG_V = "s7 s4^-1 s4^-1 s0 s7^-1 s7 z5 z7 s3^-1 z0 s3 z7 s7^-1 z1 s4^-1 s5^-1"
# vbA contexts of the same length, around a welded (t = 1) equality
LONG_U_A = "sig3 zet5 sig1^-1 sig7 zet2 sig4^-1 sig6 zet1 sig2 sig5^-1 zet7 sig1 zet3 sig6^-1 sig4 zet6"
LONG_V_A = "zet4 sig2^-1 sig7^-1 zet1 sig5 sig3 zet6 sig1 sig4^-1 zet2 sig6 sig2 zet5 sig7 sig3^-1 zet7"

# sha256 of the stdout of ``braidcert ARGS --n 8 --format json``: the
# invariant layer's output must stay byte-identical
INVARIANT_SHA256 = [
    (
        ["invariant", "z0 s1 z0 s1 s2 s3^-1 z4 s5 s6 s7 s0 s1 z7 s6^-1 s5 z2 s1 s0^-1"],
        "6972853418399ada9477bf0a02fa7c23e216e585316052d667218d5aa3e78ef1",
    ),
    (
        ["invariant", "s0 s1 s0 s1 z3 s4^-1 s4 z5 s7^-1 z0"],
        "d67255cac438a34aefd03505e63018e2efd27820307887e1216a63ab4181f134",
    ),
    (
        ["invariant", "zet1 sig2 sig1 zet3 sig4^-1 sig5 zet6 sig7 sig7 zet7", "--group", "vbA"],
        "37375599552bf627fe544ce8f94522138221ed5289747af7c2eb99a76737fd84",
    ),
    (["invariant", ""], "5190a0416f2dc3404e0ccd59d6a2ae231477bcdf4b8d0d72e4686479bd032ef1"),
    (
        ["distinguish", "z0 s1 z0 s1 s5 z6 s7^-1", "s1 z0 s1 z0 s5 z6 s7^-1"],
        "7a35edc23d9290115ca094fbb286af485fbb3156c4071c92435c89d4dbadb021",
    ),
    (
        ["distinguish", "s3 s0 z1 s0 z1 s7", "s3 z1 s0 z1 s0 s7"],
        "7ba912bd582e02af7ece95efe4b6e02d8b56eb94063ab65bd89a9dc63c09aedc",
    ),
    (
        ["distinguish", "zet1 sig2 sig1 zet4 sig6", "sig2 sig1 zet2 zet4 sig6", "--group", "vbA"],
        "6205c733940b38f458bd492f127354404d60f281815e1b08f694f81ef95cce83",
    ),
    (
        ["distinguish", "zet1 sig2 sig1 zet4 sig6", "sig2 sig1 zet2 zet4 sig6", "--group", "vbA", "--t1"],
        "7ba912bd582e02af7ece95efe4b6e02d8b56eb94063ab65bd89a9dc63c09aedc",
    ),
    (
        ["distinguish", "s2 z3 s4 z2 s1^-1", "z4 s2 z3 s0 z7", "--t1"],
        "b92d5b5e89a9676e6693fa1e4a135750a26e5da5fef09083d06b9daaf13b77dd",
    ),
    # benchmark-length pairs: 16-letter contexts around relB3 (equal, so the
    # same verdict bytes as any equal pair) and around s3 z3 vs z3 s3, whose
    # witness images have 465 and 435 letters
    (
        ["distinguish", f"{LONG_U} s0 s1 s0 s1 {LONG_V}", f"{LONG_U} s1 s0 s1 s0 {LONG_V}"],
        "7ba912bd582e02af7ece95efe4b6e02d8b56eb94063ab65bd89a9dc63c09aedc",
    ),
    (
        ["distinguish", f"{LONG_U} s3 z3 {LONG_V}", f"{LONG_U} z3 s3 {LONG_V}"],
        "8c7dbee8bfa424fba9470b61cfa578dabdfcd1471069802e68bbd1d46be7a702",
    ),
    (
        [
            "distinguish", f"{LONG_U_A} zet1 sig2 sig1 {LONG_V_A}", f"{LONG_U_A} sig2 sig1 zet2 {LONG_V_A}",
            "--group", "vbA", "--t1",
        ],
        "7ba912bd582e02af7ece95efe4b6e02d8b56eb94063ab65bd89a9dc63c09aedc",
    ),
]


@pytest.mark.parametrize("args, digest", INVARIANT_SHA256, ids=[
    "invariant-vbB-18", "invariant-vbB-10", "invariant-vbA-10", "invariant-empty",
    "distinguish-unequal", "distinguish-equal", "distinguish-vbA", "distinguish-vbA-t1", "distinguish-vbB-t1",
    "distinguish-equal-36", "distinguish-unequal-34", "distinguish-vbA-t1-equal-35",
])
def test_invariant_output_bytes_unchanged(capsys, args, digest):
    code, out, _ = run(capsys, *args, "--n", "8", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the file ``braidcert check-relations --n 8 --format json --out F``
CHECK_RELATIONS_N8_SHA256 = {
    "vbB": "782bd1a07e4a6beded3bf23d6925f9a28e3b7824df40144aa8df62d98539f4d5",
    "vbA": "f4ec8bb15627e40d4af7dbc8f384924486ce2312628368c55e2cbb08d01f1083",
}


@pytest.mark.parametrize("group", ["vbB", "vbA"])
def test_check_relations_n8_output_bytes_unchanged(capsys, tmp_path, group):
    path = tmp_path / "relations.json"
    code, _, _ = run(capsys, "check-relations", "--n", "8", "--group", group, "--format", "json", "--out", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECK_RELATIONS_N8_SHA256[group]


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


def _whole_word_distinguish(word1, word2, group, n, t1, fmt):
    """``distinguish``'s stdout from the invariants of the two whole words."""
    ab = words.Alphabet.vbB(n) if group == "vbB" else words.Alphabet.vbA(n)
    lhs, rhs = (words.invariant(words.parse_word(w, ab)) for w in (word1, word2))
    if t1:
        lhs, rhs = lhs.specialize_t1(), rhs.specialize_t1()
    if lhs == rhs:
        verdict = {"status": "invariant-equal", "note": "inconclusive for group equality"}
        text = "invariant-equal (inconclusive for group equality)"
    else:
        g = fg.first_difference(lhs, rhs)
        images = [fg.format_word(lhs.image(g)), fg.format_word(rhs.image(g))]
        verdict = {"status": "unequal", "witness_generator": fg.format_gen(g), "witness_images": images}
        text = f"UNEQUAL (witness {fg.format_gen(g)}: {images[0]} vs {images[1]})"
    return (json.dumps(verdict, indent=1) if fmt == "json" else text) + "\n"


def _letters(group, n):
    if group == "vbB":
        return [f"{k}{i}{e}" for i in range(n) for k, e in (("s", ""), ("s", "^-1"), ("z", ""))]
    return [f"{k}{i}{e}" for i in range(1, n) for k, e in (("sig", ""), ("sig", "^-1"), ("zet", ""))]


def _core_pairs(group, n):
    """The defining relations, and the pairs ``distinguish --t1`` merges
    although the invariant separates them: for vbA the welded moves."""
    relations = [(str(rel.lhs), str(rel.rhs)) for rel in words.relator_table(group, n)]
    if group == "vbB":
        return relations, relations
    welded = [(f"zet{i} sig{i + 1} sig{i}", f"sig{i + 1} sig{i} zet{i + 1}") for i in range(1, n - 1)]
    return relations, welded


@st.composite
def distinguish_requests(draw):
    group = draw(st.sampled_from(["vbA", "vbB"]))
    n = draw(st.integers(3, 4))
    letters = st.lists(st.sampled_from(_letters(group, n)), max_size=3).map(" ".join)
    relations, welded = _core_pairs(group, n)
    pair = draw(st.one_of(st.sampled_from(relations), st.sampled_from(welded), st.tuples(letters, letters)))
    if draw(st.booleans()):
        pair = pair[::-1]
    context = st.lists(st.sampled_from(_letters(group, n)), max_size=12).map(" ".join)
    u, v = draw(context), draw(context)
    word1, word2 = (" ".join(p for p in (u, core, v) if p) for core in pair)
    return word1, word2, group, n, draw(st.booleans()), draw(st.sampled_from(["text", "json"]))


@given(distinguish_requests())
@example(("sig3 zet1 sig2 sig1 zet2", "sig3 sig2 sig1 zet2 zet2", "vbA", 4, True, "text"))
@settings(max_examples=120, deadline=None)
def test_distinguish_on_the_cores_prints_the_whole_words_verdict(request):
    word1, word2, group, n, t1, fmt = request
    argv = ["distinguish", word1, word2, "--group", group, "--n", str(n), "--format", fmt]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--t1"] * t1)
    assert (code, out.getvalue()) == (0, _whole_word_distinguish(*request))


def test_an_invariant_equal_pair_composes_only_its_core(capsys):
    # relB3 in 32 letters of context: the doubled core has 6 letters a side
    # (s0 doubles to one letter, s1 to two), and nothing else is folded
    original = fg.FreeAutomorphism.compose
    with mock.patch.object(fg.FreeAutomorphism, "compose", autospec=True, side_effect=original) as compose:
        code, out, _ = run(
            capsys, "distinguish", f"{LONG_U} s0 s1 s0 s1 {LONG_V}", f"{LONG_U} s1 s0 s1 s0 {LONG_V}", "--n", "8"
        )
    assert (code, out) == (0, "invariant-equal (inconclusive for group equality)\n")
    assert compose.call_count == 2 * 6


def test_an_unequal_pair_composes_its_context_once(capsys):
    # s3 z3 vs z3 s3 in 32 letters of context: u and v double to 30 letters
    # each (two index-0 letters apiece), each core to 4, and every letter is
    # composed once; folding both whole words too would make 136
    original = fg.FreeAutomorphism.compose
    with mock.patch.object(fg.FreeAutomorphism, "compose", autospec=True, side_effect=original) as compose:
        code, out, _ = run(capsys, "distinguish", f"{LONG_U} s3 z3 {LONG_V}", f"{LONG_U} z3 s3 {LONG_V}", "--n", "8")
    assert (code, out.startswith("UNEQUAL (witness ")) == (0, True)
    assert compose.call_count == 30 + 30 + 4 + 4


# the stderr of the parent of the core comparison, which parsed both words
# before folding either: a bad letter is reported where it stands
@pytest.mark.parametrize("word1, word2, err", [
    (
        "s0 s9 s0 s1 s0 s1", "s0 s9 s1 s0 s1 s0",
        "parse error: index 9 outside 0..7 at position 3: 's0 s9 s0 s1 s0 s1'\n",
    ),
    ("s0 s1 s0 s1 z3", "s1 s0 q1 s0 z3", "parse error: unknown letter 'q1' at position 6: 's1 s0 q1 s0 z3'\n"),
    ("s١", "s1", "parse error: unknown letter 's١' at position 0: 's١'\n"),
    (
        "s0 s1 z0 s3", "s0 s1 z0 s3^-2",
        "parse error: exponent -2 not supported at position 9: 's0 s1 z0 s3^-2'\n",
    ),
])
def test_distinguish_reports_a_bad_letter_in_the_context_or_the_core(capsys, word1, word2, err):
    assert run(capsys, "distinguish", word1, word2, "--n", "8") == (2, "", err)


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


@pytest.mark.parametrize(
    "argv, reason",
    [
        (
            ("s0 s1 s0 s1 s0 s1 s0 s1", "s1 s0 s1 s0 s1 s0 s1 s0", "--n", "2"),
            "not searched: the pair spans 9 degrees, above DEGREE_BOUND = 8",
        ),
        (("z0 s0 z1", "z0 z0 z1", "--n", "3"), "not homotopy equivalent"),
        (("s0", "s0^-1", "--n", "2", "--kind", "homotopy"), "not homotopy equivalent"),
    ],
)
def test_certify_pair_none_names_its_reason(capsys, argv, reason):
    assert run(capsys, "certify-pair", *argv) == (1, "", f"NONE: {reason}\n")


def test_certify_pair_kind_iso_is_a_usage_error(capsys):
    # the modes are auto and homotopy, and in both NONE names one of the
    # reasons above
    with pytest.raises(SystemExit) as exc:
        main(["certify-pair", "z1 s0 s0^-1", "z1", "--n", "2", "--kind", "iso"])
    assert exc.value.code == 2
    assert "invalid choice: 'iso'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ("z0 s0 s1 s0 s1 s0 s1 s0 s1 s0^-1 z1", "z0 z1", "--n", "2"),
            "error: word 'z0 s0 s1 s0 s1 s0 s1 s0 s1 s0^-1 z1' has 9 braid letters: its complex "
            "would have total rank 3^9, above the budget of 3^8\n",
        ),
        (("z7 s0", "z7 s0^-1", "--n", "3"), "parse error: index 7 outside 0..2 at position 0: 'z7 s0'\n"),
    ],
)
def test_certify_pair_errors_around_common_whiskers(capsys, argv, err):
    # the messages and exit codes certify-pair gave before it stripped
    # common virtual prefixes and suffixes
    assert run(capsys, "certify-pair", *argv) == (2, "", err)


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


@pytest.mark.parametrize("value", ["\u0663", "\uff13", "+3", " 3", "3_0", "-3", ""])
def test_n_takes_ascii_digits_only(capsys, value):
    # argparse's ``type=int`` read these (Arabic-Indic and fullwidth three
    # ran at n = 3); they are usage errors, like an out-of-range n
    with pytest.raises(SystemExit) as exc:
        main(["distinguish", "s0", "s1", "--n", value])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "--n: expected ASCII digits" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def _help_texts():
    """The help text of a freshly built parser and of each of its commands."""
    cli.build_parser.cache_clear()
    parser = cli.build_parser()
    cli.build_parser.cache_clear()
    (commands,) = parser._subparsers._group_actions
    return [parser.format_help()] + [p.format_help() for p in commands.choices.values()]


def test_help_text_is_what_the_stock_formatter_writes(monkeypatch):
    # the CLI's formatter finds the width without importing shutil; at any
    # width the help of every parser is argparse's own, byte for byte
    texts = {}
    for columns in ("60", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        texts[columns] = _help_texts()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_HelpFormatter", argparse.HelpFormatter)
            assert _help_texts() == texts[columns], columns
    assert texts["60"] != texts["120"]


@pytest.mark.parametrize("columns", [None, "60", "0", "-3", "wide"])
def test_terminal_columns_match_shutil(monkeypatch, columns):
    import shutil

    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    assert cli._terminal_columns() == shutil.get_terminal_size().columns


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


_TOO_DEEP = 100_000
# the interpreter's limit on the digits of an int read from text (none before 3.11, 0 = off)
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

# the certificate of ``z0 z0 ~ `` that ``certify-pair "z0 z0" "" --n 2`` writes
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
            "zero denominator at position 0: '1/0*X0'\n",
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
                "relation": "z0 z0 ~ ",
                "kind": "iso",
                "group": "vbB",
                "n": 2,
                "words": ["z0 z0", ""],
                "forward": [{"degree": 0, "matrix": [["(1 - sqrt2)*X0"]]}],
                "inverse": [{"degree": 0, "matrix": [["1"]]}],
            },
            "parse error: certificate 'z0 z0 ~ ', forward, degree 0, entry (0,0): "
            "unrecognised factor '1 - sqrt2' at position 1: '(1 - sqrt2)*X0'\n",
        ),
        (
            {
                "format": "braidcert.certificate.v1",
                "relation": "z0 z0 ~ ",
                "kind": "iso",
                "group": "vbB",
                "n": 2,
                "words": ["z0 z0", ""],
                "forward": [{"degree": 0, "matrix": [["X١"]]}],
                "inverse": [{"degree": 0, "matrix": [["1"]]}],
            },
            "parse error: certificate 'z0 z0 ~ ', forward, degree 0, entry (0,0): "
            "unrecognised factor 'X١' at position 0: 'X١'\n",
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
            "error: <file>: does not match certificate.schema.json: n: 2.0 is not of type 'integer'\n",
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
            "error: <file>: does not match report.schema.json: n: 3.0 is not of type 'integer'\n",
        ),
        (
            {**_Z0Z0_CERT, "forward": [{"degree": 0.0, "matrix": [["1"]]}]},
            "error: <file>: does not match certificate.schema.json: "
            "forward[0].degree: 0.0 is not of type 'integer'\n",
        ),
        # raw JSON text nested deeper than any Python's parser recursion limit
        ("[" * _TOO_DEEP + "]" * _TOO_DEEP, "error: <file>: JSON nested too deeply to read\n"),
        (
            json.dumps({**_Z0Z0_CERT, "forward": "DEEP"}).replace('"DEEP"', "[" * _TOO_DEEP + "]" * _TOO_DEEP),
            "error: <file>: JSON nested too deeply to read\n",
        ),
        # an integer over the interpreter's digit limit; with no limit, the schema refuses it
        (
            json.dumps({**_Z0Z0_CERT, "n": "BIG"}).replace('"BIG"', "1" + "0" * 5000),
            f"error: <file>: a JSON integer has 5001 digits, over this interpreter's limit of {_DIGIT_LIMIT}\n"
            if _DIGIT_LIMIT
            else "error: ",
        ),
        # an exponent a product could carry out of its packed field
        (
            {**_Z0Z0_CERT, "forward": [{"degree": 0, "matrix": [[f"X0^{MAX_EXPONENT + 1}"]]}]},
            "parse error: certificate 'z0 z0 ~ ', forward, degree 0, entry (0,0): "
            f"exponent of X0 over {MAX_EXPONENT} at position 0",
        ),
        # a file cut short, and a file that is not UTF-8 (a ``bytes`` payload is written as it is)
        (json.dumps(_Z0Z0_CERT)[:11], "error: <file>: Expecting value: line 1 column 12 (char 11)\n"),
        (
            b"\xff" + json.dumps(_Z0Z0_CERT).encode(),
            "error: <file>: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n",
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
        "minus-between-terms-in-parentheses",
        "non-ascii-digit",
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
        "integer-over-the-digit-limit",
        "exponent-over-the-packed-field",
        "truncated-json",
        "not-utf-8",
    ],
)
def test_verify_certificate_malformed_file_is_usage_error(capsys, tmp_path, payload, message):
    # a ``str`` payload is the file's text and ``bytes`` its content; ``<file>`` in ``message`` is its path
    path = tmp_path / "bad.json"
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    code, out, err = run(capsys, "verify-certificate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(message.replace("<file>", str(path))) and err.count("\n") == 1


def test_verify_certificate_null_entry_fails(capsys, tmp_path, certificates_n2):
    # a full n=2 report whose relWB0[1] entry failed: every other entry is
    # [ok], that one has no certificate, and the report covers its relations
    report = json.loads(json.dumps(certificates_n2))
    report["all_certified"] = False
    entry = next(r for r in report["results"] if r["relation"] == "relWB0[1]")
    entry.update(status="failed", certificate=None)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    code, out, _ = run(capsys, "verify-certificate", str(path))
    assert code == 1
    assert out.splitlines() == [
        f"[FAIL] {r['relation']} ({r['kind']}): no certificate" if r is entry else f"[ok] {r['relation']} ({r['kind']})"
        for r in report["results"]
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
        f"error: {path}: results[24].certificate does not match certificate.schema.json: "
        "forward[2].matrix[3][1]: 5 is not of type 'string'\n"
    )


def _swap_in_reid2a(report, by_label):
    # relB3's entry carries reid2a[0]'s certificate, relabelled: it verifies
    swapped = json.loads(json.dumps(by_label["reid2a[0]"]))
    swapped["relation"] = swapped["certificate"]["relation"] = "relB3"
    report["results"][report["results"].index(by_label["relB3"])] = swapped


@pytest.mark.parametrize(
    "tamper, oks, fails",
    [
        (
            lambda report, by_label: report["results"].remove(by_label["relB3"]),
            24,
            ["[FAIL] relB3: missing"],
        ),
        (
            _swap_in_reid2a,
            25,
            [
                "[FAIL] relB3: the certificate's words ['s0 s0^-1', ''] are not "
                "the relation's ['s0 s1 s0 s1', 's1 s0 s1 s0']"
            ],
        ),
        (
            lambda report, by_label: report["results"].append(json.loads(json.dumps(by_label["relB3"]))),
            26,
            ["[FAIL] relB3: occurs more than once"],
        ),
        (
            lambda report, by_label: by_label["relB3"]["certificate"].update(relation="relB4"),
            25,
            [
                "[FAIL] relB4: not a relation of a report at n=3",
                "[FAIL] relB4: the entry's relation is 'relB3', not 'relB4'",
                "[FAIL] relB3: missing",
            ],
        ),
        (
            lambda report, by_label: by_label["relB2[1]"]["certificate"].update(n=4),
            25,
            ["[FAIL] relB2[1]: the certificate has n=4, the report n=3"],
        ),
        (
            lambda report, by_label: report.update(all_certified=False),
            25,
            ["[FAIL] all_certified: the report says False, the check finds True"],
        ),
        # an entry says what its certificate says
        (
            lambda report, by_label: report["results"][0].update(kind="homotopy"),
            25,
            ["[FAIL] relB1[0,2]: the entry's kind is 'homotopy', not 'iso'"],
        ),
        (
            lambda report, by_label: report["results"][1].update(status="failed"),
            25,
            ["[FAIL] relB2[1]: the entry's status is 'failed', not 'certified'"],
        ),
        (
            lambda report, by_label: report["results"][2].update(relation="bogus"),
            25,
            ["[FAIL] relB3: the entry's relation is 'bogus', not 'relB3'"],
        ),
    ],
    ids=["relB3-deleted", "relB3-swapped-for-reid2a", "relB3-twice", "relB3-relabelled", "n-differs", "verdict-differs"]
    + ["entry-kind-differs", "entry-status-failed", "entry-relation-differs"],
)
def test_a_report_must_cover_its_relations(capsys, tmp_path, tamper, oks, fails):
    # every certificate left verifies, so only the coverage check can fail
    report = json.loads(REPORT_N3.read_text())
    tamper(report, {r["relation"]: r for r in report["results"]})
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    code, out, err = run(capsys, "verify-certificate", str(path))
    lines = out.splitlines()
    assert (code, err) == (1, "")
    assert lines[:oks] == [line for line in lines if line.startswith("[ok] ")]
    assert lines[oks:] == fails


def test_a_report_without_n_is_a_usage_error(capsys, tmp_path):
    report = json.loads(REPORT_N3.read_text())
    del report["n"]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    code, out, err = run(capsys, "verify-certificate", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: does not match report.schema.json: 'n' is a required property\n"


@pytest.mark.parametrize(
    "word1, word2, kind, additions",
    [
        ("s0 z0", "z0 s0", "iso", [("forward", 5)]),
        ("s0 s0^-1", "", "homotopy", [("homotopy_source", 7), ("backward", -5)]),
    ],
    ids=["iso-forward-5", "homotopy-source-7-backward--5"],
)
def test_an_empty_matrix_outside_both_complexes_keeps_the_verdict(capsys, tmp_path, word1, word2, kind, additions):
    # both complexes are zero at these degrees, so each 0x0 matrix is a zero
    # map with no entry and no product: the certificate still verifies
    code, out, _ = run(capsys, "certify-pair", word1, word2, "--n", "2", "--format", "json")
    cert = json.loads(out)
    assert (code, cert["kind"]) == (0, kind)
    for field, degree in additions:
        cert[field].append({"degree": degree, "matrix": []})
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert run(capsys, "verify-certificate", str(path)) == (0, f"[ok] {word1} ~ {word2} ({kind})\n", "")


@pytest.mark.parametrize("depth", [2, 500])
def test_nested_parentheses_in_an_entry_are_a_parse_error(capsys, tmp_path, depth):
    # 500 levels once ended in a RecursionError traceback and exit 1
    cert = json.loads(json.dumps(_Z0Z0_CERT))
    cert["forward"][0]["matrix"][0][0] = "(" * depth + "1" + ")" * depth
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, out, err = run(capsys, "verify-certificate", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(
        "parse error: certificate 'z0 z0 ~ ', forward, degree 0, entry (0,0): "
        "parenthesis inside a number in parentheses at position 1: '(("
    )
    assert err.count("\n") == 1


def test_over_long_number_in_a_report_entry_is_parse_error(capsys, tmp_path):
    report = json.loads(REPORT_N3.read_text())
    report["results"][0]["certificate"]["forward"][2]["matrix"][1][2] = "1" * 5000 + "*X0"
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    code, out, err = run(capsys, "verify-certificate", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(
        "parse error: certificate 'relB1[0,2]', forward, degree 0, entry (1,2): "
        "number too long (5000 digits) at position 0: '111"
    )
    assert err.count("\n") == 1


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
    bad = tmp_path / "bad.json"
    for text, where, path in cases:
        bad.write_text(text)
        code, out, err = run(capsys, "verify-certificate", str(bad))
        assert (code, out) == (2, "")
        # the line names the file, and the rest stays under 200 characters
        assert err.count("\n") == 1 and len(err) - len(f"{bad}: ") < 200, err
        assert err.startswith(f"error: {bad}: {where} certificate.schema.json: {path}"), err


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
