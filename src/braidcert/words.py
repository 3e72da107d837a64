"""Braid-word alphabets, parsing, relator tables and the doubling map.

Two alphabets are supported:

* ``vbA`` -- virtual braid words over ``sig_i`` / ``zet_i`` with a contiguous
  index range (the doubled groups use the shifted range ``-n+1 .. n-1``);
* ``vbB`` -- type-B virtual braid words over ``s_i`` / ``z_i`` with
  ``0 <= i <= n-1``.

``z``/``zet`` letters are involutions and carry no exponent; ``z0^-1`` parses
but is normalised to ``z0``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from . import freegroup
from .errors import ParseError, parse_int

Letter = tuple  # (kind, index, exp); exp is always 1 for involution letters

_KINDS_A = ("sig", "zet")
_KINDS_B = ("s", "z")
_INVOLUTIONS = ("zet", "z")


@dataclass(frozen=True)
class Alphabet:
    """Letter kinds plus the allowed index range."""

    tag: str  # "vbA" or "vbB"
    lo: int
    hi: int

    @classmethod
    def vbA(cls, n: int) -> "Alphabet":
        """Plain virtual braid alphabet on n strands (indices 1..n-1)."""
        if n < 2:
            raise ValueError("need at least two strands")
        return cls("vbA", 1, n - 1)

    @classmethod
    def vbA_shifted(cls, n: int) -> "Alphabet":
        """Doubled alphabet on 2n strands with indices -n+1..n-1."""
        if n < 1:
            raise ValueError("need n >= 1")
        return cls("vbA", -n + 1, n - 1)

    @classmethod
    def vbB(cls, n: int) -> "Alphabet":
        if n < 2:
            raise ValueError("need at least two generators")
        return cls("vbB", 0, n - 1)

    @property
    def kinds(self):
        return _KINDS_A if self.tag == "vbA" else _KINDS_B

    def check_letter(self, letter: Letter) -> Letter:
        kind, index, exp = letter
        if kind not in self.kinds:
            raise ValueError(f"letter kind {kind!r} not in alphabet {self.tag}")
        if not self.lo <= index <= self.hi:
            raise ValueError(f"index {index} outside {self.lo}..{self.hi}")
        if kind in _INVOLUTIONS and exp != 1:
            raise ValueError(f"involution letter {kind}{index} cannot carry exponent {exp}")
        if exp not in (1, -1):
            raise ValueError(f"exponent {exp} not supported")
        return letter


@dataclass(frozen=True)
class BraidWord:
    """A word over ``alphabet``; ``make_word`` and ``parse_word`` check its letters."""

    alphabet: Alphabet
    letters: tuple

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.alphabet != other.alphabet:
            raise ValueError("words over different alphabets")
        return BraidWord(self.alphabet, self.letters + other.letters)

    def __str__(self) -> str:
        return format_word(self)


def make_word(alphabet: Alphabet, letters: Iterable) -> BraidWord:
    return BraidWord(alphabet, tuple(map(alphabet.check_letter, letters)))


_TOKEN_RE = re.compile(r"(sig|zet|s|z)(-?\d+)(?:\^(-?\d+))?$")


def parse_word(text: str, alphabet: Alphabet) -> BraidWord:
    letters = []
    pos = 0
    for token in text.split():
        start = text.index(token, pos)
        pos = start + len(token)
        m = _TOKEN_RE.match(token)
        if m is None:
            raise ParseError(f"unknown letter {token!r}", text, start)
        kind, index, exp = m.groups()
        index = parse_int(index, text, start)
        exp = 1 if exp is None else parse_int(exp, text, start)
        if kind in _INVOLUTIONS and exp == -1:
            exp = 1  # z^-1 == z
        try:
            letters.append(alphabet.check_letter((kind, index, exp)))
        except ValueError as exc:
            raise ParseError(str(exc), text, start) from None
    return BraidWord(alphabet, tuple(letters))


def format_word(word: BraidWord) -> str:
    parts = []
    for kind, index, exp in word.letters:
        parts.append(f"{kind}{index}" + ("^-1" if exp == -1 else ""))
    return " ".join(parts)


def embed_j(word: BraidWord) -> BraidWord:
    """Letterwise doubling of a type-B word into the shifted vbA alphabet.

    ``s_0 -> sig_0``, ``z_0 -> zet_0``, ``s_i -> sig_{-i} sig_i``,
    ``s_i^-1 -> sig_i^-1 sig_{-i}^-1`` and ``z_i -> zet_{-i} zet_i``.
    """
    if word.alphabet.tag != "vbB":
        raise ValueError("embed_j expects a vbB word")
    n = word.alphabet.hi + 1
    target = Alphabet.vbA_shifted(n)
    letters = []
    for kind, index, exp in word.letters:
        if kind == "s":
            if index == 0:
                letters.append(("sig", 0, exp))
            elif exp == 1:
                letters.append(("sig", -index, 1))
                letters.append(("sig", index, 1))
            else:
                letters.append(("sig", index, -1))
                letters.append(("sig", -index, -1))
        else:
            if index == 0:
                letters.append(("zet", 0, 1))
            else:
                letters.append(("zet", -index, 1))
                letters.append(("zet", index, 1))
    return BraidWord(target, tuple(letters))


# -- relator tables -------------------------------------------------------------


@dataclass(frozen=True)
class RelatorPair:
    label: str
    lhs: BraidWord
    rhs: BraidWord


def _pair(alphabet, label, lhs, rhs) -> RelatorPair:
    return RelatorPair(label, make_word(alphabet, lhs), make_word(alphabet, rhs))


def _sig(i, e=1):
    return ("sig", i, e)


def _zet(i):
    return ("zet", i, 1)


def _s(i, e=1):
    return ("s", i, e)


def _z(i):
    return ("z", i, 1)


def relator_table(group: str, n: int):
    """The instantiated defining relations of the given group, in a fixed order."""
    if n < 2:
        raise ValueError("need n >= 2")
    if group == "vbA":
        return _vba_relators(n)
    if group == "bB":
        return _bb_relators(n)
    if group == "vbB":
        return _bb_relators(n) + _vbb_extra_relators(n)
    raise ValueError(f"unknown group {group!r} (expected vbA, bB or vbB)")


def _vba_relators(n: int):
    ab = Alphabet.vbA(n)
    rels = []
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            rels.append(_pair(ab, f"vb1[{i},{j}]", [_sig(i), _sig(j)], [_sig(j), _sig(i)]))
    for i in range(1, n - 1):
        rels.append(
            _pair(
                ab,
                f"vb2[{i}]",
                [_sig(i), _sig(i + 1), _sig(i)],
                [_sig(i + 1), _sig(i), _sig(i + 1)],
            )
        )
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            rels.append(_pair(ab, f"vb3[{i},{j}]", [_zet(i), _zet(j)], [_zet(j), _zet(i)]))
    for i in range(1, n - 1):
        rels.append(
            _pair(
                ab,
                f"vb4[{i}]",
                [_zet(i), _zet(i + 1), _zet(i)],
                [_zet(i + 1), _zet(i), _zet(i + 1)],
            )
        )
    for i in range(1, n):
        rels.append(_pair(ab, f"vb5[{i}]", [_zet(i), _zet(i)], []))
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) > 1:
                rels.append(_pair(ab, f"vb6[{i},{j}]", [_sig(i), _zet(j)], [_zet(j), _sig(i)]))
    for i in range(1, n - 1):
        rels.append(
            _pair(
                ab,
                f"vb7[{i}]",
                [_sig(i), _zet(i + 1), _zet(i)],
                [_zet(i + 1), _zet(i), _sig(i + 1)],
            )
        )
    return rels


def _bb_relators(n: int):
    ab = Alphabet.vbB(n)
    rels = []
    for i in range(n):
        for j in range(i + 2, n):
            rels.append(_pair(ab, f"relB1[{i},{j}]", [_s(i), _s(j)], [_s(j), _s(i)]))
    for i in range(1, n - 1):
        rels.append(
            _pair(
                ab,
                f"relB2[{i}]",
                [_s(i), _s(i + 1), _s(i)],
                [_s(i + 1), _s(i), _s(i + 1)],
            )
        )
    rels.append(
        _pair(ab, "relB3", [_s(0), _s(1), _s(0), _s(1)], [_s(1), _s(0), _s(1), _s(0)])
    )
    return rels


def _vbb_extra_relators(n: int):
    ab = Alphabet.vbB(n)
    rels = []
    for i in range(n):
        for j in range(i + 2, n):
            rels.append(_pair(ab, f"relWB1[{i},{j}]", [_z(i), _z(j)], [_z(j), _z(i)]))
    for i in range(1, n - 1):
        rels.append(
            _pair(
                ab,
                f"relWB2[{i}]",
                [_z(i), _z(i + 1), _z(i)],
                [_z(i + 1), _z(i), _z(i + 1)],
            )
        )
    rels.append(
        _pair(ab, "relWB3", [_z(0), _z(1), _z(0), _z(1)], [_z(1), _z(0), _z(1), _z(0)])
    )
    for i in range(n):
        rels.append(_pair(ab, f"relWB0[{i}]", [_z(i), _z(i)], []))
    for i in range(n):
        for j in range(n):
            if abs(i - j) > 1:
                rels.append(_pair(ab, f"relmixB1[{i},{j}]", [_s(i), _z(j)], [_z(j), _s(i)]))
    for i in range(1, n - 1):
        rels.append(
            _pair(
                ab,
                f"relmixB2[{i}]",
                [_s(i), _z(i + 1), _z(i)],
                [_z(i + 1), _z(i), _s(i + 1)],
            )
        )
    rels.append(
        _pair(ab, "relmixB3", [_s(0), _z(1), _z(0), _z(1)], [_z(1), _z(0), _z(1), _s(0)])
    )
    rels.append(
        _pair(ab, "relmixB4", [_z(0), _s(1), _z(0), _z(1)], [_z(1), _z(0), _s(1), _z(0)])
    )
    rels.append(
        _pair(ab, "relmixB5", [_s(0), _z(1), _s(0), _z(1)], [_z(1), _s(0), _z(1), _s(0)])
    )
    return rels


# -- the invariant of a word -----------------------------------------------------


def invariant(word: BraidWord) -> freegroup.FreeAutomorphism:
    """Invariant automorphism of a word; vbB words go through the doubling map."""
    if word.alphabet.tag == "vbB":
        word = embed_j(word)
    ab = word.alphabet
    return freegroup.manturov_image(word.letters, ab.lo, ab.hi)


# the format tag of every report, here and in ``homotopy``
REPORT_FORMAT = "braidcert.report.v1"


def check_relators_via_invariant(group: str, n: int) -> dict:
    """Check every defining relator under the invariant.

    Equality of invariants is a necessary condition for a relation to hold
    (the invariant is not known to be injective), so passing means
    "consistent", not "proved equal"; failing proves inequality.
    """
    results = []
    all_equal = True
    for rel in relator_table(group, n):
        lhs, rhs = invariant(rel.lhs), invariant(rel.rhs)
        if lhs == rhs:
            results.append(
                {
                    "relator_label": rel.label,
                    "status": "pass",
                    "witness_generator": None,
                    "witness_image": None,
                }
            )
        else:
            all_equal = False
            g = freegroup.first_difference(lhs, rhs)
            results.append(
                {
                    "relator_label": rel.label,
                    "status": "unequal",
                    "witness_generator": freegroup.format_gen(g),
                    "witness_image": freegroup.format_word(lhs.image(g)),
                }
            )
    return {
        "format": REPORT_FORMAT,
        "kind": "invariant-relator-check",
        "group": group,
        "n": n,
        "note": "equality under the invariant is a necessary condition only",
        "all_pass": all_equal,
        "results": results,
    }
