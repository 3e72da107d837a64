"""Braid-word alphabets, parsing, relator tables and the doubling map.

Two alphabets are supported:

* ``vbA`` -- virtual braid words over ``sig_i`` / ``zet_i`` with a contiguous
  index range (the doubled groups use the shifted range ``-n+1 .. n-1``);
* ``vbB`` -- type-B virtual braid words over ``s_i`` / ``z_i`` with
  ``0 <= i <= n-1``.

``z``/``zet`` letters are involutions and carry no exponent; ``z0^-1`` parses
but is normalised to ``z0``.

``relator_table`` builds both groups' defining relations from four shape
helpers shared by the two alphabets: far commutation, braid (mixed when the
letter kinds differ), involution, and the relations on indices 0 and 1 whose
right side is the left side reversed.

The invariant of a word is the composite of two group homomorphisms, the
doubling map ``VB_B(n) -> VB(2n)`` (letterwise, ``embed_j``) and the
free-group representation ``VB(2n) -> Aut(F)`` (``freegroup``), so the
invariant of ``u w v`` is ``U o C o V`` for the invariants ``U``, ``C``,
``V`` of ``u``, ``w``, ``v``.  Automorphisms are invertible, so ``u w v``
and ``u w' v`` have equal invariants exactly when ``w`` and ``w'`` do, and
``invariant_difference`` decides on the cores left between the words'
longest common prefix and suffix.  It reads the witness of an unequal pair
from the same pieces: ``U o C o V`` and ``U o C' o V`` differ at a
generator ``g`` exactly when ``C(V(g))`` and ``C'(V(g))`` do, and then
their images are ``U`` applied to those, so no whole word is folded.  The
same holds at ``t = 1``: every letter automorphism fixes ``t``, so each
preserves the normal closure of ``t`` and induces an automorphism of the
quotient in which ``t = 1``; ``specialize_t1`` computes that induced map,
and inducing respects composition (``freegroup``), so the specialised
invariant is again a homomorphism into a group of automorphisms.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from functools import lru_cache

from . import freegroup
from .errors import ParseError, parse_int

Letter = tuple  # (kind, index, exp); exp is always 1 for involution letters

_KINDS_A = ("sig", "zet")
_KINDS_B = ("s", "z")
_INVOLUTIONS = ("zet", "z")
_DOUBLED = dict(zip(_KINDS_B, _KINDS_A))  # the letter kind each vbB kind doubles to

_set = object.__setattr__


class _Record:
    """Immutable fields, the names in ``__slots__``, each set once in ``__init__``.

    Subclasses compare and hash their fields in their own ``__eq__`` and
    ``__hash__``; the repr is ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Alphabet(_Record):
    """Letter kinds plus the allowed index range."""

    __slots__ = ("tag", "lo", "hi")  # tag is "vbA" or "vbB"

    def __init__(self, tag: str, lo: int, hi: int) -> None:
        _set(self, "tag", tag)
        _set(self, "lo", lo)
        _set(self, "hi", hi)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Alphabet:
            return NotImplemented
        return self.tag == other.tag and self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.tag, self.lo, self.hi))

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


class BraidWord(_Record):
    """A word over ``alphabet``; ``make_word`` and ``parse_word`` check its letters."""

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet: Alphabet, letters: tuple) -> None:
        _set(self, "alphabet", alphabet)
        _set(self, "letters", letters)

    def __eq__(self, other) -> bool:
        if other.__class__ is not BraidWord:
            return NotImplemented
        return self.alphabet == other.alphabet and self.letters == other.letters

    def __hash__(self) -> int:
        return hash((self.alphabet, self.letters))

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.alphabet != other.alphabet:
            raise ValueError("words over different alphabets")
        return BraidWord(self.alphabet, self.letters + other.letters)

    def __str__(self) -> str:
        return format_word(self)


def make_word(alphabet: Alphabet, letters: Iterable) -> BraidWord:
    return BraidWord(alphabet, tuple(map(alphabet.check_letter, letters)))


_TOKEN_RE = re.compile(r"(sig|zet|s|z)(-?[0-9]+)(?:\^(-?[0-9]+))?$")


@lru_cache(maxsize=None)
def _token_table(alphabet: Alphabet) -> dict:
    """Every letter of ``alphabet`` under the one spelling ``format_word`` writes.

    Shared by every caller, so it is read-only; an alphabet has finitely
    many letters, so the table is finite.
    """
    table = {}
    for kind in alphabet.kinds:
        for index in range(alphabet.lo, alphabet.hi + 1):
            table[f"{kind}{index}"] = (kind, index, 1)
            if kind not in _INVOLUTIONS:
                table[f"{kind}{index}^-1"] = (kind, index, -1)
    return table


def parse_word(text: str, alphabet: Alphabet) -> BraidWord:
    """The word ``text`` spells over ``alphabet``: whitespace-separated letters.

    A word spelled as ``format_word`` writes it is looked up token by token
    in the alphabet's ``_token_table``.  Any other token (``s01``, ``s3^1``,
    ``z3^-1``, a bad letter) sends the whole text through the positional
    parser, which accepts the other spellings of a letter, normalises
    ``z^-1`` to ``z`` and raises a ``ParseError`` at the offending token.
    """
    try:
        return BraidWord(alphabet, tuple(map(_token_table(alphabet).__getitem__, text.split())))
    except KeyError:
        return _parse_positional(text, alphabet)


def _parse_positional(text: str, alphabet: Alphabet) -> BraidWord:
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

    A letter of index 0 stays one letter (``s_0 -> sig_0``, ``z_0 -> zet_0``),
    a letter of index ``i > 0`` becomes two (``s_i -> sig_{-i} sig_i``,
    ``z_i -> zet_{-i} zet_i``), and an inverse is the image reversed
    (``s_i^-1 -> sig_i^-1 sig_{-i}^-1``).
    """
    if word.alphabet.tag != "vbB":
        raise ValueError("embed_j expects a vbB word")
    letters = []
    for kind, index, exp in word.letters:
        image = [(_DOUBLED[kind], i, exp) for i in ((0,) if index == 0 else (-index, index))]
        letters.extend(image if exp == 1 else reversed(image))
    return BraidWord(Alphabet.vbA_shifted(word.alphabet.hi + 1), tuple(letters))


# -- relator tables -------------------------------------------------------------


class RelatorPair(_Record):
    __slots__ = ("label", "lhs", "rhs")

    def __init__(self, label: str, lhs: BraidWord, rhs: BraidWord) -> None:
        _set(self, "label", label)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)

    def __eq__(self, other) -> bool:
        if other.__class__ is not RelatorPair:
            return NotImplemented
        return self.label == other.label and self.lhs == other.lhs and self.rhs == other.rhs

    def __hash__(self) -> int:
        return hash((self.label, self.lhs, self.rhs))


def _pair(ab: Alphabet, label: str, lhs, rhs) -> RelatorPair:
    """The relation ``lhs = rhs``; each side lists ``(kind, index)`` letters."""
    return RelatorPair(
        label,
        make_word(ab, [(kind, i, 1) for kind, i in lhs]),
        make_word(ab, [(kind, i, 1) for kind, i in rhs]),
    )


def _far(ab: Alphabet, name: str, x: str, y: str) -> list:
    """``x_i y_j = y_j x_i`` for ``|i - j| > 1``: both orders of i and j when
    ``x != y``, else only ``i < j`` (the other order is the same relation)."""
    idx = range(ab.lo, ab.hi + 1)
    return [
        _pair(ab, f"{name}[{i},{j}]", [(x, i), (y, j)], [(y, j), (x, i)])
        for i in idx
        for j in idx
        if j > i + 1 or (x != y and i > j + 1)
    ]


def _braid(ab: Alphabet, name: str, x: str, y: str) -> list:
    """``x_i y_{i+1} y_i = y_{i+1} y_i x_{i+1}`` for ``1 <= i < hi``: the
    braid relation when ``x == y``, the mixed one otherwise."""
    return [
        _pair(ab, f"{name}[{i}]", [(x, i), (y, i + 1), (y, i)], [(y, i + 1), (y, i), (x, i + 1)])
        for i in range(1, ab.hi)
    ]


def _involution(ab: Alphabet, name: str, y: str) -> list:
    """``y_i y_i = 1`` for every index."""
    return [_pair(ab, f"{name}[{i}]", [(y, i), (y, i)], []) for i in range(ab.lo, ab.hi + 1)]


def _reversal(ab: Alphabet, name: str, text: str) -> list:
    """The relation whose right side is the left side ``text`` read backwards."""
    lhs = parse_word(text, ab)
    return [RelatorPair(name, lhs, BraidWord(ab, lhs.letters[::-1]))]


def relator_table(group: str, n: int) -> list:
    """The instantiated defining relations of the given group, in a fixed order."""
    if n < 2:
        raise ValueError("need n >= 2")
    if group == "vbA":
        ab = Alphabet.vbA(n)
        return (
            _far(ab, "vb1", "sig", "sig")
            + _braid(ab, "vb2", "sig", "sig")
            + _far(ab, "vb3", "zet", "zet")
            + _braid(ab, "vb4", "zet", "zet")
            + _involution(ab, "vb5", "zet")
            + _far(ab, "vb6", "sig", "zet")
            + _braid(ab, "vb7", "sig", "zet")
        )
    if group == "vbB":
        ab = Alphabet.vbB(n)
        return (
            _far(ab, "relB1", "s", "s")
            + _braid(ab, "relB2", "s", "s")
            + _reversal(ab, "relB3", "s0 s1 s0 s1")
            + _far(ab, "relWB1", "z", "z")
            + _braid(ab, "relWB2", "z", "z")
            + _reversal(ab, "relWB3", "z0 z1 z0 z1")
            + _involution(ab, "relWB0", "z")
            + _far(ab, "relmixB1", "s", "z")
            + _braid(ab, "relmixB2", "s", "z")
            + _reversal(ab, "relmixB3", "s0 z1 z0 z1")
            + _reversal(ab, "relmixB4", "z0 s1 z0 z1")
            + _reversal(ab, "relmixB5", "s0 z1 s0 z1")
        )
    raise ValueError(f"unknown group {group!r} (expected vbA or vbB)")


def certified_relations(n: int) -> list:
    """The pairs a relation-certificates report at ``n`` certifies, in report order.

    The vbB relator table, both Reidemeister-II contractions per strand index
    and, for n >= 3, the two pairs whose complexes are isomorphic even though
    the words differ in the group.
    """
    ab = Alphabet.vbB(n)
    empty = parse_word("", ab)
    pairs = relator_table("vbB", n)
    for i in range(n):
        pairs.append(RelatorPair(f"reid2a[{i}]", parse_word(f"s{i} s{i}^-1", ab), empty))
        pairs.append(RelatorPair(f"reid2b[{i}]", parse_word(f"s{i}^-1 s{i}", ab), empty))
    if n >= 3:
        for i in range(n):
            pairs.append(RelatorPair(f"remark_sz[{i}]", parse_word(f"s{i} z{i}", ab), parse_word(f"z{i} s{i}", ab)))
        pairs.append(RelatorPair("remark_zszs", parse_word("z0 s1 z0 s1", ab), parse_word("s1 z0 s1 z0", ab)))
    return pairs


# -- the invariant of a word -----------------------------------------------------


def split_common(lhs: tuple, rhs: tuple, splittable=lambda letter: True) -> tuple:
    """``(u, core_lhs, core_rhs, v)`` with ``lhs = u core_lhs v`` and ``rhs = u core_rhs v``.

    ``u`` and ``v`` are the longest common prefix and then the longest common
    suffix of the two letter tuples whose letters all pass ``splittable``.
    """
    shorter = min(len(lhs), len(rhs))
    i = 0
    while i < shorter and lhs[i] == rhs[i] and splittable(lhs[i]):
        i += 1
    j = 0
    while j < shorter - i and lhs[-1 - j] == rhs[-1 - j] and splittable(lhs[-1 - j]):
        j += 1
    return lhs[:i], lhs[i : len(lhs) - j], rhs[i : len(rhs) - j], lhs[len(lhs) - j :]


def invariant(word: BraidWord) -> freegroup.FreeAutomorphism:
    """Invariant automorphism of a word; vbB words go through the doubling map."""
    if word.alphabet.tag == "vbB":
        word = embed_j(word)
    ab = word.alphabet
    return freegroup.manturov_image(word.letters, ab.lo, ab.hi)


def _compared(word: BraidWord, t1: bool) -> freegroup.FreeAutomorphism:
    phi = invariant(word)
    return phi.specialize_t1() if t1 else phi


def invariant_difference(lhs: BraidWord, rhs: BraidWord, t1: bool = False):
    """None when the two words have equal invariants (specialised at ``t = 1``
    under ``t1``), else ``(g, lhs image of g, rhs image of g)`` at the first
    generator ``g`` where they differ.

    Both the verdict and the witness are read from the common prefix ``u``,
    the common suffix ``v`` and the two cores between them, each folded once
    (module doc); the whole words are never folded.
    """
    u, core_lhs, core_rhs, v = split_common(lhs.letters, rhs.letters)
    core1 = _compared(BraidWord(lhs.alphabet, core_lhs), t1)
    core2 = _compared(BraidWord(rhs.alphabet, core_rhs), t1)
    if core1 == core2:
        return None
    prefix, suffix = _compared(BraidWord(lhs.alphabet, u), t1), _compared(BraidWord(lhs.alphabet, v), t1)
    for g in sorted(suffix.gens, key=freegroup.gen_sort_key):
        x = suffix.image(g)
        a, b = core1.apply(x), core2.apply(x)
        if a != b:
            return g, prefix.apply(a), prefix.apply(b)
    raise AssertionError("unreachable: the suffix's invariant is onto, so unequal cores differ on its images")


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
