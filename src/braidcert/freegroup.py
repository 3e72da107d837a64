"""Reduced words in free groups and their automorphisms.

The free group carries generators ``a_j`` indexed by integers (negative
indices appear for the doubled braid groups) plus one extra stable generator
``t``.  A letter is ``(gen, exp)`` with ``exp`` +1 or -1 and ``gen`` either an
int (meaning ``a_gen``) or the string ``"t"``.

An automorphism stores only the generators it moves, each image freely
reduced once, where it is made: by ``apply``, the letter tables or
``specialize_t1``.  ``apply`` (and so ``compose``) joins reduced pieces, the
stored images, their inverses and single letters, cancelling only at each
seam: the output's last letters against the piece's first letters while they
are inverse, then it appends the rest of the piece.  That is exact: a
reduced word has no cancelling pair inside it, so the only pairs the join of
two reduced words can cancel meet at the seam, and free reduction has one
result whatever order its cancellations take (``reduce_word`` of the plain
concatenation is the reference in the tests).

The invariant of a virtual braid word is the composite of the letter
automorphisms with the rightmost letter applied first, i.e.
``image(uv) = image(u) o image(v)``, computed by ``manturov_image`` as the
fold of ``compose`` over the letters; that composition order is the one that
matches the known images of virtual braid words and makes the map a plain
group homomorphism into the automorphism group.

Every letter automorphism fixes ``t``, so it maps the normal closure of
``t`` onto itself and induces an automorphism of the free group on the
``a_j`` in which ``t = 1``: ``specialize_t1`` erases ``t`` from each image.
An automorphism ``phi`` that fixes ``t`` satisfies ``q(phi(x)) =
phi_1(q(x))`` for the quotient map ``q``, so for two of them ``(phi o
psi)_1 = phi_1 o psi_1``: specialising is multiplicative on the invariants
of words, and a context common to two words cancels after it as before.
"""

from __future__ import annotations

from functools import lru_cache
from collections.abc import Iterable, Sequence

T = "t"
Letter = tuple  # (gen, exp)
FreeWord = tuple  # tuple of letters


def reduce_word(letters: Iterable[Letter]) -> FreeWord:
    """Freely reduce: cancel adjacent (g, e)(g, -e) pairs until stable."""
    stack: list = []
    for gen, exp in letters:
        if stack and stack[-1][0] == gen and stack[-1][1] == -exp:
            stack.pop()
        else:
            stack.append((gen, exp))
    return tuple(stack)


class _Inverses(dict):
    """Letter -> its inverse letter, each made on first use."""

    def __missing__(self, letter):
        gen, exp = letter
        inverse = self[letter] = (gen, -exp)
        return inverse


_INVERSE = _Inverses()


def invert_word(word: Sequence[Letter]) -> FreeWord:
    return tuple(map(_INVERSE.__getitem__, reversed(word)))


def gen_sort_key(gen):
    """Generator order: a-indices ascending, then t."""
    return (1, 0) if gen == T else (0, gen)


class FreeAutomorphism:
    """An endomorphism of the free group on ``gens``, stored sparsely.

    ``images`` holds the reduced image of each moved generator; the others
    are fixed.  The constructor stores images as given (their maker reduced
    them) and drops any equal to its generator, so equality is on ``images``.
    """

    __slots__ = ("gens", "images")

    def __init__(self, gens, images: dict) -> None:
        self.gens = tuple(gens)
        unknown = images.keys() - set(self.gens)
        if unknown:
            raise ValueError(f"images given for unknown generators {sorted(unknown, key=gen_sort_key)}")
        self.images = {g: img for g, img in images.items() if img != ((g, 1),)}

    @classmethod
    def identity(cls, gens) -> "FreeAutomorphism":
        return cls(gens, {})

    def image(self, gen) -> FreeWord:
        if gen not in self.gens:
            raise KeyError(f"unknown generator {gen!r}")
        return self.images.get(gen, ((gen, 1),))

    def apply(self, word: Iterable[Letter]) -> FreeWord:
        """The reduced image of ``word``, which need not be reduced itself."""
        images = self.images
        out: list = []
        for gen, exp in word:
            img = images.get(gen)
            if img is None:
                if gen not in self.gens:
                    raise KeyError(f"unknown generator {gen!r}")
                img = ((gen, exp),)
            elif exp != 1:
                img = invert_word(img)
            # cancel at the seam only, then append the rest of the reduced piece
            k = 0
            for letter in img:
                if not out or out[-1] != _INVERSE[letter]:
                    break
                out.pop()
                k += 1
            out.extend(img[k:])
        return tuple(out)

    def compose(self, other: "FreeAutomorphism") -> "FreeAutomorphism":
        """``self`` after ``other``: (f.compose(g)).apply(w) == f.apply(g.apply(w)).

        Only the generators ``other`` moves get a new image.
        """
        if self.gens != other.gens:
            raise ValueError("automorphisms over different generator sets")
        images = dict(self.images)
        for g, img in other.images.items():
            moved = self.apply(img)
            if moved == ((g, 1),):
                images.pop(g, None)
            else:
                images[g] = moved
        # both factors' images are over self.gens, so the constructor's check is skipped
        result = FreeAutomorphism.__new__(FreeAutomorphism)
        result.gens, result.images = self.gens, images
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, FreeAutomorphism):
            return NotImplemented
        return self.gens == other.gens and self.images == other.images

    def specialize_t1(self) -> "FreeAutomorphism":
        """Erase every t-letter from every image and reduce what is left."""
        gens = tuple(g for g in self.gens if g != T)
        images = {
            g: reduce_word(l for l in img if l[0] != T)
            for g, img in self.images.items()
            if g != T
        }
        return FreeAutomorphism(gens, images)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{format_gen(g)} -> {format_word(img)}" for g, img in self.images.items()
        )
        return f"FreeAutomorphism({parts})"


def first_difference(phi: FreeAutomorphism, psi: FreeAutomorphism):
    """First generator (a-indices ascending, then t) where the images differ."""
    for g in sorted(phi.images.keys() | psi.images.keys(), key=gen_sort_key):
        if phi.images.get(g) != psi.images.get(g):
            return g
    return None


# -- generator images of the invariant ----------------------------------------


def strand_gens(lo: int, hi: int):
    """Free-group generators for braid indices lo..hi: a_lo .. a_{hi+1} and t."""
    return tuple(range(lo, hi + 2)) + (T,)


# the letter automorphisms are cached per (index, gens) and shared by every
# caller: compose copies the images it starts from and mutates no automorphism


@lru_cache(maxsize=None)
def sigma_auto(i: int, gens) -> FreeAutomorphism:
    return FreeAutomorphism(
        gens,
        {
            i: ((i + 1, 1),),
            i + 1: ((i + 1, -1), (i, 1), (i + 1, 1)),
        },
    )


@lru_cache(maxsize=None)
def sigma_inv_auto(i: int, gens) -> FreeAutomorphism:
    # the two-sided inverse of sigma_auto under compose(); see the tests,
    # which validate it by composing to the identity both ways
    return FreeAutomorphism(
        gens,
        {
            i: ((i, 1), (i + 1, 1), (i, -1)),
            i + 1: ((i, 1),),
        },
    )


@lru_cache(maxsize=None)
def zeta_auto(i: int, gens) -> FreeAutomorphism:
    return FreeAutomorphism(
        gens,
        {
            i: ((T, 1), (i + 1, 1), (T, -1)),
            i + 1: ((T, -1), (i, 1), (T, 1)),
        },
    )


def manturov_image(letters, lo: int, hi: int) -> FreeAutomorphism:
    """Invariant of a braid word over sigma/zeta indices ``lo..hi``.

    ``letters`` iterates over ``(kind, index, exp)`` with kind ``"sig"`` or
    ``"zet"``; zeta letters are involutions so their exponent is ignored.
    """
    gens = strand_gens(lo, hi)
    result = FreeAutomorphism.identity(gens)
    for kind, index, exp in letters:
        if not lo <= index <= hi:
            raise IndexError(f"braid index {index} outside {lo}..{hi}")
        if kind == "sig":
            letter = sigma_auto(index, gens) if exp == 1 else sigma_inv_auto(index, gens)
        elif kind == "zet":
            letter = zeta_auto(index, gens)
        else:
            raise ValueError(f"unknown letter kind {kind!r}")
        result = result.compose(letter)
    return result


# -- text form -----------------------------------------------------------------
#
# "a1 a2^-1 t" with whitespace separation, "1" for the empty word; negative
# indices like "a-1" appear for the doubled alphabets.  Words are only
# printed, in reports and witnesses; no command reads them back.


def format_gen(gen) -> str:
    return T if gen == T else f"a{gen}"


def format_word(word: Iterable[Letter]) -> str:
    parts = []
    for gen, exp in word:
        parts.append(format_gen(gen) + ("" if exp == 1 else "^-1"))
    return " ".join(parts) if parts else "1"
