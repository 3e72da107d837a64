"""The type-B reflection action on the graded polynomial ring.

Generators ``s_0, ..., s_{n-1}`` act through the linear involutions built
from the Cartan pairings (order 4 between ``s_0`` and ``s_1``, order 3
between neighbouring ``s_i`` for ``i >= 1``, commuting otherwise).  Words
are sequences of generator indices and act by composing the involutions,
rightmost letter first, so a word acts the way the group element it spells
does.  The representation is faithful: two words spell the same element
exactly when their ``word_endo`` are equal.

A ``Reflection`` is a conjugate of a generator with a root read off its
word, and ``demazure_decompose`` splits a polynomial over its invariants;
``bimodcalc`` builds the bimodule ``B_t`` from these two.
"""

from __future__ import annotations

from functools import lru_cache

from . import linalg
from .errors import ReflectionError
from .polyring import LinearEndo, Poly, divide_by_linear
from .scalars import ONE, QSqrt2, reduced

Word = tuple  # tuple of generator indices

_MINUS_HALF = reduced(-1, 0, 2)
_MINUS_HALF_SQRT2 = reduced(0, -1, 2)


@lru_cache(maxsize=None)
def cartan(n: int):
    """The n-by-n table of pairings between generators."""
    if n < 2:
        raise ValueError("need at least two generators")
    table = [[QSqrt2(0) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        table[i][i] = ONE
    table[0][1] = table[1][0] = _MINUS_HALF_SQRT2
    for i in range(1, n - 1):
        table[i][i + 1] = table[i + 1][i] = _MINUS_HALF
    return tuple(tuple(row) for row in table)


@lru_cache(maxsize=None)
def alpha(i: int, n: int) -> LinearEndo:
    """The involution of the polynomial ring attached to generator ``i``."""
    if not 0 <= i < n:
        raise IndexError(f"generator index {i} out of range for n={n}")
    pairing = cartan(n)
    images = []
    for j in range(n):
        img = Poly.variable(n, j) + Poly.variable(n, i).scale(-2 * pairing[i][j])
        images.append(img)
    return LinearEndo(images)


def word_endo(word: Word, n: int) -> LinearEndo:
    """The endomorphism of a word, rightmost generator applied first.

    ``word_endo(word) = alpha(word[0]) o word_endo(word[1:])``, folded from
    the right.  Nothing is cached here: what reaches it runs once per
    distinct virtual run (``homotopy._twist_complex``) or letter
    (``homotopy._letter_complex``).
    """
    endo = LinearEndo.identity(n)
    for i in reversed(word):
        endo = alpha(i, n).compose(endo)
    return endo


def act(word, p: Poly) -> Poly:
    return word_endo(tuple(word), p.n).apply(p)


class Reflection:
    """A reflection given by a word together with a chosen root.

    The root is the image ``u(X_i)`` read off the word ``u . s_i . u`` (odd
    length, middle letter ``s_i``); it spans the -1 eigenspace.  Demazure
    decomposition only depends on the root up to a nonzero scalar.
    """

    __slots__ = ("word", "n", "root", "endo")

    def __init__(self, word: Word, n: int, root: Poly, endo: LinearEndo) -> None:
        self.word = word
        self.n = n
        self.root = root
        self.endo = endo

    def apply(self, p: Poly) -> Poly:
        return self.endo.apply(p)

    def __repr__(self) -> str:
        return f"Reflection({list(self.word)}, root={self.root})"


def make_reflection(word, n: int) -> Reflection:
    """Build a Reflection from an odd-length conjugate-of-a-generator word.

    Verified directly on the induced matrix: it must be an involution whose
    fixed subspace has codimension one, and the root read off the word
    structure must change sign.
    """
    word = tuple(word)
    if len(word) % 2 == 0:
        raise ReflectionError(f"word {list(word)} has even length")
    endo = word_endo(word, n)
    if not endo.compose(endo).is_identity():
        raise ReflectionError(f"word {list(word)} does not act as an involution")
    matrix = endo.matrix()
    delta = [
        [matrix[j][k] - (ONE if j == k else QSqrt2(0)) for k in range(n)]
        for j in range(n)
    ]
    if linalg.dense_rank(delta) != 1:
        raise ReflectionError(f"word {list(word)} fixes a subspace of codimension != 1")
    mid = len(word) // 2
    prefix, i = word[:mid], word[mid]
    root = act(prefix, Poly.variable(n, i))
    if act(word, root) != -root:
        raise ReflectionError(f"root {root} of {list(word)} does not change sign")
    return Reflection(word, n, root, endo)


def demazure_decompose(t: Reflection, f: Poly):
    """Split ``f = p + q * root`` with both parts t-invariant.

    ``q = (f - t(f)) / (2 root)``; exact divisibility holds for any
    polynomial precisely because ``t`` is a reflection with that root.
    """
    q = divide_by_linear(f - t.apply(f), t.root.scale(2))
    p = f - q * t.root
    return p, q

