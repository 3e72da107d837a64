"""Matrix presentations of Soergel-type bimodules and their morphisms.

A bimodule is presented as a free left module of finite rank over the
polynomial ring, with the right multiplication by each variable recorded as a
matrix in the chosen left basis.  Matrices act on coordinate columns:
``column l`` of ``right_action(j)`` holds the coordinates of
``basis[l] * X_j``, so the entry in row ``k``, column ``l`` is homogeneous of
degree ``deg[l] + 2 - deg[k]``.

A matrix is a list of rows, one per target basis element, and each row is a
``{column: Poly}`` dict: a ``linalg`` row with polynomials for its triples.
No zero polynomial is ever stored, so two matrices are equal exactly when
``==`` says so, and every routine below visits only the stored entries.
Nothing in a matrix records its column count: that is the rank of the
source, which the ``Morphism`` or ``Bimodule`` holding the matrix carries.
Dense lists of lists appear only in ``from_dense``, for literal matrices,
and at the JSON boundary of certificates.

Every matrix product runs one kernel, ``_add_products``.  An entry's terms
are already the packed exponents and ``(p, q, d)`` triples it sums in
(``polyring``), so it adds the term products of each pair of entries in one
inline loop, with no call per product and no conversion.  ``mat_mul``
builds each output entry once from its sums (``polyring._from_sums``), and
``_weighted_sum`` does the same for a linear combination of matrices.

A polynomial crosses a bimodule as the matrix of right multiplication by it
(``Bimodule.action_of``), which is how ``id_tensor`` and ``tensor`` move
coefficients through the first factor.  Each bimodule caches the matrix of
every monomial it has met, by packed exponent and each one product from a
smaller one, and a polynomial with several terms or a coefficient other than
1 is one ``_weighted_sum`` of them.  Through a rank-one factor, such as a
twist ``R_w``, that matrix has one entry, ``w(p)``, so crossing it is
instead a memoized substitution (``Bimodule.substitute``): each bimodule
builds its image of a polynomial once, from the cached monomial images, and
keeps it in a memo of its own keyed by the polynomial's terms.  ``id_tensor``
substitutes the factor into each entry and builds no matrix per entry, and
``whisker`` writes a product ``R_u (x) M`` or ``M (x) R_v`` in one pass.
The cached matrices and images are shared with ``Bimodule.actions``, with
callers and with the tensor products by a rank one bimodule (``tensor``), so
no caller writes to a matrix or polynomial it did not build.

Every exact check (a bimodule map, a commuting square, ``d d = 0``, a
composite plus homotopy terms equal to the identity) is an identity "sum of
products = sum of products + target".  ``mat_residuals`` decides it without
building either side: it compares the unreduced sums of the term products
entry by entry, and builds a ``Poly`` and a residual only for an entry where
the identity fails.  ``Morphism.after`` hands it the factors of a
composite once their shapes are checked; no composite is built.

The two building blocks are the twisted bimodule ``R_w`` (rank one, right
action through the word ``w``) and ``B_t`` for a reflection ``t`` (rank two
with basis ``{1 (x) 1, 1 (x) root}``, right action computed by Demazure
decomposition).  Tensor products stay free with the structured Kronecker
action, so every morphism question is finite-dimensional linear algebra over
Q(sqrt2).

The degree-0 solver works pane by pane, one pane per pair of blocks, and
solves a pane at most once per process up to shift and duality.  A pane is
cached under its presentation with both blocks' degrees moved by one common
shift, which changes no unknown's degree.  On a miss it looks up the dual
pane ``Q^v -> P^v``: ``X^v`` has degrees ``-d[r-1-i]`` and actions
``J A^T J`` (``J`` reverses the basis), and ``G A_P = A_Q G`` exactly when
``H = J G^T J`` satisfies ``H A_{Q^v} = A_{P^v} H``.  A cached dual basis is
read back through that identity, and ``linalg.span_basis`` turns it into
the canonical basis ``kernel_basis`` gives on the pane's own system: that
basis is normalised at the free columns, the lexicographically last basis
of the kernel's column matroid, which is where an echelon form that pivots
at the last column of any spanning set puts its pivots.  ``B_t`` is
self-dual on the nose (``B_t^v = B_t{-2}``), so many panes meet their duals.
"""

from __future__ import annotations

from functools import lru_cache
from collections.abc import Sequence

from . import coxeter, linalg
from .coxeter import Reflection, demazure_decompose
from .linalg import UNIT
from .polyring import _FIELD, Poly, _from_sums, _mul_into, format_poly, monomial_codes
from .scalars import ZERO

Matrix = list  # list of {column: non-zero Poly} rows


@lru_cache(maxsize=None)
def _one(n: int) -> Poly:
    return Poly.one(n)


# -- polynomial matrices --------------------------------------------------------


def from_dense(rows) -> Matrix:
    """The matrix of a dense list of rows of ``Poly``; zero entries are dropped."""
    return [{j: e for j, e in enumerate(row) if e} for row in rows]


def mat_zero(rows: int) -> Matrix:
    return [{} for _ in range(rows)]


def mat_identity(rank: int, n: int) -> Matrix:
    return [{i: _one(n)} for i in range(rank)]


def _add_products(sums: dict, products, i: int) -> dict:
    """Add the term products of row ``i`` of every ``a * b`` in ``products`` into ``sums``.

    ``sums`` maps a column to its sums in the format ``polyring._mul_into``
    fills; it is returned.  The loop is ``_mul_into``'s, inline: one loop per
    pair of entries, and no call per product.
    """
    for a, b in products:
        for k, x in a[i].items():
            t1 = x.terms.items()
            for j, y in b[k].items():
                acc = sums.get(j)
                if acc is None:
                    acc = sums[j] = {}
                for e1, (p1, q1, d1) in t1:
                    for e2, (p2, q2, d2) in y.terms.items():
                        exp = e1 + e2
                        s = acc.get(exp)
                        if s is None:
                            acc[exp] = (p1 * p2 + 2 * q1 * q2, p1 * q2 + q1 * p2, d1 * d2)
                            continue
                        p, q, d, sd = p1 * p2 + 2 * q1 * q2, p1 * q2 + q1 * p2, d1 * d2, s[2]
                        if sd == d:
                            acc[exp] = (s[0] + p, s[1] + q, d)
                        else:
                            acc[exp] = (s[0] * d + p * sd, s[1] * d + q * sd, sd * d)
    return sums


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product ``a * b``; each output entry is one ``Poly``, built once.

    The term products of each row go into one ``polyring._mul_into`` dict per
    entry (``_add_products``); ``_from_sums`` then builds the entry and an
    entry that cancelled to zero is not stored.
    """
    n = next((x.n for row in a for x in row.values()), 0)  # an all-zero ``a`` builds no entry
    product = ((a, b),)
    return [
        {j: p for j, acc in _add_products({}, product, i).items() if (p := _from_sums(n, acc))}
        for i in range(len(a))
    ]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    n = next((x.n for row in (*a, *b) for x in row.values()), 0)
    return _weighted_sum(n, len(a), ((UNIT, a), (UNIT, b)))


def _weighted_sum(n: int, rows: int, weighted) -> Matrix:
    """``sum(c * a)`` over the pairs ``(c, a)`` of ``weighted``: a ``Poly.terms`` triple and a matrix of ``rows`` rows.

    Each entry gathers its ``c * entry`` terms in one ``polyring._mul_into``
    dict and is built once by ``_from_sums``; an entry that cancels is not
    stored.
    """
    sums = [{} for _ in range(rows)]
    for c, a in weighted:
        scalar = {0: c}
        for srow, row in zip(sums, a):
            for j, x in row.items():
                acc = srow.get(j)
                if acc is None:
                    acc = srow[j] = {}
                _mul_into(acc, scalar, x.terms)
    return [{j: q for j, acc in srow.items() if (q := _from_sums(n, acc))} for srow in sums]


def _same_sums(x: dict, y: dict) -> bool:
    """Whether two ``_mul_into`` dicts hold the same polynomial.

    The unreduced fractions ``(p + q*sqrt2)/d`` are compared at every
    exponent, by cross-multiplication where the denominators differ; a
    missing exponent is zero.
    """
    get = y.get
    for exp, (p1, q1, d1) in x.items():
        s = get(exp)
        if s is None:
            if p1 or q1:
                return False
        elif s[2] == d1:
            if p1 != s[0] or q1 != s[1]:
                return False
        elif p1 * s[2] != s[0] * d1 or q1 * s[2] != s[1] * d1:
            return False
    return not any(y[exp][0] or y[exp][1] for exp in y.keys() - x.keys())


def mat_residuals(n: int, lhs, rhs=(), target: Matrix | None = None) -> list:
    """``(row, col, residual)`` wherever ``sum(a * b for a, b in lhs)`` differs
    from ``sum(a * b for a, b in rhs)`` plus ``target``.

    ``lhs`` and ``rhs`` are sequences of factor pairs ``(a, b)`` with the
    same row count, and ``target`` is a matrix or None for zero; ``n`` is the
    variable count.  Neither side is built: per entry the term products of
    each side go into one unreduced ``polyring._mul_into`` dict, the target's
    terms are added as they are, and the two dicts are compared exactly.  Only
    an entry that differs becomes a ``Poly``, and its residual ``lhs - rhs -
    target`` is formatted.  Row-major, with the columns of each row ascending.
    """
    rows = len(target) if target is not None else len((lhs or rhs)[0][0])
    out = []
    for i in range(rows):
        left = _add_products({}, lhs, i)
        right = {}
        if target is not None:
            right = {j: dict(x.terms) for j, x in target[i].items()}
        _add_products(right, rhs, i)
        for j in sorted(left.keys() | right.keys()):
            x, y = left.get(j, {}), right.get(j, {})
            if x != y and not _same_sums(x, y):
                out.append((i, j, format_poly(_from_sums(n, x) - _from_sums(n, y))))
    return out


def id_tensor(left: Bimodule, matrix: Matrix, cols: int) -> Matrix:
    """Matrix of ``id (x) g`` for ``g`` given by ``matrix`` with ``cols`` columns.

    The entries of ``matrix`` cross ``left``.  Basis element ``a (x) b`` sits
    at index ``a * rank_b + b`` on both sides, so every output entry comes
    from exactly one entry of ``matrix``.  A rank-one ``left`` keeps the
    indices: each entry ``p`` becomes ``left.substitute(p)``, which is
    ``w(p)`` for a twist ``R_w``.  That is a memoized substitution: each
    image is built once per bimodule and polynomial, then read from the
    bimodule's memo, shared and read-only.  This branch is the one way an
    entry crosses a twist.
    """
    if left.rank == 1:
        return [{b: q for b, p in row.items() if (q := left.substitute(p))} for row in matrix]
    rl = left.rank
    tr = len(matrix)
    out = mat_zero(rl * tr)
    for b2, row in enumerate(matrix):
        for b, entry in row.items():
            crossed = left.action_of(entry)
            for a2 in range(rl):
                orow = out[a2 * tr + b2]
                for a, e in crossed[a2].items():
                    orow[a * cols + b] = e
    return out


# -- bimodules -------------------------------------------------------------------


class Bimodule:
    """A graded bimodule presented by a left basis and right-action matrices."""

    __slots__ = ("n", "rank", "basis_degrees", "actions", "block_spans", "_monomial_cache", "_images", "_signatures")

    def __init__(
        self,
        n: int,
        basis_degrees: Sequence[int],
        actions: Sequence[Matrix],
        block_spans: Sequence[tuple] | None = None,
    ) -> None:
        self.n = n
        self.rank = len(basis_degrees)
        self.basis_degrees = tuple(basis_degrees)
        self.actions = tuple(actions)
        self.block_spans = tuple(block_spans) if block_spans else ((0, self.rank),)
        self._monomial_cache: dict = {}
        self._images: dict = {}  # frozenset of a polynomial's terms -> substitute(polynomial)
        self._signatures: dict = {}  # (span, dual) -> _pane_signature

    # equality compares presentations: degrees and actions
    def __eq__(self, other) -> bool:
        if not isinstance(other, Bimodule):
            return NotImplemented
        return (
            self.n == other.n
            and self.basis_degrees == other.basis_degrees
            and self.actions == other.actions
        )

    def __repr__(self) -> str:
        return f"Bimodule(rank={self.rank}, degrees={list(self.basis_degrees)})"

    def _monomial_action(self, code: int) -> Matrix:
        """The matrix of ``X^exp`` for the packed exponent ``code``, cached per bimodule and shared, so read-only.

        The zero exponent is the identity and ``X_j`` is ``actions[j]`` itself.
        A higher monomial is one product ``actions[j] * X^(exp - e_j)`` with
        ``j`` its last variable, the one whose field holds the top bit of
        ``code``, on the cached smaller monomial.
        """
        cached = self._monomial_cache.get(code)
        if cached is not None:
            return cached
        if not code:
            result = mat_identity(self.rank, self.n)
        else:
            j = (code.bit_length() - 1) // _FIELD
            lower = code - (1 << (_FIELD * j))
            result = self.actions[j]
            if lower:
                result = mat_mul(result, self._monomial_action(lower))
        self._monomial_cache[code] = result
        return result

    def action_of(self, p: Poly) -> Matrix:
        """Right multiplication by an arbitrary polynomial, in the left basis.

        A single term with coefficient 1 is its cached monomial matrix, shared
        and read-only.  Otherwise, on a rank-one bimodule it is the 1x1 matrix
        of the memoized ``substitute(p)``, and on any other the sum of ``c *
        X^exp`` over the terms of ``p`` (``_weighted_sum``); either way a new
        matrix.
        """
        terms = p.terms
        if len(terms) == 1:
            ((code, c),) = terms.items()
            if c == UNIT:
                return self._monomial_action(code)
        if self.rank == 1:
            image = self.substitute(p)
            return [{0: image} if image else {}]
        return _weighted_sum(self.n, self.rank, ((c, self._monomial_action(code)) for code, c in terms.items()))

    def substitute(self, p: Poly) -> Poly:
        """``p`` crossed through this rank-one bimodule: entry (0, 0) of ``action_of(p)``, memoized.

        For a twist ``R_w`` that is ``w(p)``, and for ``R`` it is ``p``.  A
        monomial with coefficient 1 is its cached monomial image.  Any other
        polynomial is looked up by its terms in ``_images``; on a miss the
        ``c * X^exp`` images are summed in one ``_mul_into`` dict and
        ``_from_sums`` builds the image, which the memo keeps for the
        bimodule's lifetime.  Every image is shared, so read-only.  A
        monomial that acts by zero crosses to the zero polynomial.
        """
        terms = p.terms
        if len(terms) == 1:
            ((code, c),) = terms.items()
            if c == UNIT:
                image = self._monomial_action(code)[0].get(0)
                return Poly(self.n) if image is None else image
        key = frozenset(terms.items())
        image = self._images.get(key)
        if image is None:
            acc: dict = {}
            for code, c in terms.items():
                x = self._monomial_action(code)[0].get(0)
                if x is not None:
                    _mul_into(acc, {0: c}, x.terms)
            image = self._images[key] = _from_sums(self.n, acc)
        return image

    def validate(self) -> None:
        """``ValueError`` unless each right action ``X_j`` is a bimodule map ``M -> M{-2}``.

        That is the grading constraint on its entries together with its
        commuting with every other right action.
        """
        for j, a in enumerate(self.actions):
            failures = Morphism(self, shift(self, -2), a).morphism_failures()
            if failures:
                raise ValueError(f"right action {j} is not a bimodule map: {failures[:3]}")


def bimodule_R(n: int) -> Bimodule:
    return Bimodule(n, [0], [[{0: Poly.variable(n, j)}] for j in range(n)])


def bimodule_Rw(word, n: int) -> Bimodule:
    """Rank one, with ``a`` acting on the right as multiplication by ``w(a)``."""
    actions = [[{0: image}] for image in coxeter.word_endo(word, n).images]
    return Bimodule(n, [0], actions)


def bimodule_Bs(t: Reflection) -> Bimodule:
    """Rank two with basis ``{1 (x) 1, 1 (x) root}`` over the t-invariants."""
    n = t.n
    actions = []
    for j in range(n):
        xj = Poly.variable(n, j)
        p0, q0 = demazure_decompose(t, xj)
        p1, q1 = demazure_decompose(t, xj * t.root)
        actions.append(from_dense([[p0, p1], [q0, q1]]))
    return Bimodule(n, [0, 2], actions)


def zero_bimodule(n: int) -> Bimodule:
    return Bimodule(n, [], [[] for _ in range(n)])


def shift(m: Bimodule, p: int) -> Bimodule:
    """Shift the internal grading: basis degrees go up by ``p``, actions unchanged."""
    return Bimodule(m.n, [d + p for d in m.basis_degrees], m.actions, m.block_spans)


def whisker(left: Bimodule | None, m: Bimodule, right: Bimodule | None) -> Bimodule:
    """``left (x) m (x) right`` for rank-one ``left`` and ``right`` (None for ``R``), in one pass.

    A rank-one factor reorders no basis: the result keeps ``m``'s blocks,
    and its basis degrees are ``m``'s raised by those of ``left`` and
    ``right``.  Action ``j`` is ``m.action_of(p_j)`` for ``right``'s image
    ``p_j`` of ``X_j``, with ``left`` substituted into every entry
    (``id_tensor``, memoized on ``left``).  Where ``left`` is None and
    ``right`` fixes ``X_j``, the action is ``m``'s own matrix, shared
    read-only, like every matrix ``action_of`` returns.  ``tensor`` is the
    one caller, with one side None: its product by a rank-one factor.
    """
    shift_by = sum(x.basis_degrees[0] for x in (left, right) if x is not None)
    actions = m.actions if right is None else [m.action_of(a[0][0]) for a in right.actions]
    if left is not None:
        actions = [id_tensor(left, a, m.rank) for a in actions]
    return Bimodule(m.n, [d + shift_by for d in m.basis_degrees], actions, m.block_spans)


def tensor(m: Bimodule, other: Bimodule) -> Bimodule:
    """Tensor over the ring; the right action crosses the second factor first.

    ``(x (x) y) * X_j`` expands ``y * X_j`` in the second factor and moves the
    resulting polynomial coefficients through the first factor with its own
    right-action matrices.  A rank-one factor on either side makes the
    product a ``whisker`` of the other factor.  Otherwise basis element
    ``(a, b)`` sits at ``a * other.rank + b``, so a single-block ``other``
    keeps ``m``'s blocks, scaled by ``other.rank``, and any other product is
    one block.
    """
    if m.n != other.n:
        raise ValueError("bimodules over different variable counts")
    if other.rank == 1:
        return whisker(None, m, other)
    if m.rank == 1:
        return whisker(m, other, None)
    rm, ro = m.rank, other.rank
    rank = rm * ro
    degrees = [
        m.basis_degrees[a] + other.basis_degrees[b]
        for a in range(rm)
        for b in range(ro)
    ]
    actions = [id_tensor(m, a, ro) for a in other.actions]
    if len(other.block_spans) == 1:
        spans = [(s * ro, e * ro) for s, e in m.block_spans]
    else:
        spans = [(0, rank)]
    return Bimodule(m.n, degrees, actions, spans)


def direct_sum(parts: Sequence[Bimodule]) -> Bimodule:
    parts = list(parts)
    if not parts:
        raise ValueError("empty direct sum (use zero_bimodule)")
    n = parts[0].n
    degrees: list = []
    spans: list = []
    offsets: list = []
    for p in parts:
        offsets.append(len(degrees))
        spans.extend((offsets[-1] + s, offsets[-1] + e) for s, e in p.block_spans)
        degrees.extend(p.basis_degrees)
    # block diagonal: each row of the sum is one part's row, shifted by its offset
    actions = [
        [{off + c: e for c, e in row.items()} for p, off in zip(parts, offsets) for row in p.actions[j]]
        for j in range(n)
    ]
    return Bimodule(n, degrees, actions, spans)


# -- morphisms --------------------------------------------------------------------


class Morphism:
    """A left-linear map given by its matrix on coordinate columns.

    The bimodule-map condition (commutation with every right action) is a
    real constraint and is verified, never assumed.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: Bimodule, target: Bimodule, matrix: Matrix) -> None:
        if len(matrix) != target.rank or any(row and max(row) >= source.rank for row in matrix):
            raise ValueError(f"the matrix does not map rank {source.rank} into rank {target.rank}")
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def zero(cls, source: Bimodule, target: Bimodule) -> "Morphism":
        return cls(source, target, mat_zero(target.rank))

    def morphism_failures(self) -> list:
        """Empty iff this is a degree-0 bimodule morphism; entries name violations."""
        failures = []
        src, tgt = self.source, self.target
        for k, row in enumerate(self.matrix):
            for l, entry in sorted(row.items()):
                if not entry.is_homogeneous(src.basis_degrees[l] - tgt.basis_degrees[k]):
                    failures.append(("grading", k, l, format_poly(entry)))
        for j in range(src.n):
            residuals = mat_residuals(src.n, [(self.matrix, src.actions[j])], [(tgt.actions[j], self.matrix)])
            failures += [(f"action X{j}", *w) for w in residuals]
        return failures

    def after(self, other: "Morphism") -> tuple:
        """The factors ``(self.matrix, other.matrix)`` of ``self`` after ``other``.

        ``ValueError`` unless ``other`` ends where ``self`` starts.  A check
        hands the pair to ``mat_residuals`` without building the product.
        """
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition shape mismatch")
        return self.matrix, other.matrix

    def __add__(self, other: "Morphism") -> "Morphism":
        return Morphism(self.source, self.target, mat_add(self.matrix, other.matrix))

    def scale(self, c) -> "Morphism":
        matrix = [{j: y for j, x in row.items() if (y := x.scale(c))} for row in self.matrix]
        return Morphism(self.source, self.target, matrix)

    def __repr__(self) -> str:
        return f"Morphism({self.source!r} -> {self.target!r})"

    # -- graded inversion ---------------------------------------------------

    def graded_inverse(self) -> "Morphism | None":
        """Two-sided inverse of a degree-0 morphism, or None.

        The constant terms form a matrix ``D`` that pairs basis elements of
        equal degree, and ``F`` is invertible exactly when ``D`` is.  Then
        ``S = I - D^-1 F`` strictly raises degree, so ``S^m = 0`` for ``m``
        distinct basis degrees and ``F^-1 = (I + S + ... + S^(m-1)) D^-1``.
        The series is exact, so nothing is checked here: a certificate built
        from the inverse gets its one exact check where it is written
        (``homotopy.certify_pair``).
        """
        src, tgt = self.source, self.target
        n = src.n
        if sorted(src.basis_degrees) != sorted(tgt.basis_degrees):
            return None
        d_inv = linalg.dense_inverse(
            [[row[l].constant_term() if l in row else ZERO for l in range(src.rank)] for row in self.matrix]
        )
        if d_inv is None:
            return None
        d_inv = [{l: Poly.constant(n, c) for l, c in enumerate(row) if c} for row in d_inv]
        s = _weighted_sum(n, src.rank, [(UNIT, mat_identity(src.rank, n)), ((-1, 0, 1), mat_mul(d_inv, self.matrix))])
        inverse = d_inv
        for _ in range(len(set(src.basis_degrees)) - 1):
            inverse = mat_add(d_inv, mat_mul(s, inverse))
        return Morphism(tgt, src, inverse)


# -- the degree-0 morphism solver ---------------------------------------------


_PANE_CACHE: dict = {}


def _pane_signature(m: Bimodule, span: tuple, dual: bool = False) -> tuple:
    """The block's degrees and action entries, in span-relative (row, column) order.

    Each action is one flat tuple of ints: per stored entry its row, column
    and term count, then per term (sorted by packed exponent) the packed
    exponent and the ``(p, q, d)`` of its coefficient.  The tuple reads back
    one way only, and a ``Poly`` is stored one way only, so equal
    signatures mean equal presentations.  With ``dual``, it is the
    signature of the dual block ``X^v``: degrees ``-d[r-1-i]`` and actions
    ``J A^T J``, where ``J`` reverses the basis, so entry ``(k, l)`` of ``A``
    is entry ``(r-1-l, r-1-k)`` of the dual.  Cached per bimodule.
    """
    cached = m._signatures.get((span, dual))
    if cached is not None:
        return cached
    s, e = span
    degs = m.basis_degrees[s:e]
    if dual:
        degs = tuple(-d for d in reversed(degs))
    mats = []
    for a in m.actions:
        if dual:
            entries = sorted(((e - 1 - l, e - 1 - k), poly) for k in range(s, e) for l, poly in a[k].items())
        else:
            entries = [((k - s, l - s), poly) for k in range(s, e) for l, poly in sorted(a[k].items())]
        flat: list = []
        for kl, poly in entries:
            flat += (*kl, len(poly.terms))
            for code, c in sorted(poly.terms.items()):
                flat.append(code)
                flat += c
        mats.append(tuple(flat))
    signature = m._signatures[(span, dual)] = (degs, tuple(mats))
    return signature


def _pane_key(n: int, source: tuple, target: tuple) -> tuple:
    """The cache key of the pane between two block signatures.

    Both blocks' degrees move by one common shift, which puts the smallest
    at 0: the unknown entries' degrees are differences of a source and a
    target degree, so panes that differ by such a shift have one basis.
    """
    (sdegs, smats), (tdegs, tmats) = source, target
    low = min(sdegs + tdegs, default=0)
    return (n, tuple(d - low for d in sdegs), smats, tuple(d - low for d in tdegs), tmats)


def solve_morphisms(m: Bimodule, target: Bimodule) -> list:
    """A basis of the space of degree-0 morphisms ``m -> target``.

    Unknown matrix entries are homogeneous of the degree the grading forces;
    the commutation with every right action gives an exact linear system over
    Q(sqrt2).  The right actions are block diagonal, so the system splits into
    independent panes (one per pair of blocks).  Each pane's basis is cached
    by the pane's presentation up to one common shift of both blocks'
    degrees (``_pane_key``), and a pane is solved at most once up to shift
    and duality:

    - Duality.  ``G A_P = A_Q G`` for every action exactly when
      ``H = J G^T J`` satisfies ``H A_{Q^v} = A_{P^v} H``, where ``X^v`` has
      degrees ``-d[r-1-i]`` and actions ``J A^T J``; this is the transpose
      of the equation, for every presentation.  So on a miss, a cached
      basis of the dual pane ``Q^v -> P^v`` spans this pane as
      ``G[k][l] = H[r_P-1-l][r_Q-1-k]``.
    - Canonical basis.  ``_solve_pane`` turns those maps into slot vectors
      and ``linalg.span_basis`` returns exactly the basis that
      ``kernel_basis`` returns on the pane's own system, so a pane's basis
      does not depend on which way it was found.
    """
    if m.n != target.n:
        raise ValueError("bimodules over different variable counts")
    n = m.n
    basis = []
    sources = [(sspan, _pane_signature(m, sspan)) for sspan in m.block_spans]
    for tspan in target.block_spans:
        tsig = _pane_signature(target, tspan)
        for sspan, ssig in sources:
            key = _pane_key(n, ssig, tsig)
            local = _PANE_CACHE.get(key)
            if local is None:
                dual_key = _pane_key(n, _pane_signature(target, tspan, True), _pane_signature(m, sspan, True))
                dual = _PANE_CACHE.get(dual_key)
                local = _PANE_CACHE[key] = _solve_pane(m, sspan, target, tspan, dual)
            for mat in local:
                full = mat_zero(target.rank)
                for (k, l), poly in mat.items():
                    full[tspan[0] + k][sspan[0] + l] = poly
                basis.append(Morphism(m, target, full))
    return basis


def _solve_pane(m, sspan, target, tspan, dual=None):
    """A basis of the degree-0 maps from block ``sspan`` of ``m`` to block ``tspan`` of ``target``.

    Each unknown entry ``(k, l)`` is a combination of the monomials of the
    degree the grading forces, one variable (slot) per monomial.  Without
    ``dual``, the basis is the kernel of the pane's equations
    (``_pane_equations``).  ``dual`` is a basis of the dual pane's maps
    ``H`` (see ``solve_morphisms``); each ``H`` is read back as the map
    ``G[k][l] = H[r_P-1-l][r_Q-1-k]``, and ``linalg.span_basis`` turns the
    slot vectors of those maps into the same basis.
    """
    n = m.n
    ss, se = sspan
    ts, te = tspan
    src_deg = m.basis_degrees
    tgt_deg = target.basis_degrees
    # the unknown entries (local k, local l) by column and by row, each with
    # its slots [(packed exponent, variable index)]
    by_col: dict = {}
    by_row: dict = {}
    slots: list = []
    for k in range(te - ts):
        for l in range(se - ss):
            codes = monomial_codes(n, src_deg[ss + l] - tgt_deg[ts + k])
            if codes:
                variables = [(code, len(slots) + i) for i, code in enumerate(codes)]
                by_col.setdefault(l, []).append((k, variables))
                by_row.setdefault(k, []).append((l, variables))
                slots.extend((k, l, code) for code in codes)
    if dual is None:
        kernel = linalg.kernel_basis(_pane_equations(m, sspan, target, tspan, by_col, by_row), len(slots))
    else:
        index = {slot: i for i, slot in enumerate(slots)}
        rp, rq = se - ss, te - ts
        vectors = [
            {index[(rq - 1 - b, rp - 1 - a, code)]: c for (a, b), poly in h.items() for code, c in poly.terms.items()}
            for h in dual
        ]
        kernel = linalg.span_basis(vectors, len(slots))
    out = []
    for vec in kernel:
        entries: dict = {}
        for var, coeff in vec.items():
            k, l, code = slots[var]
            poly = entries.get((k, l))
            if poly is None:
                poly = entries[(k, l)] = Poly(n)
            poly.terms[code] = coeff
        out.append(entries)
    return out


def _pane_equations(m, sspan, target, tspan, by_col, by_row) -> list:
    """The rows of the pane's system, for the unknowns ``_solve_pane`` numbers.

    The equations are the monomial coefficients of every entry of
    ``F A_src - A_tgt F``, one action at a time.  They are summed as
    unreduced ``(p, q, d)`` triples keyed by packed exponents, the format of
    ``Poly.terms`` and of the product kernel's sums, and handed to
    ``linalg`` as they are, without the zero ones.
    """
    ss, se = sspan
    ts, te = tspan
    rows: list = []
    for j in range(m.n):
        # the products of F*A_src - A_tgt*F: (entry (k, l), the unknown
        # entry's slots, the known entry's (packed exponent, triple) terms)
        products: list = []
        for mm in range(se - ss):
            unknowns = by_col.get(mm)
            if not unknowns:
                continue
            for l, a in sorted(m.actions[j][ss + mm].items()):
                terms = a.terms.items()
                products += [((k, l - ss), variables, terms) for k, variables in unknowns]
        for k in range(te - ts):
            for mm, b in sorted(target.actions[j][ts + k].items()):
                unknowns = by_row.get(mm - ts)
                if unknowns:
                    terms = [(code, (-p, -q, d)) for code, (p, q, d) in b.terms.items()]
                    products += [((k, l), variables, terms) for l, variables in unknowns]
        # (k, l) -> packed monomial -> {variable: unreduced sum}; a sum that
        # cancels stays, as a zero, until the rows are read off below
        eqs: dict = {}
        for kl, variables, terms in products:
            eq = eqs.get(kl)
            if eq is None:
                eq = eqs[kl] = {}
            for code, var in variables:
                for acode, c in terms:
                    mono = code + acode
                    row = eq.get(mono)
                    if row is None:
                        eq[mono] = {var: c}
                        continue
                    s = row.get(var)
                    if s is None:
                        row[var] = c
                    elif s[2] == c[2]:
                        row[var] = (s[0] + c[0], s[1] + c[1], c[2])
                    else:
                        row[var] = (s[0] * c[2] + c[0] * s[2], s[1] * c[2] + c[1] * s[2], s[2] * c[2])
        for kl in sorted(eqs):
            for sums in eqs[kl].values():
                row = {var: s for var, s in sums.items() if s[0] or s[1]}
                if row:
                    rows.append(row)
    return rows
