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

A polynomial crosses a bimodule as the matrix of right multiplication by it
(``Bimodule.action_of``), which is how ``id_tensor`` and ``tensor`` move
coefficients through the first factor.  Through a rank-one factor, such as a
twist ``R_w``, that matrix has one entry, so ``id_tensor`` substitutes the
factor into each entry and builds no matrix per entry, and ``whisker`` writes
``R_u (x) M (x) R_v`` from ``M`` in one pass.  Each bimodule caches the
matrix of every monomial it has met, each one product from a smaller one, and
a polynomial with several terms or a coefficient other than 1 is summed in
one pass with the product kernel ``mat_mul`` uses.  The cached matrices are
shared with ``Bimodule.actions``, with callers and with the tensor products
by a rank one bimodule (``tensor``), so no caller writes to a matrix it did
not build.

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
"""

from __future__ import annotations

from functools import lru_cache
from collections.abc import Sequence

from . import coxeter, linalg
from .coxeter import Reflection, demazure_decompose
from .polyring import _PACKED, Poly, _from_sums, _mul_into, _sums_of, format_poly, monomial_exponents
from .scalars import ONE, ZERO, QSqrt2, reduced

Matrix = list  # list of {column: non-zero Poly} rows

MINUS_ONE = QSqrt2(-1)


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


def _add_into(row: dict, j: int, x: Poly) -> None:
    """``row[j] += x``, dropping the entry if the sum is zero."""
    cur = row.get(j)
    if cur is None:
        row[j] = x
        return
    cur = cur + x
    if cur:
        row[j] = cur
    else:
        del row[j]


def _add_products(sums: dict, products, i: int) -> dict:
    """Add the term products of row ``i`` of every ``a * b`` in ``products`` into ``sums``.

    ``sums`` maps a column to its ``polyring._mul_into`` dict; it is returned.
    """
    for a, b in products:
        for k, x in a[i].items():
            t1 = x.terms
            for j, y in b[k].items():
                acc = sums.get(j)
                if acc is None:
                    acc = sums[j] = {}
                _mul_into(acc, t1, y.terms)
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
    out = [dict(row) for row in a]
    for oi, bi in zip(out, b):
        for j, y in bi.items():
            _add_into(oi, j, y)
    return out


def mat_scale(a: Matrix, c) -> Matrix:
    return [{j: y for j, x in row.items() if (y := x.scale(c))} for row in a]


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
            right = {j: _sums_of(x.terms) for j, x in target[i].items()}
        _add_products(right, rhs, i)
        for j in sorted(left.keys() | right.keys()):
            x, y = left.get(j, {}), right.get(j, {})
            if not _same_sums(x, y):
                out.append((i, j, format_poly(_from_sums(n, x) - _from_sums(n, y))))
    return out


def id_tensor(left: Bimodule, matrix: Matrix, cols: int) -> Matrix:
    """Matrix of ``id (x) g`` for ``g`` given by ``matrix`` with ``cols`` columns.

    The entries of ``matrix`` cross ``left``.  Basis element ``a (x) b`` sits
    at index ``a * rank_b + b`` on both sides, so every output entry comes
    from exactly one entry of ``matrix``.  A rank-one ``left`` keeps the
    indices: each entry ``p`` becomes ``left``'s image of ``p``
    (``_rank_one_image``), with no matrix built per entry.
    """
    if left.rank == 1:
        return [{b: q for b, p in row.items() if (q := _rank_one_image(left, p))} for row in matrix]
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


# kept apart from ``action_of``: building its 1x1 matrix per entry cost the ``pairs`` workload 1-4% ops_per_s
def _rank_one_image(left: Bimodule, p: Poly) -> Poly | None:
    """``p`` crossed through the rank-one ``left``: entry (0, 0) of ``left.action_of(p)``, or None for zero.

    A single term with coefficient 1 is the cached monomial image itself;
    otherwise ``c * image(X^exp)`` is summed over the terms of ``p`` in one
    ``polyring._mul_into`` dict, in the order ``action_of`` sums them.
    """
    terms = p.terms
    if len(terms) == 1:
        ((exp, c),) = terms.items()
        if c == ONE:
            return left._monomial_action(exp)[0].get(0)
    n = left.n
    acc: dict = {}
    for exp, c in terms.items():
        x = left._monomial_action(exp)[0].get(0)
        if x is not None:
            _mul_into(acc, {(0,) * n: c}, x.terms)
    return _from_sums(n, acc)


# -- bimodules -------------------------------------------------------------------


class Bimodule:
    """A graded bimodule presented by a left basis and right-action matrices."""

    __slots__ = ("n", "rank", "basis_degrees", "actions", "block_spans", "_monomial_cache")

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

    def _monomial_action(self, exp: tuple) -> Matrix:
        """The matrix of ``X^exp``, cached per bimodule and shared, so read-only.

        The zero exponent is the identity and ``X_j`` is ``actions[j]`` itself.
        A higher monomial is one product ``actions[j] * X^(exp - e_j)`` with
        ``j`` its last variable, on the cached smaller monomial.
        """
        cached = self._monomial_cache.get(exp)
        if cached is not None:
            return cached
        nonzero = [j for j, e in enumerate(exp) if e]
        if not nonzero:
            result = mat_identity(self.rank, self.n)
        else:
            j = nonzero[-1]
            lower = exp[:j] + (exp[j] - 1,) + exp[j + 1 :]
            result = self.actions[j]
            if any(lower):
                result = mat_mul(result, self._monomial_action(lower))
        self._monomial_cache[exp] = result
        return result

    def action_of(self, p: Poly) -> Matrix:
        """Right multiplication by an arbitrary polynomial, in the left basis.

        A single term with coefficient 1 is its cached monomial matrix, shared
        and read-only.  Otherwise each output entry gathers ``c * X^exp`` over
        the terms of ``p`` in one ``polyring._mul_into`` dict and is built
        once by ``_from_sums``; the result is a new matrix.
        """
        terms = p.terms
        if len(terms) == 1:
            ((exp, c),) = terms.items()
            if c == ONE:
                return self._monomial_action(exp)
        n = self.n
        sums = [{} for _ in range(self.rank)]
        for exp, c in terms.items():
            coeff = {(0,) * n: c}
            for srow, row in zip(sums, self._monomial_action(exp)):
                for j, x in row.items():
                    acc = srow.get(j)
                    if acc is None:
                        acc = srow[j] = {}
                    _mul_into(acc, coeff, x.terms)
        return [{j: q for j, acc in srow.items() if (q := _from_sums(n, acc))} for srow in sums]

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
    (``id_tensor``).  Where ``left`` is None and ``right`` fixes ``X_j``,
    that is ``m``'s own matrix, shared read-only, like every matrix
    ``action_of`` returns.
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

    def is_zero(self) -> bool:
        return not any(self.matrix)

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
        return Morphism(self.source, self.target, mat_scale(self.matrix, c))

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
        ident = mat_identity(src.rank, n)
        s = mat_add(ident, mat_scale(mat_mul(d_inv, self.matrix), MINUS_ONE))
        inverse = d_inv
        for _ in range(len(set(src.basis_degrees)) - 1):
            inverse = mat_add(d_inv, mat_mul(s, inverse))
        return Morphism(tgt, src, inverse)


# -- the degree-0 morphism solver ---------------------------------------------


_PANE_CACHE: dict = {}


def _pane_signature(m: Bimodule, span: tuple) -> tuple:
    """The pane's degrees and action entries, in span-relative (row, column) order.

    Each action is one flat tuple of ints: per stored entry its row, column
    and term count, then per term (sorted by exponent) the exponent and the
    ``(p, q, d)`` of its coefficient.  With the variable count fixed, the
    tuple reads back one way only, so equal keys mean equal panes.
    """
    s, e = span
    degs = m.basis_degrees[s:e]
    mats = []
    for a in m.actions:
        flat: list = []
        for k in range(s, e):
            for l, poly in sorted(a[k].items()):
                flat += (k - s, l - s, len(poly.terms))
                for exp, c in sorted(poly.terms.items()):
                    flat += exp
                    flat += (c.p, c.q, c.d)
        mats.append(tuple(flat))
    return (degs, tuple(mats))


def solve_morphisms(m: Bimodule, target: Bimodule) -> list:
    """A basis of the space of degree-0 morphisms ``m -> target``.

    Unknown matrix entries are homogeneous of the degree the grading forces;
    the commutation with every right action gives an exact linear system over
    Q(sqrt2).  The right actions are block diagonal, so the system splits into
    independent panes (one per pair of blocks), each solved and cached by its
    presentation.
    """
    if m.n != target.n:
        raise ValueError("bimodules over different variable counts")
    basis = []
    sources = [(sspan, _pane_signature(m, sspan)) for sspan in m.block_spans]
    for tspan in target.block_spans:
        tsig = _pane_signature(target, tspan)
        for sspan, ssig in sources:
            key = (m.n, ssig, tsig)
            local = _PANE_CACHE.get(key)
            if local is None:
                local = _solve_pane(m, sspan, target, tspan)
                _PANE_CACHE[key] = local
            for mat in local:
                full = mat_zero(target.rank)
                for (k, l), poly in mat.items():
                    full[tspan[0] + k][sspan[0] + l] = poly
                basis.append(Morphism(m, target, full))
    return basis


def _solve_pane(m, sspan, target, tspan):
    """A basis of the degree-0 maps from block ``sspan`` of ``m`` to block ``tspan`` of ``target``.

    Each unknown entry ``(k, l)`` is a combination of the monomials of the
    degree the grading forces, one variable per monomial.  The equations are
    the monomial coefficients of every entry of ``F A_src - A_tgt F``, one
    action at a time.  They are summed as unreduced ``(p, q, d)`` triples
    keyed by packed monomial codes (``polyring._PACKED``), the format of the
    product kernel's sums, and handed to ``linalg`` as they are, without the
    zero ones.
    """
    n = m.n
    ss, se = sspan
    ts, te = tspan
    src_deg = m.basis_degrees
    tgt_deg = target.basis_degrees
    packed = _PACKED
    exps_of: dict = {}  # degree -> its monomials
    # the unknown entries (local k, local l) by column and by row, each with
    # its slots [(packed exponent, variable index)]
    by_col: dict = {}
    by_row: dict = {}
    slots: list = []
    for k in range(te - ts):
        for l in range(se - ss):
            delta = src_deg[ss + l] - tgt_deg[ts + k]
            exps = exps_of.get(delta)
            if exps is None:
                exps = exps_of[delta] = monomial_exponents(n, delta)
            if exps:
                variables = [(packed[exp], len(slots) + i) for i, exp in enumerate(exps)]
                by_col.setdefault(l, []).append((k, variables))
                by_row.setdefault(k, []).append((l, variables))
                slots.extend((k, l, exp) for exp in exps)
    rows: list = []
    for j in range(n):
        # the products of F*A_src - A_tgt*F: (entry (k, l), the unknown
        # entry's slots, the known entry's (packed exponent, triple) terms)
        products: list = []
        for mm in range(se - ss):
            unknowns = by_col.get(mm)
            if not unknowns:
                continue
            for l, a in sorted(m.actions[j][ss + mm].items()):
                terms = _sums_of(a.terms).items()
                products += [((k, l - ss), variables, terms) for k, variables in unknowns]
        for k in range(te - ts):
            for mm, b in sorted(target.actions[j][ts + k].items()):
                unknowns = by_row.get(mm - ts)
                if unknowns:
                    terms = [(code, (-p, -q, d)) for code, (p, q, d) in _sums_of(b.terms).items()]
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
    kernel = linalg.kernel_basis(rows, len(slots))
    out = []
    for vec in kernel:
        entries: dict = {}
        for var, coeff in vec.items():
            k, l, exp = slots[var]
            poly = entries.get((k, l))
            if poly is None:
                poly = entries[(k, l)] = Poly(n)
            poly.terms[exp] = reduced(*coeff)
        out.append(entries)
    return out
