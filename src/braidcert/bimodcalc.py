"""Matrix presentations of Soergel-type bimodules and their morphisms.

A bimodule is presented as a free left module of finite rank over the
polynomial ring, with the right multiplication by each variable recorded as a
matrix in the chosen left basis.  Matrices act on coordinate columns:
``column l`` of ``right_action(j)`` holds the coordinates of
``basis[l] * X_j``, so the entry in row ``k``, column ``l`` is homogeneous of
degree ``deg[l] + 2 - deg[k]``.

A matrix is a list of rows, one per target basis element, and each row is a
``{column: Poly}`` dict, the row format ``linalg`` uses for scalars.  No zero
polynomial is ever stored, so two matrices are equal exactly when ``==`` says
so, and every routine below visits only the stored entries.  Nothing in a
matrix records its column count: that is the rank of the source, which the
``Morphism`` or ``Bimodule`` holding the matrix carries.  Dense lists of
lists appear only in ``from_dense``, for literal matrices, and at the JSON
boundary of certificates.

The two building blocks are the twisted bimodule ``R_w`` (rank one, right
action through the word ``w``) and ``B_t`` for a reflection ``t`` (rank two
with basis ``{1 (x) 1, 1 (x) root}``, right action computed by Demazure
decomposition).  Tensor products stay free with the structured Kronecker
action, so every morphism question is finite-dimensional linear algebra over
Q(sqrt2).
"""

from __future__ import annotations

from functools import lru_cache
from operator import add
from typing import Sequence

from . import coxeter, linalg
from .coxeter import Reflection, demazure_decompose, make_reflection
from .polyring import Poly, _from_sums, _mul_into, format_poly, monomial_exponents
from .scalars import ZERO, QSqrt2

Matrix = list  # list of {column: non-zero Poly} rows

MINUS_ONE = QSqrt2(-1)


@lru_cache(maxsize=None)
def _zero(n: int) -> Poly:
    return Poly.zero(n)


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


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product ``a * b``; each output entry is one ``Poly``, built once.

    The term products of every ``a[i][k] * b[k][j]`` go into one
    ``polyring._mul_into`` dict per entry ``(i, j)``; ``_from_sums`` then
    builds the entry and an entry that cancelled to zero is not stored.
    """
    out = []
    for ai in a:
        sums: dict = {}
        for k, aik in ai.items():
            n, t1 = aik.n, aik.terms
            for j, bkj in b[k].items():
                acc = sums.get(j)
                if acc is None:
                    acc = sums[j] = {}
                _mul_into(acc, t1, bkj.terms)
        out.append({j: p for j, acc in sums.items() if (p := _from_sums(n, acc))})
    return out


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    out = [dict(row) for row in a]
    for oi, bi in zip(out, b):
        for j, y in bi.items():
            _add_into(oi, j, y)
    return out


def mat_scale(a: Matrix, c) -> Matrix:
    return [{j: y for j, x in row.items() if (y := x.scale(c))} for row in a]


def mat_residuals(a: Matrix, b: Matrix) -> list:
    """``(row, col, residual a - b)`` for every entry where ``a`` and ``b`` differ.

    Row-major, with the columns of each row ascending.
    """
    out = []
    for i, (ra, rb) in enumerate(zip(a, b)):
        for j in sorted(ra.keys() | rb.keys()):
            x, y = ra.get(j), rb.get(j)
            if x is None:
                out.append((i, j, format_poly(-y)))
            elif y is None:
                out.append((i, j, format_poly(x)))
            elif x != y:
                out.append((i, j, format_poly(x - y)))
    return out


def mat_paste(big: Matrix, block: Matrix, row_off: int, col_off: int) -> None:
    """Copy the entries of ``block`` into ``big`` at the given offsets."""
    for i, row in enumerate(block):
        big[row_off + i].update((col_off + j, e) for j, e in row.items())


def id_tensor(left: Bimodule, matrix: Matrix, cols: int) -> Matrix:
    """Matrix of ``id (x) g`` for ``g`` given by ``matrix`` with ``cols`` columns.

    The entries of ``matrix`` cross ``left``.  Basis element ``a (x) b`` sits
    at index ``a * rank_b + b`` on both sides, so every output entry comes
    from exactly one entry of ``matrix``.
    """
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


def affine_slots(terms) -> dict:
    """The left-hand sides of "a sum of coefficient-weighted matrices = target".

    ``terms`` holds ``(variable, matrix)`` pairs; a term that is subtracted
    carries the minus sign in its matrix.  Returns one equation
    ``{variable: coefficient}`` per (row, column, monomial) slot that some
    term touches.  Slot dicts over disjoint variables add by merging their
    equations.
    """
    slots: dict = {}
    for var, matrix in terms:
        for a, row in enumerate(matrix):
            for b, poly in row.items():
                for mono, coeff in poly.terms.items():
                    eq = slots.get((a, b, mono))
                    if eq is None:
                        slots[(a, b, mono)] = {var: coeff}
                        continue
                    cur = eq.get(var)
                    if cur is None:
                        eq[var] = coeff
                    else:
                        cur = cur + coeff
                        if cur:
                            eq[var] = cur
                        else:
                            del eq[var]
    return slots


def affine_rows(slots: dict, target: Matrix | None = None) -> tuple:
    """The equations ``slots`` (see ``affine_slots``) with right-hand side ``target``.

    ``target=None`` stands for the zero matrix.  There is one equation per
    slot, in sorted slot order; slots that read ``0 = 0`` are skipped.
    Returns the parallel lists ``(rows, rhs)``; the rows are ``slots``' own
    dicts, not copies.
    """
    slots = dict(slots)
    for a, row in enumerate(target or ()):
        for b, poly in row.items():
            for mono in poly.terms:
                slots.setdefault((a, b, mono), {})
    rows: list = []
    rhs: list = []
    for (a, b, mono), eq in sorted(slots.items()):
        want = target[a][b].coefficient(mono) if target and b in target[a] else ZERO
        if eq or want:
            rows.append(eq)
            rhs.append(want)
    return rows, rhs


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

    def __hash__(self) -> int:
        return hash((self.n, self.basis_degrees))

    def __repr__(self) -> str:
        return f"Bimodule(rank={self.rank}, degrees={list(self.basis_degrees)})"

    def _monomial_action(self, exp: tuple) -> Matrix:
        cached = self._monomial_cache.get(exp)
        if cached is not None:
            return cached
        result = mat_identity(self.rank, self.n)
        for j, e in enumerate(exp):
            for _ in range(e):
                result = mat_mul(self.actions[j], result)
        self._monomial_cache[exp] = result
        return result

    def action_of(self, p: Poly) -> Matrix:
        """Right multiplication by an arbitrary polynomial, in the left basis."""
        out = mat_zero(self.rank)
        for exp, c in p.terms.items():
            for oi, row in zip(out, self._monomial_action(exp)):
                for j, x in row.items():
                    _add_into(oi, j, x.scale(c))
        return out

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
    word = tuple(word)
    actions = [[{0: coxeter.act(word, Poly.variable(n, j))}] for j in range(n)]
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
    if p == 0:
        return m
    return Bimodule(m.n, [d + p for d in m.basis_degrees], m.actions, m.block_spans)


def tensor(m: Bimodule, other: Bimodule) -> Bimodule:
    """Tensor over the ring; the right action crosses the second factor first.

    ``(x (x) y) * X_j`` expands ``y * X_j`` in the second factor and moves the
    resulting polynomial coefficients through the first factor with its own
    right-action matrices.
    """
    if m.n != other.n:
        raise ValueError("bimodules over different variable counts")
    n = m.n
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
    return Bimodule(n, degrees, actions, spans)


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
    rank = len(degrees)
    actions = []
    for j in range(n):
        t = mat_zero(rank)
        for p, off in zip(parts, offsets):
            mat_paste(t, p.actions[j], off, off)
        actions.append(t)
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
    def identity(cls, m: Bimodule) -> "Morphism":
        return cls(m, m, mat_identity(m.rank, m.n))

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
            lhs = mat_mul(self.matrix, src.actions[j])
            rhs = mat_mul(tgt.actions[j], self.matrix)
            failures += [(f"action X{j}", *w) for w in mat_residuals(lhs, rhs)]
        return failures

    def compose(self, other: "Morphism") -> "Morphism":
        """``self`` after ``other``."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition shape mismatch")
        return Morphism(other.source, self.target, mat_mul(self.matrix, other.matrix))

    def __add__(self, other: "Morphism") -> "Morphism":
        return Morphism(self.source, self.target, mat_add(self.matrix, other.matrix))

    def scale(self, c) -> "Morphism":
        return Morphism(self.source, self.target, mat_scale(self.matrix, c))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Morphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )

    def __repr__(self) -> str:
        return f"Morphism({self.source!r} -> {self.target!r})"

    # -- graded inversion ---------------------------------------------------

    def graded_inverse(self) -> "Morphism | None":
        """Two-sided inverse of a degree-0 morphism, or None.

        The constant terms form a matrix ``D`` that pairs basis elements of
        equal degree, and ``F`` is invertible exactly when ``D`` is.  Then
        ``S = I - D^-1 F`` strictly raises degree, so ``S^m = 0`` for ``m``
        distinct basis degrees and ``F^-1 = (I + S + ... + S^(m-1)) D^-1``.
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
        if mat_mul(inverse, self.matrix) != ident or mat_mul(self.matrix, inverse) != ident:
            return None
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
    for tspan in target.block_spans:
        for sspan in m.block_spans:
            key = (m.n, _pane_signature(m, sspan), _pane_signature(target, tspan))
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
    n = m.n
    ss, se = sspan
    ts, te = tspan
    src_deg = m.basis_degrees
    tgt_deg = target.basis_degrees
    # unknown slots per entry: (local k, local l) -> [(exponent, variable index)]
    entry_vars: dict = {}
    slots: list = []
    for k in range(te - ts):
        for l in range(se - ss):
            delta = src_deg[ss + l] - tgt_deg[ts + k]
            exps = monomial_exponents(n, delta)
            if exps:
                entry_vars[(k, l)] = [(exp, len(slots) + i) for i, exp in enumerate(exps)]
                slots.extend((k, l, exp) for exp in exps)
    if not slots:
        return []
    rows: list = []
    for j in range(n):
        # (local k, local l) -> entry (k, l) of F*A_src - A_tgt*F, expanded over monomials
        eqs: dict = {}
        for mm in range(se - ss):
            for l, a in sorted(m.actions[j][ss + mm].items()):
                for k in range(te - ts):
                    _accumulate(eqs.setdefault((k, l - ss), {}), entry_vars.get((k, mm)), a)
        for k in range(te - ts):
            for mm, b in sorted(target.actions[j][ts + k].items()):
                minus_b = -b
                for l in range(se - ss):
                    _accumulate(eqs.setdefault((k, l), {}), entry_vars.get((mm - ts, l)), minus_b)
        for kl in sorted(eqs):
            rows += [row for row in eqs[kl].values() if row]
    kernel = linalg.kernel_basis(rows, len(slots))
    out = []
    for vec in kernel:
        entries: dict = {}
        for var, coeff in vec.items():
            k, l, exp = slots[var]
            poly = entries.get((k, l))
            term = Poly.monomial(exp, coeff)
            entries[(k, l)] = term if poly is None else poly + term
        out.append({kl: p for kl, p in entries.items() if p})
    return out


def _accumulate(eq, variables, known_poly):
    """Add ``known_poly * (unknown entry)`` to the residual equations."""
    if not variables:
        return
    terms = known_poly.terms.items()
    for exp, var in variables:
        for aexp, c in terms:
            mono = tuple(map(add, exp, aexp))
            row = eq.get(mono)
            if row is None:
                eq[mono] = {var: c}
                continue
            prev = row.get(var)
            if prev is None:
                row[var] = c
            else:
                c = prev + c
                if c:
                    row[var] = c
                else:
                    del row[var]


# -- named isomorphisms -----------------------------------------------------------
#
# The paper's bimodule-level isomorphisms, all from one constructor whose
# result is checked to be a bimodule map with a graded inverse, never trusted.


def unit_anchored(src: Bimodule, tgt: Bimodule, images: Sequence[Poly]) -> Morphism:
    """The left-linear map sending source basis element ``i`` to ``unit * images[i]``.

    Basis element 0 is the unit, so column ``i`` is column 0 of
    ``tgt.action_of(images[i])``.
    """
    matrix = mat_zero(tgt.rank)
    for i, p in enumerate(images):
        for row, acted in zip(matrix, tgt.action_of(p)):
            if 0 in acted:
                row[i] = acted[0]
    return Morphism(src, tgt, matrix)


def _checked_iso(forward: Morphism, name: str) -> tuple:
    """``(forward, inverse)``, or ``ValueError`` unless ``forward`` is an invertible bimodule map."""
    failures = forward.morphism_failures()
    if failures:
        raise ValueError(f"{name} is not a bimodule map: {failures[:3]}")
    inverse = forward.graded_inverse()
    if inverse is None:
        raise ValueError(f"{name} is not invertible")
    return forward, inverse


def iso_swap_Rw(word, t: Reflection, n: int):
    """The swap ``R_w (x) B_t -> B_{w t w^-1} (x) R_w``, with its inverse.

    On elements the map sends ``a (x) b`` to ``a (x) w(b)``: it fixes the unit
    and the source basis is ``{unit, unit * root_t}``.
    """
    word = tuple(word)
    src = tensor(bimodule_Rw(word, n), bimodule_Bs(t))
    t2 = make_reflection(word + t.word + tuple(reversed(word)), n)
    tgt = tensor(bimodule_Bs(t2), bimodule_Rw(word, n))
    return _checked_iso(unit_anchored(src, tgt, [_one(n), t.root]), "the swap")


def _exchange(a: tuple, b: tuple, n: int, name: str) -> tuple:
    """``B_a (x) B_b -> B_b (x) B_a`` sending ``1 (x) alpha_a (x) 1`` to ``1 (x) 1 (x) alpha_a``.

    It fixes the unit; ``alpha_a`` is the root of ``a``.  Needs n >= 3 (the
    defining data lives in three variables).  Returns ``(forward, inverse)``.
    """
    if n < 3:
        raise ValueError(f"{name} needs at least three variables")
    ta, tb = make_reflection(a, n), make_reflection(b, n)
    src = tensor(bimodule_Bs(ta), bimodule_Bs(tb))
    tgt = tensor(bimodule_Bs(tb), bimodule_Bs(ta))
    images = [_one(n), tb.root, ta.root, ta.root * tb.root]
    return _checked_iso(unit_anchored(src, tgt, images), name)


def phi(n: int) -> Morphism:
    """The degree-0 isomorphism ``B_{s0} (x) B_{s1 s0 s1} -> B_{s1 s0 s1} (x) B_{s0}``."""
    return _exchange((0,), (1, 0, 1), n, "phi")[0]


def middle_coords(m: Bimodule, t_first: Reflection, p: Poly) -> list:
    """Coordinates of ``1 (x) p (x) 1`` in a two-factor tensor of rank-2 pieces.

    ``t_first`` is the reflection of the first factor; splitting ``p`` over
    its invariants moves the invariant part to the far left.
    """
    if m.rank != 4:
        raise ValueError("middle insertion needs a rank-4 two-factor tensor")
    p0, p1 = demazure_decompose(t_first, p)
    coords = [_zero(m.n)] * 4
    coords[0] = p0
    coords[2] = p1
    return coords


def psi(n: int):
    """The mirror of ``phi``, ``B_{s1} (x) B_{s0 s1 s0} -> B_{s0 s1 s0} (x) B_{s1}``, with its inverse."""
    return _exchange((1,), (0, 1, 0), n, "psi")
