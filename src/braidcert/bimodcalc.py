"""Matrix presentations of Soergel-type bimodules and their morphisms.

A bimodule is presented as a free left module of finite rank over the
polynomial ring, with the right multiplication by each variable recorded as a
matrix in the chosen left basis.  Matrices act on coordinate columns:
``column l`` of ``right_action(j)`` holds the coordinates of
``basis[l] * X_j``, so the entry in row ``k``, column ``l`` is homogeneous of
degree ``deg[l] + 2 - deg[k]``.

The two building blocks are the twisted bimodule ``R_w`` (rank one, right
action through the word ``w``) and ``B_t`` for a reflection ``t`` (rank two
with basis ``{1 (x) 1, 1 (x) root}``, right action computed by Demazure
decomposition).  Tensor products stay free with the structured Kronecker
action, so every morphism question is finite-dimensional linear algebra over
Q(sqrt2).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from . import coxeter, linalg
from .coxeter import Reflection, demazure_decompose, make_reflection
from .polyring import Poly, format_poly, monomial_exponents
from .scalars import ONE, ZERO, QSqrt2

Matrix = list  # list of rows of Poly


@lru_cache(maxsize=None)
def _zero(n: int) -> Poly:
    return Poly.zero(n)


@lru_cache(maxsize=None)
def _one(n: int) -> Poly:
    return Poly.one(n)


# -- polynomial matrices --------------------------------------------------------


def mat_zero(rows: int, cols: int, n: int) -> Matrix:
    z = _zero(n)
    return [[z] * cols for _ in range(rows)]


def mat_identity(rank: int, n: int) -> Matrix:
    z, o = _zero(n), _one(n)
    return [[o if i == j else z for j in range(rank)] for i in range(rank)]


def mat_mul(a: Matrix, b: Matrix, n: int) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[_zero(n)] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if not aik:
                continue
            bk = b[k]
            for j in range(cols):
                if bk[j]:
                    oi[j] = oi[j] + aik * bk[j]
    return out


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, c) -> Matrix:
    return [[x.scale(c) if x else x for x in row] for row in a]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def mat_residuals(a: Matrix, b: Matrix) -> list:
    """``(row, col, residual a - b)`` for every entry where ``a`` and ``b`` differ, row-major."""
    return [
        (i, j, format_poly(x - y))
        for i, (ra, rb) in enumerate(zip(a, b))
        for j, (x, y) in enumerate(zip(ra, rb))
        if x != y
    ]


def mat_paste(big: Matrix, block: Matrix, row_off: int, col_off: int) -> None:
    """Copy the nonzero entries of ``block`` into ``big`` at the given offsets."""
    for i, row in enumerate(block):
        target = big[row_off + i]
        for j, entry in enumerate(row):
            if entry:
                target[col_off + j] = entry


def id_tensor(left: Bimodule, matrix: Matrix) -> Matrix:
    """Matrix of ``id (x) g`` for ``g`` given by ``matrix``; its entries cross ``left``.

    Basis element ``a (x) b`` sits at index ``a * rank_b + b`` on both sides.
    """
    n = left.n
    rl = left.rank
    tr, sr = len(matrix), len(matrix[0]) if matrix else 0
    out = mat_zero(rl * tr, rl * sr, n)
    for b2 in range(tr):
        for b in range(sr):
            entry = matrix[b2][b]
            if not entry:
                continue
            crossed = left.action_of(entry)
            for a2 in range(rl):
                row = crossed[a2]
                orow = out[a2 * tr + b2]
                for a in range(rl):
                    if row[a]:
                        orow[a * sr + b] = orow[a * sr + b] + row[a]
    return out


def affine_slots(terms) -> dict:
    """The left-hand sides of "a sum of coefficient-weighted matrices = target".

    ``terms`` holds ``(variable, matrix, sign)`` triples.  Returns one
    equation ``{variable: coefficient}`` per (row, column, monomial) slot that
    some term touches.  Slot dicts over disjoint variables add by merging
    their equations.
    """
    slots: dict = {}
    for var, matrix, sign in terms:
        for a, row in enumerate(matrix):
            for b, poly in enumerate(row):
                if not poly:
                    continue
                for mono, coeff in poly.terms.items():
                    eq = slots.setdefault((a, b, mono), {})
                    cur = eq.get(var)
                    add = coeff * sign
                    cur = add if cur is None else cur + add
                    if cur:
                        eq[var] = cur
                    else:
                        eq.pop(var, None)
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
        for b, poly in enumerate(row):
            for mono in poly.terms:
                slots.setdefault((a, b, mono), {})
    rows: list = []
    rhs: list = []
    for (a, b, mono), eq in sorted(slots.items()):
        want = target[a][b].coefficient(mono) if target else ZERO
        if eq or want:
            rows.append(eq)
            rhs.append(want)
    return rows, rhs


def mat_vec(a: Matrix, v: Sequence[Poly], n: int) -> list:
    out = []
    for row in a:
        acc = _zero(n)
        for x, y in zip(row, v):
            if x and y:
                acc = acc + x * y
        out.append(acc)
    return out


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
            and all(mat_eq(a, b) for a, b in zip(self.actions, other.actions))
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
                result = mat_mul(self.actions[j], result, self.n)
        self._monomial_cache[exp] = result
        return result

    def action_of(self, p: Poly) -> Matrix:
        """Right multiplication by an arbitrary polynomial, in the left basis."""
        out = mat_zero(self.rank, self.rank, self.n)
        for exp, c in p.terms.items():
            mono = self._monomial_action(exp)
            for i in range(self.rank):
                row = mono[i]
                oi = out[i]
                for j in range(self.rank):
                    if row[j]:
                        oi[j] = oi[j] + row[j].scale(c)
        return out

    def validate(self) -> None:
        """Check commuting right actions and the grading constraint."""
        for j, a in enumerate(self.actions):
            for k in range(self.rank):
                for l in range(self.rank):
                    entry = a[k][l]
                    if entry and not entry.is_homogeneous(
                        self.basis_degrees[l] + 2 - self.basis_degrees[k]
                    ):
                        raise ValueError(
                            f"action {j} entry ({k},{l}) = {entry} breaks the grading"
                        )
        for i in range(self.n):
            for j in range(i + 1, self.n):
                lhs = mat_mul(self.actions[i], self.actions[j], self.n)
                rhs = mat_mul(self.actions[j], self.actions[i], self.n)
                if not mat_eq(lhs, rhs):
                    raise ValueError(f"right actions {i} and {j} do not commute")


def bimodule_R(n: int) -> Bimodule:
    return Bimodule(n, [0], [[[Poly.variable(n, j)]] for j in range(n)])


def bimodule_Rw(word, n: int) -> Bimodule:
    """Rank one, with ``a`` acting on the right as multiplication by ``w(a)``."""
    word = tuple(word)
    actions = [[[coxeter.act(word, Poly.variable(n, j))]] for j in range(n)]
    return Bimodule(n, [0], actions)


def bimodule_Bs(t: Reflection) -> Bimodule:
    """Rank two with basis ``{1 (x) 1, 1 (x) root}`` over the t-invariants."""
    n = t.n
    actions = []
    for j in range(n):
        xj = Poly.variable(n, j)
        p0, q0 = demazure_decompose(t, xj)
        p1, q1 = demazure_decompose(t, xj * t.root)
        actions.append([[p0, p1], [q0, q1]])
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
    actions = [id_tensor(m, a) for a in other.actions]
    if len(other.block_spans) == 1:
        spans = [(s * ro, e * ro) for s, e in m.block_spans]
    else:
        spans = [(0, rank)]
    return Bimodule(n, degrees, actions, spans)


def tensor_many(factors: Iterable[Bimodule]) -> Bimodule:
    factors = list(factors)
    if not factors:
        raise ValueError("empty tensor product")
    out = factors[0]
    for f in factors[1:]:
        out = tensor(out, f)
    return out


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
        t = mat_zero(rank, rank, n)
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
        if len(matrix) != target.rank or any(len(r) != source.rank for r in matrix):
            raise ValueError(
                f"matrix shape {len(matrix)}x{len(matrix[0]) if matrix else 0} "
                f"does not map rank {source.rank} into rank {target.rank}"
            )
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def identity(cls, m: Bimodule) -> "Morphism":
        return cls(m, m, mat_identity(m.rank, m.n))

    @classmethod
    def zero(cls, source: Bimodule, target: Bimodule) -> "Morphism":
        return cls(source, target, mat_zero(target.rank, source.rank, source.n))

    def is_zero(self) -> bool:
        return all(not e for row in self.matrix for e in row)

    def morphism_failures(self) -> list:
        """Empty iff this is a degree-0 bimodule morphism; entries name violations."""
        failures = []
        src, tgt = self.source, self.target
        for k in range(tgt.rank):
            for l in range(src.rank):
                entry = self.matrix[k][l]
                if entry and not entry.is_homogeneous(
                    src.basis_degrees[l] - tgt.basis_degrees[k]
                ):
                    failures.append(("grading", k, l, format_poly(entry)))
        for j in range(src.n):
            lhs = mat_mul(self.matrix, src.actions[j], src.n)
            rhs = mat_mul(tgt.actions[j], self.matrix, src.n)
            failures += [(f"action X{j}", *w) for w in mat_residuals(lhs, rhs)]
        return failures

    def is_morphism(self) -> bool:
        return not self.morphism_failures()

    def compose(self, other: "Morphism") -> "Morphism":
        """``self`` after ``other``."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition shape mismatch")
        if self.source.rank == 0:
            return Morphism.zero(other.source, self.target)
        return Morphism(
            other.source, self.target, mat_mul(self.matrix, other.matrix, self.source.n)
        )

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
            and mat_eq(self.matrix, other.matrix)
        )

    def __repr__(self) -> str:
        return f"Morphism({self.source!r} -> {self.target!r})"

    def apply(self, coords: Sequence[Poly]) -> list:
        return mat_vec(self.matrix, coords, self.source.n)

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
            [[e.constant_term() for e in row] for row in self.matrix]
        )
        if d_inv is None:
            return None
        d_inv = [[Poly.constant(n, c) for c in row] for row in d_inv]
        ident = mat_identity(src.rank, n)
        s = mat_sub(ident, mat_mul(d_inv, self.matrix, n))
        inverse = d_inv
        for _ in range(len(set(src.basis_degrees)) - 1):
            inverse = mat_add(d_inv, mat_mul(s, inverse, n))
        if not mat_eq(mat_mul(inverse, self.matrix, n), ident):
            return None
        if not mat_eq(mat_mul(self.matrix, inverse, n), mat_identity(tgt.rank, n)):
            return None
        return Morphism(tgt, src, inverse)


# -- the degree-0 morphism solver ---------------------------------------------


_PANE_CACHE: dict = {}


def _pane_signature(m: Bimodule, span: tuple) -> tuple:
    s, e = span
    degs = m.basis_degrees[s:e]
    mats = tuple(
        tuple(tuple(format_poly(a[k][l]) for l in range(s, e)) for k in range(s, e))
        for a in m.actions
    )
    return (degs, mats)


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
                full = mat_zero(target.rank, m.rank, m.n)
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
    minus_one = QSqrt2(-1)
    for j in range(n):
        am = m.actions[j]
        at = target.actions[j]
        for k in range(te - ts):
            for l in range(se - ss):
                # residual entry (k, l) of F*A_src - A_tgt*F, expanded over monomials
                eq: dict = {}
                for mm in range(se - ss):
                    a = am[ss + mm][ss + l]
                    if a:
                        _accumulate(eq, entry_vars.get((k, mm)), a, ONE)
                for mm in range(te - ts):
                    b = at[ts + k][ts + mm]
                    if b:
                        _accumulate(eq, entry_vars.get((mm, l)), b, minus_one)
                for row in eq.values():
                    if row:
                        rows.append(row)
    kernel = linalg.kernel_basis(rows, len(slots))
    out = []
    for vec in kernel:
        entries: dict = {}
        for var, coeff in vec.items():
            k, l, exp = slots[var]
            poly = entries.get((k, l))
            add = Poly.monomial(exp, coeff)
            entries[(k, l)] = add if poly is None else poly + add
        out.append({kl: p for kl, p in entries.items() if p})
    return out


def _accumulate(eq, variables, known_poly, sign):
    """Add ``sign * known_poly * (unknown entry)`` to the residual equations."""
    if not variables:
        return
    for exp, var in variables:
        for aexp, ac in known_poly.terms.items():
            mono = tuple(x + y for x, y in zip(exp, aexp))
            row = eq.setdefault(mono, {})
            c = ac * sign
            prev = row.get(var)
            c = c if prev is None else prev + c
            if c:
                row[var] = c
            else:
                row.pop(var, None)


# -- named isomorphisms -----------------------------------------------------------


def iso_swap_Rw(word, t: Reflection, n: int):
    """The swap ``R_w (x) B_t -> B_{w t w^-1} (x) R_w``, with its inverse.

    On elements the map sends ``a (x) b`` to ``a (x) w(b)``; on the chosen
    bases that is Demazure bookkeeping because the conjugate reflection's
    root is exactly ``w(root of t)``.
    """
    word = tuple(word)
    src = tensor(bimodule_Rw(word, n), bimodule_Bs(t))
    conj_word = word + t.word + tuple(reversed(word))
    t2 = make_reflection(conj_word, n)
    tgt = tensor(bimodule_Bs(t2), bimodule_Rw(word, n))
    image_of_root = coxeter.act(word, t.root)
    p, q = demazure_decompose(t2, image_of_root)
    matrix = [
        [_one(n), p],
        [_zero(n), q],
    ]
    forward = Morphism(src, tgt, matrix)
    failures = forward.morphism_failures()
    if failures:
        raise ValueError(f"swap map is not a morphism: {failures[:3]}")
    inverse = forward.graded_inverse()
    if inverse is None:
        raise ValueError("swap map is not invertible")
    return forward, inverse


def _unit_column(m: Bimodule) -> list:
    """Coordinates of the everywhere-1 basis element (index 0 by construction)."""
    col = [_zero(m.n)] * m.rank
    col[0] = _one(m.n)
    return col


def phi(n: int):
    """The degree-0 isomorphism ``B_{s0} (x) B_{s1 s0 s1} -> B_{s1 s0 s1} (x) B_{s0}``.

    Anchored to its two defining values ``1(x)1(x)1 -> 1(x)1(x)1`` and
    ``1(x)X0(x)1 -> 1(x)1(x)X0`` and extended by right-linearity over the
    second factor's basis; everything else about it is then forced.
    Undefined for n = 2 in this anchored form (the defining data lives in
    three variables).
    """
    if n < 3:
        raise ValueError("phi needs at least three variables")
    t0 = make_reflection((0,), n)
    t101 = make_reflection((1, 0, 1), n)
    src = tensor(bimodule_Bs(t0), bimodule_Bs(t101))
    tgt = tensor(bimodule_Bs(t101), bimodule_Bs(t0))
    act_beta = tgt.action_of(t101.root)
    act_x0 = tgt.action_of(Poly.variable(n, 0))
    col0 = _unit_column(tgt)
    col1 = mat_vec(act_beta, col0, n)
    col2 = mat_vec(act_x0, col0, n)
    col3 = mat_vec(act_beta, col2, n)
    matrix = [[col0[k], col1[k], col2[k], col3[k]] for k in range(4)]
    morphism = Morphism(src, tgt, matrix)
    failures = morphism.morphism_failures()
    if failures:
        raise ValueError(f"phi failed the bimodule-map check: {failures[:3]}")
    return morphism


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
    """An invertible degree-0 morphism ``B_{s1} (x) B_{s0 s1 s0} -> B_{s0 s1 s0} (x) B_{s1}``.

    Found by the solver inside the unit-preserving affine slice of the
    degree-0 morphism space, then inverted and verified.
    """
    if n < 3:
        raise ValueError("psi needs at least three variables")
    t1 = make_reflection((1,), n)
    t010 = make_reflection((0, 1, 0), n)
    src = tensor(bimodule_Bs(t1), bimodule_Bs(t010))
    tgt = tensor(bimodule_Bs(t010), bimodule_Bs(t1))
    forward = find_unit_preserving_iso(src, tgt)
    if forward is None:
        raise RuntimeError("no unit-preserving isomorphism found for psi")
    inverse = forward.graded_inverse()
    return forward, inverse


def find_unit_preserving_iso(src: Bimodule, tgt: Bimodule):
    """Search the degree-0 morphism space for an invertible unit-preserving map."""
    basis = solve_morphisms(src, tgt)
    if not basis:
        return None
    # affine constraint: column 0 of the combination equals the unit column
    rows, rhs = affine_rows(
        affine_slots([(i, [row[:1] for row in b.matrix], ONE) for i, b in enumerate(basis)]),
        [[u] for u in _unit_column(tgt)],
    )
    particular = linalg.solve_affine(rows, rhs)
    if particular is None:
        return None
    kernel = linalg.kernel_basis(rows, len(basis))

    def build(coeffs: dict):
        return sum(
            (basis[i].scale(c) for i, c in coeffs.items() if c), Morphism.zero(src, tgt)
        )

    def combos():
        yield dict(particular)
        for k in kernel:
            for sgn in (ONE, QSqrt2(-1)):
                combo = dict(particular)
                for i, c in k.items():
                    combo[i] = combo.get(i, QSqrt2(0)) + c * sgn
                yield combo

    for coeffs in combos():
        candidate = build(coeffs)
        if candidate.graded_inverse() is not None and candidate.is_morphism():
            return candidate
    return None
