"""Exact sparse linear algebra over Q(sqrt2), on int triples.

An entry is a triple of ints ``(p, q, d)``, meaning ``(p + q*sqrt2)/d`` with
``d > 0``, and a row is a ``{column: triple}`` dict that stores no zero.
``kernel_basis``, ``span_basis`` and ``solve_affine`` take and return such
rows.  An entry they take need not be in lowest terms, so the callers hand
over the unreduced sums of ``polyring``'s product kernel as they are; every entry
the eliminator stores, and so every entry it returns, is in lowest terms
(``scalars.reduced_triple``, the one normalisation).  A returned entry is
a polynomial coefficient as it stands: ``Poly`` stores the same triples.
``dense_rank`` and ``dense_inverse`` take small dense ``QSqrt2`` matrices
and convert at the boundary.

One eliminator, ``_Echelon``, sits behind the five entry points.  It keeps
the reduced row-echelon form of the rows inserted so far, choosing each
pivot as the smallest column left in an incoming row.  The reduced
row-echelon form of a row space is unique, so every output (kernel vectors,
with free columns ascending; the solution with free variables at 0; the
rank; the inverse) is canonical: it does not depend on the order in which
rows are inserted, only the running time does.  ``span_basis`` runs it on
reversed columns: given any spanning set of a kernel, it returns the vectors
``kernel_basis`` returns for that kernel.

So ``_Echelon`` inserts its rows sparsest first (a stable sort on the number
of non-zero entries, in the spirit of Markowitz's ordering).  Sparse rows
make sparse pivot rows, which keep the fill-in of every later reduction
small.

A pivot row is 1 at its pivot column, so ``_Echelon`` keeps only the rest
of it.  Reducing a row against a pivot pops the row's entry ``f`` at the
pivot column and subtracts ``f`` times the rest, in one fused row update,
``_sub_multiple`` (``row -= f * rest`` in ints, with one normalisation per
entry).  Adopting a pivot row reduces the live rows that hold its column
against it, and only those: ``_Echelon.holders`` maps each column to the
live rows that hold it.  Only the columns of the new row can fill in or
cancel in a live row reduced against it, so ``insert`` updates the index
for those columns alone.

Dead columns.  A pivot row with one entry, ``{c: (1, 0, 1)}``, says only
``x_c = 0``.  Its rest is empty and its column is dead: reducing a row
against it only deletes the row's entry at ``c``, and keeping the other
pivot rows reduced against it only deletes theirs.  The other pivot rows
are live.  Only they take part in row updates, and only they are read back
for kernel vectors and solutions, since a dead row has no entry at a free
column.  A live row whose rest the updates empty becomes dead.  This is the
singleton-column step of structured Gaussian elimination (LaMacchia and
Odlyzko, "Solving large sparse linear systems over finite fields", 1990).
"""

from __future__ import annotations

from collections import defaultdict

from .scalars import ZERO, inverse_triple, reduced, reduced_triple

Row = dict

UNIT = (1, 0, 1)


class _Echelon:
    """Incrementally maintained reduced row-echelon collection.

    ``pivots`` maps every pivot column, in the order the rows were adopted,
    to the rest of its normalized row: the row without its pivot entry,
    which is 1.  A dead column's rest is empty.  ``live`` holds the columns
    whose rest is not, in the same order.  No rest holds a pivot column.
    ``holders`` maps each column to the pivot columns of the live rests
    that hold it, so that adopting a pivot visits only those rests.
    """

    def __init__(self, rows=()) -> None:
        self.pivots: dict = {}  # pivot column -> the rest of its normalized row
        self.live: dict = {}  # the same, for the rests that are not empty
        self.holders: dict = defaultdict(set)  # column -> {pivot column of a live rest holding it}
        for row in sorted(rows, key=len):  # sparsest first; see the module doc
            self.insert(row)

    def reduce(self, row: Row) -> Row:
        """Reduce ``row`` against the current pivots (row is consumed).

        One pass is enough: no rest holds a pivot column, so subtracting one
        never brings a pivot column back.
        """
        pivots, live = self.pivots, self.live
        for col in [c for c in row if c in pivots]:
            factor = row.pop(col)
            rest = live.get(col)
            if rest is not None:
                _sub_multiple(row, factor, rest)
        return row

    def insert(self, row: Row) -> bool:
        """Reduce and, if nonzero, normalize and adopt as a new pivot row."""
        row = self.reduce(row)
        if not row:
            return False
        col = min(row)
        ip, iq, id_ = inverse_triple(*row.pop(col))
        iq2 = 2 * iq
        rest = {c: reduced_triple(p * ip + q * iq2, p * iq + q * ip, d * id_) for c, (p, q, d) in row.items()}
        # keep the live rows that hold the new pivot column fully reduced
        # against the new row; a live row whose rest empties is dead
        live, holders = self.live, self.holders
        for pcol in holders.pop(col, ()):
            prest = live[pcol]
            _sub_multiple(prest, prest.pop(col), rest)
            for c in rest:
                if c in prest:
                    holders[c].add(pcol)
                else:
                    holders[c].discard(pcol)
            if not prest:
                del live[pcol]
        self.pivots[col] = rest
        if rest:
            live[col] = rest
            for c in rest:
                holders[c].add(col)
        return True


def _sub_multiple(row: Row, factor: tuple, pivot: Row) -> None:
    """``row -= factor * pivot`` in place; entries that cancel are deleted.

    Each entry is one int computation and one ``reduced_triple``: the
    product ``factor * v`` stays unreduced and is subtracted from the
    current entry before the only gcd.  ``factor`` and the pivot entries are
    non-zero, so an entry the row lacks never cancels.
    """
    fp, fq, fd = factor
    fq2 = 2 * fq
    get = row.get
    for c, (vp, vq, vd) in pivot.items():
        pp = fp * vp + fq2 * vq
        pq = fp * vq + fq * vp
        pd = fd * vd
        cur = get(c)
        if cur is None:
            row[c] = reduced_triple(-pp, -pq, pd)
            continue
        cp, cq, cd = cur
        if cd == pd:
            p, q = cp - pp, cq - pq
        else:
            p, q, pd = cp * pd - pp * cd, cq * pd - pq * cd, cd * pd
        if p or q:
            row[c] = reduced_triple(p, q, pd)
        else:
            del row[c]


def kernel_basis(rows, ncols: int) -> list:
    """Basis of ``{x : A x = 0}`` as column->triple dicts, free columns ascending.

    Each basis vector is 1 at its free column and ``-A'[p][free]`` at the
    pivot column ``p`` of each live row of the echelon form ``A'`` that
    holds the free column; a dead row holds none.
    """
    ech = _Echelon(dict(row) for row in rows)
    vectors = {free: {free: UNIT} for free in range(ncols) if free not in ech.pivots}
    for pcol, rest in ech.live.items():
        for c, (p, q, d) in rest.items():
            vectors[c][pcol] = (-p, -q, d)
    return list(vectors.values())


def span_basis(vectors, ncols: int) -> list:
    """The basis ``kernel_basis`` returns for any system whose kernel is the span of ``vectors``.

    That basis is 1 at its free column and 0 at the others, free columns
    ascending.  The free columns of ``A`` complement the lexicographically
    first basis of its column matroid, so they are the lexicographically
    last basis of the dual matroid, which is the column matroid of any
    spanning set of ``ker A``.  An echelon form that pivots at the largest
    column left in each row picks exactly that basis, so ``_Echelon`` runs
    on the reversed columns ``ncols - 1 - c`` and its reduced rows, read
    back, are the kernel vectors.
    """
    top = ncols - 1
    ech = _Echelon({top - c: x for c, x in vec.items()} for vec in vectors)
    return [
        {top - pcol: UNIT, **{top - c: x for c, x in ech.pivots[pcol].items()}}
        for pcol in sorted(ech.pivots, reverse=True)
    ]


def solve_affine(rows, rhs) -> Row | None:
    """One solution of ``A x = b`` (free variables set to 0), or None.

    ``rows`` and ``rhs`` are parallel sequences; each row is a column dict and
    each rhs entry a triple, ``(0, 0, 1)`` for zero.  The solution is read
    from the live rows: a dead row sets its variable to 0.
    """
    ech = _Echelon(
        {**row, _RHS_COL: (-b[0], -b[1], b[2])} if b[0] or b[1] else dict(row) for row, b in zip(rows, rhs)
    )
    if _RHS_COL in ech.pivots:
        return None  # inconsistent: a row reduced to 0 = nonzero
    solution: Row = {}
    for pcol, rest in ech.live.items():
        b = rest.get(_RHS_COL)
        if b is not None:
            solution[pcol] = (-b[0], -b[1], b[2])
    return solution


# real columns are non-negative ints; the RHS rides along in a column that
# sorts after all of them so it can never be chosen as a pivot before a
# variable column that is still present.
_RHS_COL = float("inf")


def dense_inverse(matrix) -> list | None:
    """Inverse of a small dense QSqrt2 matrix (list of lists), or None.

    ``[A | I]`` always has rank m; A is invertible exactly when its reduced
    echelon form has pivots in columns ``0..m-1``, and then the right half
    of that form is the inverse.
    """
    m = len(matrix)
    if any(len(r) != m for r in matrix):
        return None
    pivots = _Echelon(
        {**_sparse(row), m + i: UNIT} for i, row in enumerate(matrix)
    ).pivots
    if any(i not in pivots for i in range(m)):
        return None
    return [[reduced(*pivots[i][m + j]) if m + j in pivots[i] else ZERO for j in range(m)] for i in range(m)]


def dense_rank(matrix) -> int:
    return len(_Echelon(_sparse(row) for row in matrix).pivots)


def _sparse(row) -> Row:
    return {j: (v.p, v.q, v.d) for j, v in enumerate(row) if v}

