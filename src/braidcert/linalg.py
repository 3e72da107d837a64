"""Exact sparse linear algebra over Q(sqrt2).

Rows are ``{column index: QSqrt2}`` dicts.  One eliminator, ``_Echelon``,
sits behind four entry points: ``kernel_basis``, ``solve_affine``,
``dense_rank`` and ``dense_inverse``.  It keeps the reduced row-echelon form
of the rows inserted so far, choosing each pivot as the smallest column left
in an incoming row.  The reduced row-echelon form of a row space is unique,
so every output (kernel vectors, with free columns ascending; the solution
with free variables at 0; the rank; the inverse) is canonical: it does not
depend on the order in which rows are inserted, only the running time does.

So ``_Echelon`` inserts its rows sparsest first (a stable sort on the number
of non-zero entries, in the spirit of Markowitz's ordering).  Sparse rows
make sparse pivot rows, which keep the fill-in of every later reduction
small.
"""

from __future__ import annotations

from .scalars import ONE, ZERO

Row = dict


class _Echelon:
    """Incrementally maintained reduced row-echelon collection."""

    def __init__(self, rows=()) -> None:
        self.pivots: dict = {}  # pivot column -> normalized row
        for row in sorted(rows, key=len):  # sparsest first; see the module doc
            self.insert(row)

    def reduce(self, row: Row) -> Row:
        """Reduce ``row`` against the current pivots (row is consumed).

        One pass is enough: ``insert`` keeps every pivot row free of the other
        pivot columns, so subtracting one never brings a pivot column back.
        """
        for col in sorted(c for c in row if c in self.pivots):
            factor = row[col]
            for c, v in self.pivots[col].items():
                cur = row.get(c)
                cur = -factor * v if cur is None else cur - factor * v
                if cur:
                    row[c] = cur
                else:
                    row.pop(c, None)
        return row

    def insert(self, row: Row) -> bool:
        """Reduce and, if nonzero, normalize and adopt as a new pivot row."""
        row = self.reduce(row)
        if not row:
            return False
        col = min(row)
        inv = row[col].inverse()
        normalized = {c: v * inv for c, v in row.items()}
        # keep earlier pivot rows fully reduced against the new one
        for prow in self.pivots.values():
            f = prow.get(col)
            if f is None:
                continue
            for c, v in normalized.items():
                cur = prow.get(c)
                cur = -f * v if cur is None else cur - f * v
                if cur:
                    prow[c] = cur
                else:
                    prow.pop(c, None)
        self.pivots[col] = normalized
        return True


def kernel_basis(rows, ncols: int) -> list:
    """Basis of ``{x : A x = 0}`` as column->value dicts, free columns ascending."""
    ech = _Echelon(dict(row) for row in rows)
    pivot_cols = set(ech.pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = {free: ONE}
        for pcol, prow in ech.pivots.items():
            coeff = prow.get(free)
            if coeff:
                vec[pcol] = -coeff
        basis.append(vec)
    return basis


def solve_affine(rows, rhs) -> Row | None:
    """One solution of ``A x = b`` (free variables set to 0), or None.

    ``rows`` and ``rhs`` are parallel sequences; each row is a column dict and
    each rhs entry a QSqrt2.
    """
    ech = _Echelon(
        {**row, _RHS_COL: -b} if b else dict(row) for row, b in zip(rows, rhs)
    )
    if _RHS_COL in ech.pivots:
        return None  # inconsistent: a row reduced to 0 = nonzero
    solution: Row = {}
    for pcol, prow in ech.pivots.items():
        b = prow.get(_RHS_COL)
        if b:
            solution[pcol] = -b
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
        {**_sparse(row), m + i: ONE} for i, row in enumerate(matrix)
    ).pivots
    if any(i not in pivots for i in range(m)):
        return None
    return [[pivots[i].get(m + j, ZERO) for j in range(m)] for i in range(m)]


def dense_rank(matrix) -> int:
    return len(_Echelon(_sparse(row) for row in matrix).pivots)


def _sparse(row) -> Row:
    return {j: v for j, v in enumerate(row) if v}
