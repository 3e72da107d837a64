import copy
from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from braidcert import linalg
from braidcert.scalars import ONE, QSqrt2


def q(a, b=0):
    return QSqrt2(Fraction(a), Fraction(b))


entries = st.builds(QSqrt2, st.fractions(max_denominator=4), st.fractions(max_denominator=4))
# few distinct values, so that singular matrices and dependent rows are common
small_entries = st.sampled_from([q(0), q(0), q(1), q(-1), q(0, 1)])
mixed_entries = st.one_of(small_entries, entries)


def dense_kernel_dim_bruteforce(matrix, ncols):
    # independent oracle: rank via textbook Gaussian elimination on a copy
    rows = [list(r) for r in matrix]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return ncols - rank


def oracle_rank(matrix, ncols):
    return ncols - dense_kernel_dim_bruteforce(matrix, ncols)


def draw_matrix(data, nrows, ncols):
    return [[data.draw(mixed_entries) for _ in range(ncols)] for _ in range(nrows)]


def mat_vec(matrix, x):
    """``A x`` for a dense matrix and a column->value dict."""
    out = []
    for row in matrix:
        acc = QSqrt2(0)
        for j, v in x.items():
            acc = acc + row[j] * v
        out.append(acc)
    return out


@given(st.integers(1, 4), st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_matches_bruteforce_and_annihilates(nrows, ncols, data):
    matrix = [
        [data.draw(entries) for _ in range(ncols)] for _ in range(nrows)
    ]
    sparse_rows = [
        {j: v for j, v in enumerate(row) if v} for row in matrix
    ]
    basis = linalg.kernel_basis(sparse_rows, ncols)
    assert len(basis) == dense_kernel_dim_bruteforce(matrix, ncols)
    for vec in basis:
        assert not any(mat_vec(matrix, vec))


def test_kernel_deterministic_order():
    rows = [{0: ONE, 1: ONE, 2: ONE}]
    b1 = linalg.kernel_basis(rows, 3)
    b2 = linalg.kernel_basis([dict(r) for r in rows], 3)
    assert b1 == b2
    # free columns ascending: first vector uses column 1, second column 2
    assert min(b1[0]) <= min(b1[1])


def test_solve_affine_consistent():
    # x + y = 3, x - y = 1  ->  x = 2, y = 1
    rows = [{0: ONE, 1: ONE}, {0: ONE, 1: q(-1)}]
    sol = linalg.solve_affine(rows, [q(3), q(1)])
    assert sol == {0: q(2), 1: q(1)}


def test_solve_affine_inconsistent():
    rows = [{0: ONE}, {0: ONE}]
    assert linalg.solve_affine(rows, [q(1), q(2)]) is None


def test_solve_affine_underdetermined_sets_free_to_zero():
    rows = [{0: ONE, 1: ONE}]
    sol = linalg.solve_affine(rows, [q(5)])
    assert sol == {0: q(5)}


def test_dense_inverse():
    m = [[q(2), q(1)], [q(1), q(1)]]
    inv = linalg.dense_inverse(m)
    assert inv == [[q(1), q(-1)], [q(-1), q(2)]]
    assert linalg.dense_inverse([[q(1), q(1)], [q(1), q(1)]]) is None


def test_dense_rank():
    assert linalg.dense_rank([[q(1), q(2)], [q(2), q(4)]]) == 1
    assert linalg.dense_rank([[q(1), q(0)], [q(0), q(1)]]) == 2


@given(st.integers(1, 4), st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_dense_rank_matches_bruteforce(nrows, ncols, data):
    matrix = draw_matrix(data, nrows, ncols)
    assert linalg.dense_rank(matrix) == oracle_rank(matrix, ncols)


@given(st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_dense_inverse_is_two_sided_exactly_when_full_rank(m, data):
    matrix = draw_matrix(data, m, m)
    inv = linalg.dense_inverse(matrix)
    if oracle_rank(matrix, m) < m:
        assert inv is None
        return
    assert inv is not None
    for i in range(m):
        for j in range(m):
            want = q(1) if i == j else q(0)
            assert sum((matrix[i][t] * inv[t][j] for t in range(m)), q(0)) == want
            assert sum((inv[i][t] * matrix[t][j] for t in range(m)), q(0)) == want


@given(
    st.integers(1, 4),
    st.integers(1, 5),
    st.sampled_from(["image", "random", "contradiction"]),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_solve_affine_matches_rank_condition(nrows, ncols, rhs_kind, data):
    matrix = draw_matrix(data, nrows, ncols)
    if rhs_kind == "image":  # b = A x0 is consistent by construction
        b = mat_vec(matrix, {j: data.draw(mixed_entries) for j in range(ncols)})
    else:
        b = [data.draw(mixed_entries) for _ in range(nrows)]
    if rhs_kind == "contradiction":  # repeat row 0 with another right-hand side
        matrix.append(list(matrix[0]))
        b.append(b[0] + q(1))
    sparse_rows = [{j: v for j, v in enumerate(row) if v} for row in matrix]
    x = linalg.solve_affine(sparse_rows, b)
    augmented = [row + [bi] for row, bi in zip(matrix, b)]
    if oracle_rank(augmented, ncols + 1) != oracle_rank(matrix, ncols):
        assert x is None
        return
    assert x is not None
    assert mat_vec(matrix, x) == b


@given(st.integers(1, 6), st.integers(1, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_pivot_rows_hold_no_other_pivot_column(nrows, ncols, data):
    # the invariant that lets ``_Echelon.reduce`` finish in one pass
    ech = linalg._Echelon()
    for row in draw_matrix(data, nrows, ncols):
        ech.insert({j: v for j, v in enumerate(row) if v})
        for col, prow in ech.pivots.items():
            assert prow[col] == q(1)
            assert not any(c in ech.pivots for c in prow if c != col)


@given(st.integers(1, 6), st.integers(1, 5), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_outputs_do_not_depend_on_row_order(nrows, ncols, consistent, data):
    # ``_Echelon`` reorders its rows for speed; this is the invariant that allows it
    perm = data.draw(st.permutations(range(nrows)))
    matrix = draw_matrix(data, nrows, ncols)
    shuffled = [matrix[i] for i in perm]
    if consistent:
        b = mat_vec(matrix, {j: data.draw(mixed_entries) for j in range(ncols)})
    else:
        b = [data.draw(mixed_entries) for _ in range(nrows)]

    def sparse(m):
        return [{j: v for j, v in enumerate(row) if v} for row in m]

    assert linalg.kernel_basis(sparse(shuffled), ncols) == linalg.kernel_basis(sparse(matrix), ncols)
    assert linalg.solve_affine(sparse(shuffled), [b[i] for i in perm]) == linalg.solve_affine(
        sparse(matrix), b
    )
    assert linalg.dense_rank(shuffled) == linalg.dense_rank(matrix)
    # (P A)^-1 = A^-1 P^-1: the inverse's columns move with A's rows
    square = draw_matrix(data, nrows, nrows)
    inv = linalg.dense_inverse(square)
    inv_shuffled = linalg.dense_inverse([square[i] for i in perm])
    if inv is None:
        assert inv_shuffled is None
    else:
        assert inv_shuffled == [[inv_row[p] for p in perm] for inv_row in inv]


def is_canonical(x):
    return bool(x) and x.d > 0 and gcd(x.p, x.q, x.d) == 1


nonzero_entries = mixed_entries.filter(bool)


@given(nonzero_entries, st.lists(nonzero_entries, min_size=1, max_size=6), st.data())
@settings(max_examples=100, deadline=None)
def test_fused_row_update_matches_operators(factor, pivot_values, data):
    # ``_sub_multiple`` works on unreduced int triples; it must land on the
    # same canonical values as ``cur - factor * v`` with QSqrt2 operators
    pivot = dict(enumerate(pivot_values))
    row = {}
    for c, v in pivot.items():
        case = data.draw(st.sampled_from(["missing", "cancel", "same_d", "any"]))
        if case == "cancel":
            row[c] = factor * v
        elif case == "same_d":
            # a canonical value whose denominator is the unreduced product's
            den = factor.d * v.d
            p = 1 + den * data.draw(st.integers(-3, 3))
            row[c] = QSqrt2(Fraction(p, den), Fraction(data.draw(st.integers(-9, 9)), den))
            assert row[c].d == den
        elif case == "any":
            row[c] = data.draw(mixed_entries)
    row[len(pivot)] = data.draw(nonzero_entries)  # a column the pivot lacks
    want = {}
    for c in sorted(set(row) | set(pivot)):
        cur, v = row.get(c), pivot.get(c)
        value = cur if v is None else -factor * v if cur is None else cur - factor * v
        if value:
            want[c] = value
    linalg._sub_multiple(row, factor, pivot)
    assert row == want
    assert all(is_canonical(x) for x in row.values())


@given(st.integers(1, 6), st.integers(1, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_echelon_stores_only_canonical_nonzero_values(nrows, ncols, data):
    ech = linalg._Echelon(
        {j: v for j, v in enumerate(row) if v} for row in draw_matrix(data, nrows, ncols)
    )
    for prow in ech.pivots.values():
        assert all(is_canonical(x) for x in prow.values())


@given(st.integers(1, 5), st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_solvers_leave_their_inputs_unchanged(nrows, ncols, data):
    # the benchmark tracer reads the rows after the call, and
    # ``homotopy._equations`` hands the solvers its slot dicts themselves
    rows = [{j: v for j, v in enumerate(row) if v} for row in draw_matrix(data, nrows, ncols)]
    rhs = [data.draw(mixed_entries) for _ in range(nrows)]
    before = copy.deepcopy((rows, rhs))
    linalg.kernel_basis(rows, ncols)
    linalg.solve_affine(rows, rhs)
    assert (rows, rhs) == before
    assert [list(row) for row in rows] == [list(row) for row in before[0]]
