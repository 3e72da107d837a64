import copy
from math import gcd

from hypothesis import example, given, settings, strategies as st

from braidcert import linalg
from braidcert.scalars import QSqrt2, reduced
from conftest import qsqrt2

UNIT = (1, 0, 1)


def q(a, b=0):
    return qsqrt2(a, b)


def t(x):
    """The ``linalg`` triple of a QSqrt2."""
    return (x.p, x.q, x.d)


def tq(a, b=0):
    return t(q(a, b))


def values(vec):
    """The QSqrt2 values of a ``linalg`` row."""
    return {c: reduced(*x) for c, x in vec.items()}


def sparse(matrix):
    """The ``linalg`` rows of a dense QSqrt2 matrix."""
    return [{j: t(v) for j, v in enumerate(row) if v} for row in matrix]


entries = st.builds(qsqrt2, st.fractions(max_denominator=4), st.fractions(max_denominator=4))
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
    basis = linalg.kernel_basis(sparse(matrix), ncols)
    assert len(basis) == dense_kernel_dim_bruteforce(matrix, ncols)
    for vec in basis:
        assert not any(mat_vec(matrix, values(vec)))


def test_kernel_deterministic_order():
    rows = [{0: UNIT, 1: UNIT, 2: UNIT}]
    b1 = linalg.kernel_basis(rows, 3)
    b2 = linalg.kernel_basis([dict(r) for r in rows], 3)
    assert b1 == b2
    # free columns ascending: first vector uses column 1, second column 2
    assert min(b1[0]) <= min(b1[1])


@given(st.integers(1, 5), st.integers(1, 7), st.data())
@settings(max_examples=80, deadline=None)
def test_span_basis_of_any_kernel_basis_is_kernel_basis(nrows, ncols, data):
    # shuffled, scaled and mixed by unitriangular steps, with a redundant sum
    # and a zero vector thrown in: any spanning set of ker A gives the basis
    # kernel_basis gives, vector for vector and entry for entry
    matrix = draw_matrix(data, nrows, ncols)
    kernel = linalg.kernel_basis(sparse(matrix), ncols)
    vecs = [[values(v).get(c, q(0)) for c in range(ncols)] for v in kernel]
    vecs = [vecs[i] for i in data.draw(st.permutations(range(len(vecs))))]
    for i, v in enumerate(vecs):
        scale = data.draw(nonzero_entries)
        vecs[i] = [scale * x for x in v]
    for i in range(len(vecs)):
        for j in range(i):
            f = data.draw(mixed_entries)
            vecs[i] = [a + f * b for a, b in zip(vecs[i], vecs[j])]
    if vecs and data.draw(st.booleans()):
        vecs.append([sum(col, q(0)) for col in zip(*vecs)])
    vecs.insert(data.draw(st.integers(0, len(vecs))), [q(0)] * ncols)
    assert linalg.span_basis(sparse(vecs), ncols) == kernel


def test_span_basis_pivots_at_the_last_columns():
    # the span of x0 + x1 and x1 + x2 is 1 at free columns 1 and 2 of
    # A = [1 -1 1], so its basis is (-1, 1, 0) and (1, 0, 1)
    vectors = [{0: UNIT, 1: UNIT}, {1: UNIT, 2: UNIT}]
    assert linalg.span_basis(vectors, 3) == [{1: UNIT, 0: tq(1)}, {2: UNIT, 0: tq(-1)}]
    assert linalg.span_basis(vectors, 3) == linalg.kernel_basis([{0: UNIT, 1: tq(-1), 2: UNIT}], 3)
    assert linalg.span_basis([], 2) == []


def test_solve_affine_consistent():
    # x + y = 3, x - y = 1  ->  x = 2, y = 1
    rows = [{0: UNIT, 1: UNIT}, {0: UNIT, 1: tq(-1)}]
    sol = linalg.solve_affine(rows, [tq(3), tq(1)])
    assert sol == {0: tq(2), 1: tq(1)}


def test_solve_affine_inconsistent():
    rows = [{0: UNIT}, {0: UNIT}]
    assert linalg.solve_affine(rows, [tq(1), tq(2)]) is None


def test_solve_affine_underdetermined_sets_free_to_zero():
    rows = [{0: UNIT, 1: UNIT}]
    sol = linalg.solve_affine(rows, [tq(5)])
    assert sol == {0: tq(5)}


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
    x = linalg.solve_affine(sparse(matrix), [t(bi) for bi in b])
    augmented = [row + [bi] for row, bi in zip(matrix, b)]
    if oracle_rank(augmented, ncols + 1) != oracle_rank(matrix, ncols):
        assert x is None
        return
    assert x is not None
    assert mat_vec(matrix, values(x)) == b


@given(st.integers(1, 6), st.integers(1, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_pivot_rows_hold_no_other_pivot_column(nrows, ncols, data):
    # the invariant that lets ``_Echelon.reduce`` finish in one pass
    # (the pivot entry, 1, is implicit: ``pivots`` keeps the rest of each row)
    ech = linalg._Echelon()
    for row in sparse(draw_matrix(data, nrows, ncols)):
        ech.insert(row)
        for col, rest in ech.pivots.items():
            assert not any(c in ech.pivots for c in rest)
            assert all(c > col for c in rest)


@given(st.integers(1, 8), st.integers(1, 6), st.data())
@settings(max_examples=80, deadline=None)
def test_holders_index_the_live_rows_of_each_column(nrows, ncols, data):
    # adopting a pivot visits only ``holders[col]``, so a live row missing
    # from it would stay unreduced
    ech = linalg._Echelon()
    for row in sparse(draw_matrix(data, nrows, ncols)):
        ech.insert(row)
        held = {c: {p for p, rest in ech.live.items() if c in rest} for c in range(ncols)}
        assert {c: h for c, h in ech.holders.items() if h} == {c: h for c, h in held.items() if h}


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
    assert linalg.kernel_basis(sparse(shuffled), ncols) == linalg.kernel_basis(sparse(matrix), ncols)
    assert linalg.solve_affine(sparse(shuffled), [t(b[i]) for i in perm]) == linalg.solve_affine(
        sparse(matrix), [t(bi) for bi in b]
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
    p, q, d = x
    return bool(p or q) and d > 0 and gcd(p, q, d) == 1


nonzero_entries = mixed_entries.filter(bool)


@given(nonzero_entries, st.lists(nonzero_entries, min_size=1, max_size=6), st.data())
@settings(max_examples=100, deadline=None)
def test_fused_row_update_matches_operators(factor, pivot_values, data):
    # ``_sub_multiple`` works on unreduced int triples; it must land on the
    # triples of the canonical values ``cur - factor * v`` with QSqrt2 operators
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
            row[c] = reduced(p, data.draw(st.integers(-9, 9)), den)
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
    row = {c: t(x) for c, x in row.items()}
    linalg._sub_multiple(row, t(factor), {c: t(v) for c, v in pivot.items()})
    assert row == {c: t(x) for c, x in want.items()}
    assert all(is_canonical(x) for x in row.values())


@given(st.integers(1, 6), st.integers(1, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_echelon_stores_only_canonical_nonzero_values(nrows, ncols, data):
    ech = linalg._Echelon(sparse(draw_matrix(data, nrows, ncols)))
    for prow in ech.pivots.values():
        assert all(is_canonical(x) for x in prow.values())


@given(st.integers(1, 5), st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_solvers_leave_their_inputs_unchanged(nrows, ncols, data):
    # the benchmark tracer reads the rows after the call, and
    # ``homotopy._equations`` hands the solvers its slot dicts themselves
    rows = sparse(draw_matrix(data, nrows, ncols))
    rhs = [t(data.draw(mixed_entries)) for _ in range(nrows)]
    before = copy.deepcopy((rows, rhs))
    linalg.kernel_basis(rows, ncols)
    linalg.solve_affine(rows, rhs)
    assert (rows, rhs) == before
    assert [list(row) for row in rows] == [list(row) for row in before[0]]


# rows rich in unit rows and repeats: a unit row, a scalar multiple of an
# earlier row (a plain repeat when the scalar is 1), or a sparse row
unit_rich_rows = st.lists(
    st.one_of(
        st.tuples(st.just("unit"), st.integers(0, 4), nonzero_entries),
        st.tuples(st.just("repeat"), st.integers(0, 7), st.sampled_from([q(1), q(1), q(-2), q(0, 1)])),
        st.tuples(
            st.just("sparse"), st.dictionaries(st.integers(0, 4), nonzero_entries, min_size=2, max_size=3), st.none()
        ),
    ),
    min_size=1,
    max_size=8,
)


def dense_rows(recipes, ncols=5):
    rows = []
    for kind, a, b in recipes:
        if kind == "unit":
            row = [q(0)] * ncols
            row[a] = b
        elif kind == "repeat":
            row = [x * b for x in rows[a % len(rows)]] if rows else [q(0)] * ncols
        else:
            row = [q(0)] * ncols
            for j, v in a.items():
                row[j] = v
        rows.append(row)
    return rows


def assert_dead_columns_bookkept(ech):
    # each pivot row is 1 at its column and its rest elsewhere
    for col, rest in ech.pivots.items():
        row = {col: UNIT, **rest}
        if col in ech.live:
            assert rest is ech.live[col] and len(row) > 1
            assert not any(c in ech.pivots for c in rest)
        else:
            assert row == {col: UNIT}
    assert set(ech.live) <= set(ech.pivots)


@given(unit_rich_rows, st.lists(mixed_entries, min_size=8, max_size=8))
# live rows that a later row shrinks to their pivot: by deleting a unit
# row's column, and by a cancellation in the fused row update
@example([("sparse", {0: q(1), 1: q(2)}, None), ("unit", 1, q(3))], [q(1)] * 8)
@example(
    [("sparse", {0: q(1), 1: q(1), 2: q(0, 1)}, None), ("sparse", {1: q(2), 2: q(0, 2)}, None)], [q(1)] * 8
)
@settings(max_examples=80, deadline=None)
def test_unit_pivots_are_dead_columns(recipes, b):
    ncols = 5
    matrix = dense_rows(recipes, ncols)
    ech = linalg._Echelon()
    for i, row in enumerate(sparse(matrix)):
        ech.insert(row)
        assert_dead_columns_bookkept(ech)
        prefix, rhs = matrix[: i + 1], b[: i + 1]
        basis = linalg.kernel_basis(sparse(prefix), ncols)
        assert len(basis) == dense_kernel_dim_bruteforce(prefix, ncols)
        for vec in basis:
            assert not any(mat_vec(prefix, values(vec)))
        x = linalg.solve_affine(sparse(prefix), [t(v) for v in rhs])
        augmented = [r + [v] for r, v in zip(prefix, rhs)]
        if oracle_rank(augmented, ncols + 1) != oracle_rank(prefix, ncols):
            assert x is None
        else:
            assert mat_vec(prefix, values(x)) == rhs
        assert linalg.dense_rank(prefix) == oracle_rank(prefix, ncols) == len(ech.pivots)


def test_a_live_row_shrunk_to_its_pivot_becomes_dead():
    # by a unit row's column, deleted
    ech = linalg._Echelon()
    ech.insert({0: UNIT, 1: tq(2)})
    assert ech.live == {0: {1: tq(2)}}
    ech.insert({1: tq(3)})
    assert ech.live == {} and ech.pivots == {0: {}, 1: {}}
    # by a cancellation in the fused row update
    ech = linalg._Echelon()
    ech.insert({0: UNIT, 1: UNIT, 2: tq(0, 1)})
    ech.insert({1: tq(2), 2: tq(0, 2)})
    assert ech.live == {1: {2: tq(0, 1)}} and ech.pivots[0] == {}


@given(st.integers(1, 5), st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_inputs_need_not_be_in_lowest_terms(nrows, ncols, data):
    # the callers hand over the product kernel's unreduced sums as they are;
    # what the eliminator stores and returns is in lowest terms either way
    matrix = draw_matrix(data, nrows, ncols)
    b = [t(data.draw(mixed_entries)) for _ in range(nrows)]

    def unreduced(x):
        k = data.draw(st.integers(1, 6))
        return (k * x[0], k * x[1], k * x[2])

    rows = sparse(matrix)
    loose = [{c: unreduced(x) for c, x in row.items()} for row in rows]
    assert linalg.kernel_basis(loose, ncols) == linalg.kernel_basis(rows, ncols)
    assert linalg.solve_affine(loose, [unreduced(x) for x in b]) == linalg.solve_affine(rows, b)
