from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from braidcert import linalg
from braidcert.bimodcalc import (
    Bimodule,
    Morphism,
    bimodule_Bs,
    bimodule_R,
    bimodule_Rw,
    direct_sum,
    from_dense,
    id_tensor,
    iso_swap_Rw,
    mat_add,
    mat_identity,
    mat_mul,
    mat_residuals,
    mat_zero,
    middle_coords,
    phi,
    psi,
    shift,
    solve_morphisms,
    tensor,
)
from braidcert.coxeter import (
    act,
    demazure_decompose,
    invariant_generator_table,
    make_reflection,
)
from braidcert.polyring import Poly, format_poly
from braidcert.scalars import QSqrt2


def X(n, j):
    return Poly.variable(n, j)


def refl(word, n):
    return make_reflection(word, n)


def unit_coords(m):
    coords = [Poly.zero(m.n)] * m.rank
    coords[0] = Poly.one(m.n)
    return coords


def on_column(matrix, coords):
    """``matrix`` times the coordinate column ``coords``: ``mat_mul`` with a one-column matrix."""
    n = coords[0].n
    return [row.get(0, Poly.zero(n)) for row in mat_mul(matrix, [{0: c} if c else {} for c in coords])]


# -- construction ----------------------------------------------------------------


def test_R_and_Rw_actions():
    n = 3
    R = bimodule_R(n)
    assert R.rank == 1 and R.actions[1][0][0] == X(n, 1)
    Rw = bimodule_Rw((1, 0, 1), n)
    assert Rw.actions[0][0][0] == X(n, 0)  # act([1,0,1], X0) == X0
    assert Rw.actions[1][0][0] == act((1, 0, 1), X(n, 1))
    Rw.validate()


def test_Bs0_right_action_matrices():
    n = 2
    B = bimodule_Bs(refl((0,), n))
    B.validate()
    assert B.basis_degrees == (0, 2)
    x0sq = X(n, 0) * X(n, 0)
    assert B.actions[0] == [{1: x0sq}, {0: Poly.one(n)}]
    # oracle: columns of the X1 action from Demazure decomposition directly
    t = refl((0,), n)
    p0, q0 = demazure_decompose(t, X(n, 1))
    p1, q1 = demazure_decompose(t, X(n, 1) * X(n, 0))
    assert B.actions[1] == from_dense([[p0, p1], [q0, q1]])
    assert q0 == Poly.constant(n, QSqrt2(0, Fraction(-1, 2)))


@pytest.mark.parametrize("word", [(0,), (1,), (1, 0, 1), (0, 1, 0)])
def test_constructed_bimodules_validate(word):
    n = 3
    B = bimodule_Bs(refl(word, n))
    B.validate()
    T = tensor(B, bimodule_Rw((0,), n))
    T.validate()


def test_validate_raises_on_broken_bimodules():
    n = 2
    x0, x1 = X(n, 0), X(n, 1)
    # a diagonal entry of degree 4 where the grading asks for 2 (the actions still commute)
    with pytest.raises(ValueError):
        Bimodule(n, [0], [[{0: x0 * x0}], [{0: x1}]]).validate()
    # B_{s0} with the off-diagonal X0^2 of its X0 action replaced by X0
    B = bimodule_Bs(refl((0,), n))
    with pytest.raises(ValueError):
        Bimodule(n, B.basis_degrees, [[{1: x0}, B.actions[0][1]], B.actions[1]]).validate()
    # well graded, but the two actions do not commute
    a0 = [{0: x0, 1: x1}, {1: x0}]
    a1 = [{0: x1}, {0: x0, 1: x1}]
    with pytest.raises(ValueError):
        Bimodule(n, [0, 0], [a0, a1]).validate()
    Bimodule(n, [0, 0], [a0, a0]).validate()


def test_tensor_unit():
    n = 2
    B = bimodule_Bs(refl((0,), n))
    assert tensor(bimodule_R(n), B) == B
    assert tensor(B, bimodule_R(n)) == B


def test_tensor_of_twists_composes_words():
    n = 3
    for w1, w2 in [((0,), (1,)), ((1, 0), (1,)), ((0, 1, 0), (1, 0))]:
        T = tensor(bimodule_Rw(w1, n), bimodule_Rw(w2, n))
        assert T == bimodule_Rw(w1 + w2, n)


def test_tensor_rank_and_degrees():
    n = 3
    T = tensor(bimodule_Bs(refl((0,), n)), bimodule_Bs(refl((1, 0, 1), n)))
    assert T.rank == 4
    assert T.basis_degrees == (0, 2, 2, 4)
    T.validate()


def test_tensor_associative_on_the_nose():
    n = 2
    mods = [
        bimodule_Bs(refl((0,), n)),
        bimodule_Rw((1,), n),
        bimodule_Bs(refl((1,), n)),
    ]
    a = tensor(tensor(mods[0], mods[1]), mods[2])
    b = tensor(mods[0], tensor(mods[1], mods[2]))
    assert a == b


def test_shift_moves_degrees_only():
    n = 2
    B = bimodule_Bs(refl((0,), n))
    assert shift(bimodule_R(n), 2).basis_degrees == (2,)
    assert shift(B, -2).basis_degrees == (-2, 0)
    assert shift(shift(B, 5), -5) == B
    assert shift(B, 3).actions == B.actions


def test_direct_sum_block_structure():
    n = 2
    B = bimodule_Bs(refl((0,), n))
    S = direct_sum([B, bimodule_R(n)])
    S.validate()
    assert S.rank == 3
    assert S.block_spans == ((0, 2), (2, 3))
    assert S.basis_degrees == (0, 2, 0)


def test_bb_tensor_agrees_with_conjugated_route():
    # tensoring B_{s0} with twisted copies of B_{s0} reproduces the direct
    # rank-4 presentation built from the conjugate reflection
    n = 2
    B0 = bimodule_Bs(refl((0,), n))
    B101 = bimodule_Bs(refl((1, 0, 1), n))
    via_twists = reduce(tensor, [B0, bimodule_Rw((1,), n), B0, bimodule_Rw((1,), n)])
    direct = tensor(B0, B101)
    assert via_twists == direct


# -- morphisms --------------------------------------------------------------------


def test_identity_is_morphism():
    n = 2
    T = tensor(bimodule_Bs(refl((0,), n)), bimodule_Bs(refl((1,), n)))
    assert not Morphism.identity(T).morphism_failures()


def test_unit_to_Bs_map_is_morphism():
    # a |-> a X_i (x) 1 + a (x) X_i as a column against the rank-two basis
    n = 2
    B = bimodule_Bs(refl((0,), n))
    src = shift(bimodule_R(n), 2)
    m = Morphism(src, B, [{0: X(n, 0)}, {0: Poly.one(n)}])
    assert not m.morphism_failures()


def test_basis_swap_without_twist_fails():
    n = 2
    B = bimodule_Bs(refl((0,), n))
    bad = Morphism(B, B, [{1: Poly.one(n)}, {0: Poly.one(n)}])
    failures = bad.morphism_failures()
    assert failures
    kinds = {f[0] for f in failures}
    assert any(k.startswith("action") or k == "grading" for k in kinds)


def test_morphism_failure_witness_structure():
    n = 2
    B = bimodule_Bs(refl((0,), n))
    bad = Morphism(B, B, [{0: Poly.one(n)}, {1: -Poly.one(n)}])
    failures = bad.morphism_failures()
    assert failures
    tag, row, col, residual = failures[0]
    assert isinstance(residual, str)


def test_non_morphism_action_witnesses():
    n = 2
    twist = Morphism(bimodule_Rw((0,), n), bimodule_R(n), [{0: Poly.one(n)}])
    assert twist.morphism_failures() == [
        ("action X0", 0, 0, "-2*X0"),
        ("action X1", 0, 0, "1*sqrt2*X0"),
    ]
    B = bimodule_Bs(refl((0,), n))
    sign = Morphism(B, B, [{0: Poly.one(n)}, {1: -Poly.one(n)}])
    assert sign.morphism_failures() == [
        ("action X0", 0, 1, "2*X0^2"),
        ("action X0", 1, 0, "-2"),
        ("action X1", 0, 1, "-1*sqrt2*X0^2"),
        ("action X1", 1, 0, "1*sqrt2"),
    ]


def test_graded_inverse_round_trip():
    n = 3
    f = phi(n)
    g = f.graded_inverse()
    assert g is not None and not g.morphism_failures()
    assert g.compose(f).matrix == mat_identity(4, n)
    assert f.compose(g).matrix == mat_identity(4, n)


def test_graded_inverse_none_for_singular():
    n = 2
    B = bimodule_Bs(refl((0,), n))
    zero = Morphism.zero(B, B)
    assert zero.graded_inverse() is None


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(0, 0, 0), (0, 0, 1)]), st.data())
def test_graded_inverse_exactly_when_constant_part_invertible(word, data):
    # four distinct basis degrees, so the inverse can have terms of degree 2, 4 and 6
    n = 2
    m = reduce(tensor, [bimodule_Bs(refl((i,), n)) for i in word])
    basis = solve_morphisms(m, m)
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis)))
    f = Morphism.zero(m, m)
    for b, c in zip(basis, coeffs):
        f = f + b.scale(QSqrt2(c))
    constant = [[row[l].constant_term() if l in row else QSqrt2(0) for l in range(m.rank)] for row in f.matrix]
    g = f.graded_inverse()
    if linalg.dense_rank(constant) < m.rank:
        assert g is None
    else:
        assert g is not None and not g.morphism_failures()
        assert g.compose(f).matrix == mat_identity(m.rank, n)
        assert f.compose(g).matrix == mat_identity(m.rank, n)


# -- the named isomorphisms --------------------------------------------------------


SWAP_WORDS = [(), (0,), (1,), (0, 1), (1, 0, 1)]
SWAP_REFLECTIONS = [(0,), (1,), (1, 0, 1)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_iso_swap_matches_demazure_formula(n):
    # oracle: a (x) b -> a (x) w(b) sends 1 (x) root_t to the Demazure split
    # p + q * root' of w(root_t) over the conjugate reflection t' = w t w^-1
    for word in SWAP_WORDS:
        for tword in SWAP_REFLECTIONS:
            t = refl(tword, n)
            t2 = refl(word + tword + tuple(reversed(word)), n)
            p, q = demazure_decompose(t2, act(word, t.root))
            fwd, bwd = iso_swap_Rw(word, t, n)
            assert fwd.matrix == from_dense([[Poly.one(n), p], [Poly.zero(n), q]]), (word, tword)
            assert bwd.compose(fwd).matrix == mat_identity(2, n)
            assert fwd.compose(bwd).matrix == mat_identity(2, n)


def test_iso_swap_mu():
    # swapping the twist of s1 s0 s1 across B_{s0} lands in a presentation
    # equal to B_{s0} (x) R_{s1 s0 s1}; both directions verify
    n = 2
    t0 = refl((0,), n)
    fwd, bwd = iso_swap_Rw((1, 0, 1), t0, n)
    assert not fwd.morphism_failures() and not bwd.morphism_failures()
    assert bwd.compose(fwd).matrix == mat_identity(2, n)
    assert fwd.compose(bwd).matrix == mat_identity(2, n)
    expected_target = tensor(bimodule_Bs(t0), bimodule_Rw((1, 0, 1), n))
    assert fwd.target == expected_target
    # the map is the identity on coordinates: 1 (x) w(X0) = 1 (x) X0
    assert fwd.matrix == mat_identity(2, n)


def test_iso_swap_identity_word():
    n = 2
    t0 = refl((0,), n)
    fwd, bwd = iso_swap_Rw((), t0, n)
    assert fwd.matrix == mat_identity(2, n)
    assert fwd.source == tensor(bimodule_R(n), bimodule_Bs(t0))


def test_iso_swap_various_conjugates():
    n = 3
    for word, twort in [((1,), (0,)), ((0,), (1,)), ((2,), (1,)), ((1, 0, 1), (1,))]:
        t = refl(twort, n)
        fwd, bwd = iso_swap_Rw(word, t, n)
        assert not fwd.morphism_failures() and not bwd.morphism_failures()
        assert bwd.compose(fwd).matrix == mat_identity(2, n)


def test_phi_defining_values():
    n = 3
    f = phi(n)
    src, tgt = f.source, f.target
    t0 = refl((0,), n)
    unit = unit_coords(tgt)
    # 1 (x) 1 (x) 1 -> 1 (x) 1 (x) 1
    assert on_column(f.matrix, unit_coords(src)) == unit
    # 1 (x) X0 (x) 1 -> 1 (x) 1 (x) X0
    got = on_column(f.matrix, middle_coords(src, t0, X(n, 0)))
    assert got == on_column(tgt.action_of(X(n, 0)), unit)
    # 1 (x) X1 (x) 1 -> -X2 (x) 1 (x) 1 + 1 (x) 1 (x) (X1 + X2)
    got = on_column(f.matrix, middle_coords(src, t0, X(n, 1)))
    want = on_column(tgt.action_of(X(n, 1) + X(n, 2)), unit)
    want[0] = want[0] - X(n, 2)
    assert got == want
    # 1 (x) Xi (x) 1 -> Xi (x) 1 (x) 1 for i > 1
    got = on_column(f.matrix, middle_coords(src, t0, X(n, 2)))
    assert got == [X(n, 2), Poly.zero(n), Poly.zero(n), Poly.zero(n)]


def test_phi_absorbs_invariant_generators():
    n = 3
    f = phi(n)
    src, tgt = f.source, f.target
    t0 = refl((0,), n)
    unit = unit_coords(tgt)
    for p in invariant_generator_table((0,), n):
        got = on_column(f.matrix, middle_coords(src, t0, p))
        want = [Poly.zero(n)] * 4
        want[0] = p
        assert got == want, f"first-factor invariant {format_poly(p)} not pulled left"
    for p in invariant_generator_table((1, 0, 1), n):
        got = on_column(f.matrix, middle_coords(src, t0, p))
        assert got == on_column(tgt.action_of(p), unit), f"second-factor invariant {format_poly(p)} not pushed right"


def test_phi_also_at_n4():
    f = phi(4)
    assert not f.morphism_failures()
    assert f.graded_inverse() is not None


def test_phi_refuses_n2():
    with pytest.raises(ValueError):
        phi(2)
    with pytest.raises(ValueError):
        psi(2)


def _solver_iso(src, tgt):
    """The first invertible element of the degree-0 morphism basis, scaled to fix the unit.

    A degree-0 map sends the unit (basis element 0, of degree 0) to a
    constant times the unit, so the element is divided by that constant.
    """
    unit = [{0: Poly.one(tgt.n)}] + mat_zero(tgt.rank - 1)
    for b in solve_morphisms(src, tgt):
        c = b.matrix[0][0].constant_term() if 0 in b.matrix[0] else QSqrt2(0)
        if not c or b.graded_inverse() is None:
            continue
        candidate = b.scale(c.inverse())
        column = [{0: row[0]} if 0 in row else {} for row in candidate.matrix]
        if column == unit and not candidate.morphism_failures():
            return candidate
    return None


def test_phi_matches_solver_iso():
    # oracle: the unit-fixing isomorphism the degree-0 solver finds
    for n in (3, 4):
        f = phi(n)
        found = _solver_iso(f.source, f.target)
        assert found is not None
        assert found.matrix == f.matrix
        fwd, bwd = psi(n)
        found = _solver_iso(fwd.source, fwd.target)
        assert found is not None
        assert found.matrix == fwd.matrix
        assert bwd.compose(fwd).matrix == mat_identity(4, n)


def test_psi_found_and_verified():
    n = 3
    fwd, bwd = psi(n)
    assert not fwd.morphism_failures()
    assert bwd is not None and not bwd.morphism_failures()
    assert bwd.compose(fwd).matrix == mat_identity(4, n)
    assert fwd.compose(bwd).matrix == mat_identity(4, n)
    # unit-preserving, pulls s1-invariants left and pushes the conjugate
    # reflection's invariants right
    src, tgt = fwd.source, fwd.target
    t1 = refl((1,), n)
    assert on_column(fwd.matrix, unit_coords(src)) == unit_coords(tgt)
    for p in invariant_generator_table((1,), n):
        got = on_column(fwd.matrix, middle_coords(src, t1, p))
        want = [Poly.zero(n)] * 4
        want[0] = p
        assert got == want
    for p in invariant_generator_table((0, 1, 0), n):
        got = on_column(fwd.matrix, middle_coords(src, t1, p))
        assert got == on_column(tgt.action_of(p), unit_coords(tgt))


def test_psi_forward_entries_pinned():
    # the entries the affine-slice search of earlier versions produced
    fwd, _ = psi(3)
    assert [[format_poly(row[j]) if j in row else "0" for j in range(4)] for row in fwd.matrix] == [
        ["1", "0", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "1", "0", "0"],
        ["0", "0", "0", "1"],
    ]


# -- the solver ---------------------------------------------------------------------


def test_hom_R_R_is_scalars():
    n = 2
    basis = solve_morphisms(bimodule_R(n), bimodule_R(n))
    assert len(basis) == 1
    assert basis[0].matrix[0][0].is_homogeneous(0)


def test_hom_twist_to_R_is_zero():
    n = 2
    for word in [(0,), (1,)]:
        assert solve_morphisms(bimodule_Rw(word, n), bimodule_R(n)) == []


def test_solver_output_verifies_and_is_deterministic():
    n = 2
    src = tensor(bimodule_Bs(refl((0,), n)), bimodule_Bs(refl((1, 0, 1), n)))
    tgt = tensor(bimodule_Bs(refl((1, 0, 1), n)), bimodule_Bs(refl((0,), n)))
    b1 = solve_morphisms(src, tgt)
    b2 = solve_morphisms(src, tgt)
    assert len(b1) == len(b2) >= 1
    for m1, m2 in zip(b1, b2):
        assert m1.matrix == m2.matrix
        assert not m1.morphism_failures()


def test_solver_respects_blocks():
    n = 2
    B = bimodule_Bs(refl((0,), n))
    S = direct_sum([bimodule_R(n), bimodule_R(n)])
    basis = solve_morphisms(S, S)
    # scalars on each block plus nothing across: 4 = 2x2 pane scalars
    assert len(basis) == 4
    for b in basis:
        assert not b.morphism_failures()


def test_end_of_Bs_is_scalar():
    n = 2
    B = bimodule_Bs(refl((0,), n))
    basis = solve_morphisms(B, B)
    assert len(basis) == 1
    assert basis[0].matrix == mat_identity(2, n) or basis[0].graded_inverse() is not None


# -- sparse matrices against dense textbook formulas ----------------------------

N = 2
_ZERO = Poly.zero(N)
_ENTRY = st.one_of(
    st.just(_ZERO),
    st.dictionaries(
        st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]),
        st.builds(QSqrt2, st.integers(-2, 2), st.integers(-1, 1)),
        max_size=3,
    ).map(lambda terms: Poly(N, terms)),
)
_LEFT = [
    bimodule_R(N),
    bimodule_Rw((1,), N),
    bimodule_Bs(refl((0,), N)),
    tensor(bimodule_Bs(refl((0,), N)), bimodule_Bs(refl((1,), N))),
    direct_sum([bimodule_Bs(refl((1,), N)), bimodule_R(N)]),
]


def _dense(rows, cols):
    return st.lists(st.lists(_ENTRY, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def _to_dense(matrix, cols):
    return [[row.get(j, _ZERO) for j in range(cols)] for row in matrix]


def _dense_mul(a, b, cols):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), _ZERO) for j in range(cols)] for i in range(len(a))]


def _dense_action(m, p):
    """Right multiplication by ``p``: the sum of ``c * A_0^e0 * A_1^e1`` over its terms."""
    out = [[_ZERO] * m.rank for _ in range(m.rank)]
    for exp, c in p.terms.items():
        mono = [[Poly.one(N) if i == j else _ZERO for j in range(m.rank)] for i in range(m.rank)]
        for j, e in enumerate(exp):
            for _ in range(e):
                mono = _dense_mul(_to_dense(m.actions[j], m.rank), mono, m.rank)
        out = [[x + y.scale(c) for x, y in zip(ro, rm)] for ro, rm in zip(out, mono)]
    return out


def _stores_no_zero(matrix):
    """No zero entry is stored, and no stored entry keeps a zero coefficient."""
    return all(e and all(e.terms.values()) for row in matrix for e in row.values())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.booleans(), st.data())
def test_sparse_matrices_match_dense_formulas(rows, inner, cols, cancel, data):
    a = data.draw(_dense(rows, inner))
    b = data.draw(_dense(inner, cols))
    c = [[-x for x in row] for row in a] if cancel else data.draw(_dense(rows, inner))
    sa, sb, sc = from_dense(a), from_dense(b), from_dense(c)
    assert all(map(_stores_no_zero, (sa, sb, sc)))
    assert _to_dense(sa, inner) == a

    product = mat_mul(sa, sb)
    assert _stores_no_zero(product) and len(product) == rows
    assert _to_dense(product, cols) == _dense_mul(a, b, cols)
    if cancel:
        # [a | a] times [b ; -b]: every entry's products cancel to zero
        doubled = mat_mul(from_dense(row + row for row in a), from_dense(b + [[-x for x in row] for row in b]))
        assert doubled == mat_zero(rows)

    total = mat_add(sa, sc)
    assert _stores_no_zero(total)
    assert _to_dense(total, inner) == [[x + y for x, y in zip(ra, rc)] for ra, rc in zip(a, c)]

    # wide rows, so that a column set does not iterate in ascending order by chance
    wide = data.draw(st.integers(1, 12))
    d, e = data.draw(_dense(rows, wide)), data.draw(_dense(rows, wide))
    witnesses = mat_residuals(from_dense(d), from_dense(e))
    assert witnesses == [
        (i, j, format_poly(x - y))
        for i, (rd, re) in enumerate(zip(d, e))
        for j, (x, y) in enumerate(zip(rd, re))
        if x != y
    ]
    assert [(i, j) for i, j, _ in witnesses] == sorted((i, j) for i, j, _ in witnesses)

    left = data.draw(st.sampled_from(_LEFT))
    p = a[0][0]
    action = left.action_of(p)
    assert _stores_no_zero(action) and len(action) == left.rank
    assert _to_dense(action, left.rank) == _dense_action(left, p)

    crossed = id_tensor(left, sb, cols)
    assert _stores_no_zero(crossed) and len(crossed) == left.rank * inner
    want = [[_ZERO] * (left.rank * cols) for _ in range(left.rank * inner)]
    for b2 in range(inner):
        for bb in range(cols):
            act = _dense_action(left, b[b2][bb])
            for a2 in range(left.rank):
                for aa in range(left.rank):
                    want[a2 * inner + b2][aa * cols + bb] = act[a2][aa]
    assert _to_dense(crossed, left.rank * cols) == want
