import copy
import json
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from braidcert import bimodcalc, coxeter, homotopy, linalg
from braidcert.bimodcalc import (
    Bimodule,
    Morphism,
    bimodule_Bs,
    bimodule_R,
    bimodule_Rw,
    direct_sum,
    from_dense,
    id_tensor,
    mat_add,
    mat_identity,
    mat_mul,
    mat_residuals,
    mat_zero,
    shift,
    solve_morphisms,
    tensor,
)
from braidcert.coxeter import act, demazure_decompose, make_reflection
from braidcert.homotopy import verify_certificate_dict
from braidcert.polyring import Poly, format_poly
from braidcert.scalars import QSqrt2, reduced
from conftest import invariant_generators, middle_coords, qsqrt2, solver_iso


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
    assert q0 == Poly.constant(n, reduced(0, -1, 2))


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


def test_a_rank_one_factor_keeps_the_blocks_of_the_other():
    # R_u (x) S orders its basis as S does, so S's blocks stay blocks (the
    # left whisker of a cached core complex relies on this); so does S (x) R_u
    n = 3
    S = direct_sum([bimodule_Bs(refl((0,), n)), bimodule_R(n), bimodule_Bs(refl((1,), n))])
    for u in ((), (1,), (0, 2)):
        twist = bimodule_Rw(u, n)
        for product in (tensor(twist, S), tensor(S, twist)):
            product.validate()
            assert product.block_spans == S.block_spans == ((0, 2), (2, 3), (3, 5)), u


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
    assert not Morphism(T, T, mat_identity(T.rank, n)).morphism_failures()


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
    f, _ = _exchange(*PHI, n)
    g = f.graded_inverse()
    assert g is not None and not g.morphism_failures()
    assert mat_mul(*g.after(f)) == mat_identity(4, n)
    assert mat_mul(*f.after(g)) == mat_identity(4, n)


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
        assert mat_mul(*g.after(f)) == mat_identity(m.rank, n)
        assert mat_mul(*f.after(g)) == mat_identity(m.rank, n)


# -- the paper's isomorphisms, as the degree-0 solver finds them ---------------------
#
# Each test states the paper's map literally and compares it with ``solver_iso``:
# the only degree-0 map (Hom^0 is one-dimensional), scaled to fix the unit,
# with a two-sided graded inverse.


SWAP_WORDS = [(), (0,), (1,), (0, 1), (1, 0, 1)]
SWAP_REFLECTIONS = [(0,), (1,), (1, 0, 1)]


def _swap_bimodules(word, t, n):
    """``R_w (x) B_t`` and ``B_{w t w^-1} (x) R_w``."""
    t2 = refl(word + t.word + tuple(reversed(word)), n)
    return tensor(bimodule_Rw(word, n), bimodule_Bs(t)), tensor(bimodule_Bs(t2), bimodule_Rw(word, n))


def _assert_swap_is_demazure_split(word, tword, n):
    # a (x) b -> a (x) w(b) fixes the unit and sends 1 (x) root_t to the Demazure
    # split p + q * root' of w(root_t) over the conjugate reflection t' = w t w^-1
    t = refl(tword, n)
    src, tgt = _swap_bimodules(word, t, n)
    p, q = demazure_decompose(refl(word + tword + tuple(reversed(word)), n), act(word, t.root))
    found = solver_iso(src, tgt)
    assert found is not None, (word, tword, n)
    assert found[0].matrix == from_dense([[Poly.one(n), p], [Poly.zero(n), q]]), (word, tword, n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_iso_swap_matches_demazure_formula(n):
    for word in SWAP_WORDS:
        for tword in SWAP_REFLECTIONS:
            _assert_swap_is_demazure_split(word, tword, n)


def test_iso_swap_mu():
    # swapping the twist of s1 s0 s1 across B_{s0} lands in a presentation
    # equal to B_{s0} (x) R_{s1 s0 s1}, and the map is the identity on
    # coordinates: 1 (x) w(X0) = 1 (x) X0
    n = 2
    t0 = refl((0,), n)
    src, tgt = _swap_bimodules((1, 0, 1), t0, n)
    assert tgt == tensor(bimodule_Bs(t0), bimodule_Rw((1, 0, 1), n))
    fwd, bwd = solver_iso(src, tgt)
    assert fwd.matrix == bwd.matrix == mat_identity(2, n)


def test_iso_swap_identity_word():
    n = 2
    t0 = refl((0,), n)
    src, tgt = _swap_bimodules((), t0, n)
    assert src == tensor(bimodule_R(n), bimodule_Bs(t0))
    fwd, _ = solver_iso(src, tgt)
    assert fwd.matrix == mat_identity(2, n)


def test_iso_swap_various_conjugates():
    for word, tword in [((1,), (0,)), ((0,), (1,)), ((2,), (1,)), ((1, 0, 1), (1,))]:
        _assert_swap_is_demazure_split(word, tword, 3)


# the exchanges B_a (x) B_b -> B_b (x) B_a: phi moves B_{s0} past B_{s1 s0 s1},
# and psi, its mirror, moves B_{s1} past B_{s0 s1 s0}
PHI = ((0,), (1, 0, 1))
PSI = ((1,), (0, 1, 0))


def _exchange(a, b, n):
    ta, tb = refl(a, n), refl(b, n)
    return solver_iso(tensor(bimodule_Bs(ta), bimodule_Bs(tb)), tensor(bimodule_Bs(tb), bimodule_Bs(ta)))


def _assert_phi_defining_values(n):
    found = _exchange(*PHI, n)
    assert found is not None
    f = found[0]
    t0 = refl((0,), n)
    unit = unit_coords(f.target)

    def left(p):  # p (x) 1 (x) 1
        return [p] + [Poly.zero(n)] * 3

    def right(p):  # 1 (x) 1 (x) p
        return on_column(f.target.action_of(p), unit)

    # 1 (x) X0 (x) 1 -> 1 (x) 1 (x) X0
    # 1 (x) X1 (x) 1 -> -X2 (x) 1 (x) 1 + 1 (x) 1 (x) (X1 + X2)
    # 1 (x) Xi (x) 1 -> Xi (x) 1 (x) 1 for i > 1
    values = [right(X(n, 0)), right(X(n, 1) + X(n, 2))] + [left(X(n, i)) for i in range(2, n)]
    values[1][0] = values[1][0] - X(n, 2)
    assert on_column(f.matrix, unit_coords(f.source)) == unit
    for i, want in enumerate(values):
        assert on_column(f.matrix, middle_coords(t0, X(n, i))) == want, f"1 (x) X{i} (x) 1"


def test_phi_defining_values():
    _assert_phi_defining_values(3)


def test_phi_also_at_n4():
    _assert_phi_defining_values(4)


def _assert_absorbs_invariant_generators(a, b, n):
    # the invariants of the first factor's reflection are pulled to the far
    # left, those of the second factor's to the far right
    f, _ = _exchange(a, b, n)
    ta = refl(a, n)
    unit = unit_coords(f.target)
    for p in invariant_generators(a, n):
        want = [p] + [Poly.zero(n)] * 3
        assert on_column(f.matrix, middle_coords(ta, p)) == want, f"{format_poly(p)} not pulled left"
    for p in invariant_generators(b, n):
        got = on_column(f.matrix, middle_coords(ta, p))
        assert got == on_column(f.target.action_of(p), unit), f"{format_poly(p)} not pushed right"


def test_phi_absorbs_invariant_generators():
    _assert_absorbs_invariant_generators(*PHI, 3)


def test_psi_found_and_verified():
    _assert_absorbs_invariant_generators(*PSI, 3)


def test_psi_forward_entries_pinned():
    # the entries the affine-slice search of earlier versions produced
    for n in (3, 4):
        found = _exchange(*PSI, n)
        assert found is not None
        assert [[format_poly(row[j]) if j in row else "0" for j in range(4)] for row in found[0].matrix] == [
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


def dual(m):
    """The single-block dual ``m^v``: degrees ``-d[r-1-i]``, actions ``J A^T J``."""
    r = m.rank
    actions = [[{r - 1 - k: row[r - 1 - l] for k, row in enumerate(a) if r - 1 - l in row} for l in range(r)] for a in m.actions]
    return Bimodule(m.n, [-d for d in reversed(m.basis_degrees)], actions)


def count_kernel_calls(monkeypatch):
    calls = []
    kernel_basis = linalg.kernel_basis

    def counted(rows, ncols):
        calls.append(ncols)
        return kernel_basis(rows, ncols)

    monkeypatch.setattr(linalg, "kernel_basis", counted)
    return calls


@pytest.mark.parametrize("n", [2, 3, 4])
def test_Bs_is_self_dual_up_to_shift(n):
    # the premise of reading panes from their duals: J A^T J = A on the
    # nose, because the entries q1 and p0 of every action agree
    for word in [(0,), (1,), (0, 1, 0), (n - 1,)]:
        B = bimodule_Bs(refl(word, n))
        assert dual(B) == shift(B, -2)


def test_panes_equal_up_to_a_common_shift_are_solved_once(monkeypatch):
    n = 3
    monkeypatch.setattr(bimodcalc, "_PANE_CACHE", {})
    calls = count_kernel_calls(monkeypatch)
    src = tensor(bimodule_Bs(refl((0,), n)), bimodule_Bs(refl((1,), n)))
    tgt = tensor(bimodule_Bs(refl((1,), n)), bimodule_Bs(refl((0,), n)))
    first = solve_morphisms(src, tgt)
    assert len(calls) == 1
    assert [b.matrix for b in solve_morphisms(shift(src, 4), shift(tgt, 4))] == [b.matrix for b in first]
    assert len(calls) == 1
    # a shift of one side only changes the unknowns' degrees: a new pane
    solve_morphisms(shift(src, 2), tgt)
    assert len(calls) == 2


def rebased(m, ell):
    """Rank-two ``m`` in the basis ``e0, e1 + ell e0``, for ``ell`` of degree ``d1 - d0``: not self-dual."""
    one, zero = Poly.one(m.n), Poly.zero(m.n)
    to_new = from_dense([[one, -ell], [zero, one]])
    to_old = from_dense([[one, ell], [zero, one]])
    return Bimodule(m.n, m.basis_degrees, [mat_mul(to_new, mat_mul(a, to_old)) for a in m.actions])


@pytest.mark.parametrize(
    "src_word, tgt_word, src_shift",
    [((0,), (1,), 2), ((0,), (0,), 0), ((1, 0, 1), (0,), 2), ((0, 1, 0), (1, 2, 1), 4)],
)
def test_a_pane_is_read_from_its_dual(monkeypatch, src_word, tgt_word, src_shift):
    # Hom(P, Q) from a cached Hom(Q^v, P^v), on presentations that are not
    # self-dual; the basis is the one the pane's own system gives
    n = 3
    src = shift(tensor(rebased(bimodule_Bs(refl(src_word, n)), X(n, 1)), bimodule_Bs(refl((2,), n))), src_shift)
    tgt = tensor(bimodule_Bs(refl(tgt_word, n)), rebased(bimodule_Bs(refl((2,), n)), X(n, 0) + X(n, 2)))
    assert dual(src) != shift(src, -4 - src_shift) and dual(tgt) != shift(tgt, -4)
    monkeypatch.setattr(bimodcalc, "_PANE_CACHE", {})
    direct = [b.matrix for b in solve_morphisms(src, tgt)]
    monkeypatch.setattr(bimodcalc, "_PANE_CACHE", {})
    solve_morphisms(dual(tgt), dual(src))
    calls = count_kernel_calls(monkeypatch)
    derived = solve_morphisms(src, tgt)
    assert calls == [] and len(direct) >= 1
    assert [b.matrix for b in derived] == direct
    for b in derived:
        assert not b.morphism_failures()


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


def _dense(rows, cols, entry=_ENTRY):
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def _to_dense(matrix, cols):
    return [[row.get(j, _ZERO) for j in range(cols)] for row in matrix]


def _dense_mul(a, b, cols):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), _ZERO) for j in range(cols)] for i in range(len(a))]


def _dense_action(m, p):
    """Right multiplication by ``p``: the sum of ``c * A_0^e0 * A_1^e1`` over its terms."""
    out = [[_ZERO] * m.rank for _ in range(m.rank)]
    for exp, c in p.sorted_terms():
        mono = [[Poly.one(N) if i == j else _ZERO for j in range(m.rank)] for i in range(m.rank)]
        for j, e in enumerate(exp):
            for _ in range(e):
                mono = _dense_mul(_to_dense(m.actions[j], m.rank), mono, m.rank)
        out = [[x + y.scale(c) for x, y in zip(ro, rm)] for ro, rm in zip(out, mono)]
    return out


def _stores_no_zero(matrix):
    """No zero entry is stored, and no stored entry keeps a zero coefficient."""
    return all(e and all(a or b for a, b, _ in e.terms.values()) for row in matrix for e in row.values())


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
    witnesses = mat_residuals(N, [(from_dense(d), mat_identity(wide, N))], target=from_dense(e))
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


def _residuals_by_products(n, lhs, rhs=(), target=None):
    """The oracle for ``mat_residuals``: build each side with ``mat_mul`` and ``mat_add``, then compare."""
    rows = len(target) if target is not None else len((lhs or rhs)[0][0])
    sides = []
    for products, start in ((lhs, mat_zero(rows)), (rhs, target or mat_zero(rows))):
        for a, b in products:
            start = mat_add(start, mat_mul(a, b))
        sides.append(start)
    out = []
    for i, (ra, rb) in enumerate(zip(*sides)):
        for j in sorted(ra.keys() | rb.keys()):
            x, y = ra.get(j), rb.get(j)
            if x is None:
                out.append((i, j, format_poly(-y)))
            elif y is None:
                out.append((i, j, format_poly(x)))
            elif x != y:
                out.append((i, j, format_poly(x - y)))
    return out


# coefficients with denominators 1, 2, 3 and 6, so that equal sums can carry different denominators
_FRACTION = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 6]))
_MIXED_ENTRY = st.one_of(
    st.just(_ZERO),
    st.dictionaries(
        st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]),
        st.builds(qsqrt2, _FRACTION, _FRACTION),
        max_size=3,
    ).map(lambda terms: Poly(N, terms)),
)


def _products(rows, cols, data):
    """Up to three sparse factor pairs ``(a, b)`` of shape rows x inner x cols."""
    out = []
    for _ in range(data.draw(st.integers(0, 3))):
        inner = data.draw(st.integers(1, 3))
        a, b = data.draw(_dense(rows, inner, _MIXED_ENTRY)), data.draw(_dense(inner, cols, _MIXED_ENTRY))
        out.append((from_dense(a), from_dense(b)))
    return out


def _negated(matrix):
    return [{j: -x for j, x in row.items()} for row in matrix]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.sampled_from(["random", "equal", "cancel"]), st.data())
def test_residuals_match_products_on_random_sums(rows, cols, shape, data):
    lhs, rhs = _products(rows, cols, data), _products(rows, cols, data)
    if shape == "equal":
        # the same products on both sides, in reverse order
        rhs = lhs[::-1]
    elif shape == "cancel":
        # every product is paired with its negation, so each entry of the left side sums to zero
        lhs = lhs + [(a, _negated(b)) for a, b in lhs[::-1]]
    target = None
    if data.draw(st.booleans()) or not (lhs or rhs):
        identity = rows == cols and data.draw(st.booleans())
        target = mat_identity(rows, N) if identity else from_dense(data.draw(_dense(rows, cols, _MIXED_ENTRY)))
    got = mat_residuals(N, lhs, rhs, target)
    assert got == _residuals_by_products(N, lhs, rhs, target)
    if shape == "equal" and target is None:
        assert got == []
    if shape == "cancel":
        assert got == (_residuals_by_products(N, [], rhs, target) if rhs or target is not None else [])


def test_residuals_of_a_holding_identity_build_no_polynomial(monkeypatch):
    """A check that holds adds term products only: none with the target, and no ``Poly``."""
    fwd, bwd = _exchange(*PSI, 3)
    term_products = 0

    def counted(sums, products, i):
        nonlocal term_products
        products = list(products)
        term_products += sum(
            len(x.terms) * len(y.terms) for a, b in products for k, x in a[i].items() for y in b[k].values()
        )
        return add_products(sums, products, i)

    def refused(n, acc):
        raise AssertionError("a holding identity built a Poly")

    add_products = bimodcalc._add_products
    monkeypatch.setattr(bimodcalc, "_add_products", counted)
    monkeypatch.setattr(bimodcalc, "_from_sums", refused)
    assert mat_residuals(3, [bwd.after(fwd)], target=mat_identity(fwd.source.rank, 3)) == []
    # exactly the composite's term products, counted by hand: the identity is added, not multiplied
    assert term_products == sum(
        len(x.terms) * len(y.terms) for row in bwd.matrix for k, x in row.items() for y in fwd.matrix[k].values()
    )
    assert fwd.morphism_failures() == [] and bwd.morphism_failures() == []


_TAMPER_TEXTS = ["X0^16", "1", "sqrt2", "-1/3*X1", "1/2*X2 + (1 + -1*sqrt2)*X0"]


def test_fused_checks_match_products_on_tampered_n3_certificates(certificates_n3, monkeypatch):
    """One seeded single-entry tampering of every field of every n=3 certificate.

    The failure lists of the fused checks and of the product-then-compare
    oracle agree in full: degree, label, row, column and residual text.
    """
    rng = random.Random(2104)
    seen = 0
    for result in certificates_n3["results"]:
        for field in ("forward", "inverse", "backward", "homotopy_source", "homotopy_target"):
            if not result["certificate"].get(field):
                continue
            cert = json.loads(json.dumps(result["certificate"]))
            item = rng.choice(cert[field])
            row = rng.randrange(len(item["matrix"]))
            col = rng.randrange(len(item["matrix"][row]))
            entry, text = item["matrix"][row][col], rng.choice(_TAMPER_TEXTS)
            item["matrix"][row][col] = text if entry == "0" else f"{entry} + {text}"
            fused = verify_certificate_dict(cert)
            with monkeypatch.context() as patched:
                patched.setattr(bimodcalc, "mat_residuals", _residuals_by_products)
                patched.setattr(homotopy, "mat_residuals", _residuals_by_products)
                assert verify_certificate_dict(cert) == fused, (cert["relation"], field)
            assert not fused[0] and fused[1], (cert["relation"], field)
            seen += 1
    assert seen == 60  # 25 certificates, 66 fields, six of them empty homotopies


# exponents of degree 0 to 3 in two variables, and unit, non-unit and sqrt2 coefficients
_EXPONENTS = [(a, total - a) for total in range(4) for a in range(total, -1, -1)]
_COEFFICIENTS = [QSqrt2(1), QSqrt2(-1), QSqrt2(3), QSqrt2(0, 1), reduced(1, -4, 2)]


def test_action_of_matches_dense_formula_and_shares_read_only_caches():
    monomials = [Poly.monomial(exp, c) for exp in _EXPONENTS for c in _COEFFICIENTS]
    # two-term sums over different exponents; X0^2 - X1^2 cancels four entries of B_s0 (x) B_s1
    sums = [a + b for a, b in zip(monomials, monomials[7:])]
    sums += [X(N, 0) - X(N, 1), X(N, 0) * X(N, 0) - X(N, 1) * X(N, 1)]
    polys = monomials + sums + [_ZERO]
    for left in _LEFT:
        actions = copy.deepcopy(left.actions)
        results = []
        for _ in range(2):  # the second round meets every monomial in the cache
            for p in polys:
                action = left.action_of(p)
                assert _stores_no_zero(action) and len(action) == left.rank
                assert _to_dense(action, left.rank) == _dense_action(left, p)
                results.append(action)
        assert results[: len(polys)] == results[len(polys) :]
        # crossing matrices and tensoring only read the shared monomial matrices
        snapshot = copy.deepcopy(results)
        id_tensor(left, [{0: p} for p in polys if p], 1)
        tensor(left, left)
        tensor(left, bimodule_Bs(refl((1,), N)))
        assert left.actions == actions
        assert results == snapshot


# entries with one to four terms of degree 0 to 3 and unit or other coefficients, or zero
_TWIST_ENTRY = st.one_of(
    st.just(_ZERO),
    st.dictionaries(st.sampled_from(_EXPONENTS), st.sampled_from(_COEFFICIENTS), min_size=1, max_size=4).map(
        lambda terms: Poly(N, terms)
    ),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([None, (0,), (1,), (0, 1), (1, 0, 1)]), st.integers(1, 3), st.integers(1, 3), st.data())
def test_a_rank_one_factor_substitutes_into_entries(word, rows, cols, data):
    # id (x) g for a rank-one factor is g with each entry crossed on its own,
    # as the 1x1 matrix action_of gives it; a fresh factor computes that, so
    # the two share no monomial cache and no memo.  The crossing is the
    # substitution p -> w(p) of the twist's ring automorphism
    def factor():
        return bimodule_R(N) if word is None else bimodule_Rw(word, N)

    left, reference = factor(), factor()
    endo = coxeter.word_endo(word or (), N)
    matrix = from_dense(data.draw(_dense(rows, cols, _TWIST_ENTRY)))
    matrix_before = copy.deepcopy(matrix)
    expected = [{b: reference.action_of(p)[0][0] for b, p in row.items()} for row in matrix]
    first = id_tensor(left, matrix, cols)
    assert first == expected == [{b: endo.apply(p) for b, p in row.items()} for row in matrix]
    cache, images = copy.deepcopy(left._monomial_cache), copy.deepcopy(left._images)
    # the second pass reads every image, the same object, from the cache and
    # the memo the first one filled
    second = id_tensor(left, matrix, cols)
    assert second == first and all(second[i][b] is q for i, row in enumerate(first) for b, q in row.items())
    assert _stores_no_zero(first)
    assert matrix == matrix_before
    assert left.actions == factor().actions
    assert {exp: left._monomial_cache[exp] for exp in cache} == cache
    assert left._images == images


def test_a_rank_one_factor_acting_by_zero_crosses_to_zero():
    # X_0 acts by zero and X_1 as itself, so crossing kills every term with
    # X_0 in it: a monomial with X_0 crosses to zero and stores no entry, and
    # a sum keeps its other terms
    n = 2
    x0, x1 = X(n, 0), X(n, 1)
    left = Bimodule(n, [0], [[{}], [{0: x1}]])
    left.validate()
    assert not left.substitute(x0) and not left.substitute(x0 * x1)
    assert left.substitute(x0 * x1 + x1 * x1 + Poly.constant(n, 3)) == x1 * x1 + Poly.constant(n, 3)
    assert left.action_of(x0 + x0 * x0) == [{}]
    assert id_tensor(left, [{0: x0, 1: x1 + x0}, {1: x0 * x1}], 2) == [{1: x1}, {}]
