"""Casimir variants, highest weight states, Heisenberg shifts."""

import pytest

from gdirac.casimir import (
    G_LIMIT,
    G_REN_N,
    LIMIT,
    NAIVE_N,
    NORMAL_N,
    CasimirVariant,
    casimir_apply,
    casimir_commutator,
    heisenberg_apply,
    hw_state,
    hw_weight,
    num_of,
    window_identity_residual,
)
from gdirac.fock import FockState, fock_basis, rhat_apply, rhat_lie_apply
from gdirac.linalg import Vec
from gdirac.scalar import ZERO, Scalar

VAC0 = Vec.basis(FockState.vacuum(True))


def test_variant_validation():
    with pytest.raises(ValueError):
        CasimirVariant("bogus")
    with pytest.raises(ValueError):
        CasimirVariant(NORMAL_N)  # needs N
    with pytest.raises(ValueError):
        CasimirVariant(LIMIT, None, include0=False)
    with pytest.raises(ValueError):
        CasimirVariant(G_LIMIT, None, include0=True)


def test_lattice_mismatch_rejected():
    v = Vec.basis(FockState.vacuum(False))
    with pytest.raises(ValueError):
        casimir_apply(CasimirVariant(LIMIT), v)


def test_hw_states():
    assert hw_state(0) == FockState.vacuum(True)
    assert hw_state(2) == FockState((0, 1), (), True)
    assert hw_state(-1) == FockState((), (-1,), True)
    assert hw_state(-3) == FockState((), (-3, -2, -1), True)


def test_hw_raising_annihilation_and_weights():
    for m in range(-3, 4):
        w = Vec.basis(hw_state(m))
        bound = abs(m) + 2
        for i in range(-bound, bound + 1):
            for j in range(-bound, bound + 1):
                if i >= j:
                    continue
                assert rhat_apply(i, j, w).is_zero(), (m, i, j)
        for i in range(-bound, bound + 1):
            assert rhat_apply(i, i, w) == w.scaled(hw_weight(m, i)), (m, i)


def test_eigenvalue_law_all_charges():
    for charge in range(-2, 3):
        for s in fock_basis(3, zero_ok=True, charge=charge):
            v = Vec.basis(s)
            lam = 2 * num_of(s) + 1 - (charge - 1) ** 2
            assert casimir_apply(CasimirVariant(LIMIT), v) == v.scaled(lam), s


def test_num_of():
    assert num_of(FockState.vacuum()) == 0
    assert num_of(FockState((1,), (-1,))) == 1
    assert num_of(FockState((1, 2), (-3, -1))) == 2


def test_casimir_example_pair_state():
    v = rhat_apply(1, -1, VAC0)
    assert casimir_apply(CasimirVariant(LIMIT), v) == v.scaled(2)


def test_tensor_weights_add_on_hw_vectors():
    # weights of a two-factor highest weight vector add coordinatewise
    for m1 in (-2, 1, 2):
        for m2 in (-1, 1):
            for i in range(-4, 5):
                lhs = hw_weight(m1, i) + hw_weight(m2, i)
                v1, v2 = Vec.basis(hw_state(m1)), Vec.basis(hw_state(m2))
                w1 = rhat_apply(i, i, v1).coeff(hw_state(m1))
                w2 = rhat_apply(i, i, v2).coeff(hw_state(m2))
                assert w1 + w2 == lhs


def test_commutator_table_closed_form():
    var = CasimirVariant(NORMAL_N, 3)
    assert casimir_commutator(var, 1, -1).terms == {(1, -1): Scalar.of(2)}
    assert casimir_commutator(var, 1, 2).is_zero()
    assert casimir_commutator(var, -2, 2).terms == {(-2, 2): Scalar.of(-2)}
    # boundary: index 0 sits in the plus half of the include-zero lattice
    assert casimir_commutator(var, 0, -1).terms == {(0, -1): Scalar.of(2)}
    assert casimir_commutator(var, 0, 1).is_zero()
    with pytest.raises(ValueError):
        casimir_commutator(var, 4, 1)


def test_commutator_table_brute_force():
    n = 3
    var = CasimirVariant(NORMAL_N, n)
    states = fock_basis(2, zero_ok=True)
    for m in range(-n, n + 1):
        for k in range(-n, n + 1):
            closed = casimir_commutator(var, m, k)
            for s in states:
                v = Vec.basis(s)
                lhs = casimir_apply(var, rhat_apply(m, k, v)) - rhat_apply(
                    m, k, casimir_apply(var, v)
                )
                rhs = rhat_lie_apply(closed, v) - v.scaled(closed.central)
                assert lhs == rhs, (m, k, s)


def test_stabilization_include0():
    for s in fock_basis(2, zero_ok=True):
        v = Vec.basis(s)
        lim = casimir_apply(CasimirVariant(LIMIT), v)
        for n in range(s.bound() + 1, s.bound() + 4):
            assert casimir_apply(CasimirVariant(NORMAL_N, n), v) == lim


def test_stabilization_exclude0():
    for s in fock_basis(2, charge=0):
        v = Vec.basis(s)
        lim = casimir_apply(CasimirVariant(G_LIMIT, None, False), v)
        for n in range(max(s.bound(), 1), s.bound() + 3):
            assert casimir_apply(CasimirVariant(G_REN_N, n, False), v) == lim


def test_window_constants():
    # include-zero window: naive = normal + N(N+1); exclude-zero: + N^2
    for s in fock_basis(2, zero_ok=True):
        v = Vec.basis(s)
        for n in (2, 3):
            naive = casimir_apply(CasimirVariant(NAIVE_N, n), v)
            normal = casimir_apply(CasimirVariant(NORMAL_N, n), v)
            assert naive == normal + v.scaled(n * (n + 1))
    for s in fock_basis(2):
        v = Vec.basis(s)
        for n in (2, 3):
            naive = casimir_apply(CasimirVariant(NAIVE_N, n, False), v)
            ren = casimir_apply(CasimirVariant(G_REN_N, n, False), v)
            assert naive == ren + v.scaled(n * n)


def test_charge0_sector_and_kernel():
    kernel = []
    g = CasimirVariant(G_LIMIT, None, False)
    for s in fock_basis(3, charge=0):
        v = Vec.basis(s)
        out = casimir_apply(g, v)
        assert out == v.scaled(2 * len(s.plus))
        if out.is_zero():
            kernel.append(s)
    assert kernel == [FockState.vacuum()]


def test_limit_minus_gren_is_charge():
    # on states shared by both lattices the two limits differ by the charge
    for s in fock_basis(2):
        shared = FockState(s.plus, s.minus, True)
        a = casimir_apply(CasimirVariant(LIMIT), Vec.basis(shared))
        b = casimir_apply(CasimirVariant(G_LIMIT, None, False), Vec.basis(s))
        assert a.coeff(shared) - b.coeff(s) == Scalar.of(s.charge)
        # and no off-diagonal part on either side
        assert a == Vec.basis(shared).scaled(a.coeff(shared))
        assert b == Vec.basis(s).scaled(b.coeff(s))


def test_heisenberg_relations():
    n = 6
    assert heisenberg_apply(n, 2, heisenberg_apply(n, -2, VAC0)) - heisenberg_apply(
        n, -2, heisenberg_apply(n, 2, VAC0)
    ) == VAC0.scaled(2)
    lhs = heisenberg_apply(n, 1, heisenberg_apply(n, 2, VAC0)) - heisenberg_apply(
        n, 2, heisenberg_apply(n, 1, VAC0)
    )
    assert lhs.is_zero()


def test_heisenberg_casimir_shift():
    # [Casimir, s_{-1}] |0> = 2 E_{0,-1} |0>  (the boundary term sits at 0)
    n = 6
    var = CasimirVariant(NORMAL_N, n)
    lhs = casimir_apply(var, heisenberg_apply(n, -1, VAC0)) - heisenberg_apply(
        n, -1, casimir_apply(var, VAC0)
    )
    assert lhs == rhat_apply(0, -1, VAC0).scaled(2)
    assert rhat_apply(1, 0, VAC0).is_zero()


def test_heisenberg_boundary_precondition():
    with pytest.raises(ValueError):
        heisenberg_apply(3, 3, Vec.basis(FockState((1,), (-1,), True)))


def test_windowed_casimir_boundary_precondition():
    v = Vec.basis(FockState((3,), (-3,), True))
    with pytest.raises(ValueError):
        casimir_apply(CasimirVariant(NORMAL_N, 2), v)
    w = Vec.basis(FockState((3,), (-3,)))
    with pytest.raises(ValueError):
        casimir_apply(CasimirVariant(G_REN_N, 2, False), w)


def test_exclude_zero_linear_term_identity():
    # sum_{i<j, window, nonzero} (E_ii - E_jj) equals
    # sum_i (-2i + sign(i)) E_ii on the exclude-zero window
    from gdirac.fock import diagonal_weight

    n = 3
    idx = [i for i in range(-n, n + 1) if i]
    for s in fock_basis(2):
        lhs = 0
        for a, i in enumerate(idx):
            for j in idx[a + 1 :]:
                lhs += diagonal_weight(i, s) - diagonal_weight(j, s)
        rhs = sum((-2 * k + (1 if k > 0 else -1)) * diagonal_weight(k, s) for k in idx)
        assert lhs == rhs, s


def test_window_identity():
    assert window_identity_residual(3, fock_basis(2, zero_ok=True)) == ZERO
