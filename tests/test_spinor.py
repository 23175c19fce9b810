"""Clifford generators, cut-off quadratics, fermion number, spinor Casimir."""

import pytest

from gdirac.linalg import Vec
from gdirac.sampling import random_vector
from gdirac.scalar import SQRT2, Scalar
from gdirac.spinor import (
    H_N,
    K_RAW,
    K_TILDE_N,
    SpinState,
    fermion_number_apply,
    gamma_apply,
    gamma_unit_state,
    k_family_apply,
    ktilde_exact_apply,
    spin_basis,
    spinor_casimir_apply,
)

SVAC = Vec.basis(SpinState.vacuum())


def ss(*modes):
    return SpinState(tuple(modes))


def test_gamma_creates_with_sqrt2():
    assert gamma_apply(1, -1, SVAC) == Vec.basis(ss((1, -1))).scaled(SQRT2)


def test_gamma_annihilates_vacuum():
    assert gamma_apply(-1, 1, SVAC).is_zero()


def test_gamma_rejects_same_sign():
    with pytest.raises(ValueError):
        gamma_apply(1, 2, SVAC)


def test_gamma_anticommutator_value():
    v = Vec.basis(ss((2, -2)))
    out = gamma_apply(1, -1, gamma_apply(-1, 1, v)) + gamma_apply(
        -1, 1, gamma_apply(1, -1, v)
    )
    assert out == v.scaled(2)


def test_clifford_relations_bound2():
    basis = spin_basis(2)
    gens = [(i, j) for i in (-2, -1, 1, 2) for j in (-2, -1, 1, 2) if i * j < 0]
    for i, j in gens:
        for m, n in gens:
            want = 2 if (i == n and j == m) else 0
            for s in basis:
                v = Vec.basis(s)
                out = gamma_apply(i, j, gamma_apply(m, n, v)) + gamma_apply(
                    m, n, gamma_apply(i, j, v)
                )
                assert out == v.scaled(want), (i, j, m, n, s)


def test_gamma_vector_matches_unit_action():
    for s in spin_basis(2):
        for i, j in ((1, -2), (-2, 1), (2, -2), (-1, 2)):
            lhs = gamma_apply(i, j, Vec.basis(s))
            t = gamma_unit_state(i, j, s)
            rhs = Vec() if t is None else Vec.basis(t[1], t[0]).scaled(SQRT2)
            assert lhs == rhs


def test_ktilde_kills_vacuum():
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for si, sj in ((i, j), (-i, -j)):
                    assert k_family_apply(K_TILDE_N, n, si, sj, SVAC).is_zero()


def test_k_raw_diagonal_on_vacuum():
    assert k_family_apply(K_RAW, 3, -1, -1, SVAC) == SVAC.scaled(3)
    assert k_family_apply(K_RAW, 3, 1, 1, SVAC).is_zero()


def test_ktilde_commutator_with_gamma_on_vacuum():
    # [K~^(3)_{1,1}, gamma_{1,-2}] |0> = gamma_{1,-2} |0>
    kt = lambda v: k_family_apply(K_TILDE_N, 3, 1, 1, v)
    g = lambda v: gamma_apply(1, -2, v)
    assert kt(g(SVAC)) - g(kt(SVAC)) == g(SVAC)


def test_ktilde_exact_examples():
    v = Vec.basis(ss((1, -1)))
    assert ktilde_exact_apply(1, 1, v) == v
    assert ktilde_exact_apply(2, 2, v).is_zero()
    # the derivation rule gives -1 here; the N=2 window expansion agrees
    assert ktilde_exact_apply(-1, -1, v) == v.scaled(-1)
    assert k_family_apply(K_TILDE_N, 2, -1, -1, v) == v.scaled(-1)


def test_ktilde_window_agrees_with_exact():
    idx = [-3, -2, -1, 1, 2, 3]
    pairs = [(i, j) for i in idx for j in idx if i * j > 0]
    for s in spin_basis(2):
        v = Vec.basis(s)
        bound = max(s.bound(), 1)
        for n in range(bound, bound + 3):
            for i, j in pairs:
                if max(abs(i), abs(j)) > n:
                    continue
                assert k_family_apply(K_TILDE_N, n, i, j, v) == ktilde_exact_apply(i, j, v)


def test_k_family_window_validation():
    with pytest.raises(ValueError):
        k_family_apply(K_RAW, 2, 3, 3, SVAC)
    with pytest.raises(ValueError):
        k_family_apply(K_RAW, 3, 1, -1, SVAC)


def test_adjoint_commutator_lemma_bound2():
    n = 3
    idx = [-2, -1, 1, 2]
    sign_pairs = [(i, j) for i in idx for j in idx if i * j > 0]
    cross = [(m, l) for m in idx for l in idx if m * l < 0]
    for i, j in sign_pairs:
        for m, l in cross:
            for s in spin_basis(2):
                v = Vec.basis(s)
                k = lambda w: k_family_apply(K_RAW, n, i, j, w)
                g = lambda w: gamma_apply(m, l, w)
                lhs = k(g(v)) - g(k(v))
                rhs = Vec()
                if j == m:
                    rhs = rhs + gamma_apply(i, l, v)
                if i == l:
                    rhs = rhs - gamma_apply(m, j, v)
                assert lhs == rhs, (i, j, m, l, s)


def test_commutation_relations_no_central_term():
    n = 3
    idx = [-2, -1, 1, 2]
    pairs = [(i, j) for i in idx for j in idx if i * j > 0]
    vecs = [Vec.basis(s) for s in spin_basis(2)] + [
        random_vector("spin", 42 + t, 3) for t in range(5)
    ]
    kt = lambda a, b, w: k_family_apply(K_TILDE_N, n, a, b, w)
    for i, j in pairs:
        for m, l in pairs:
            for v in vecs:
                lhs = kt(i, j, kt(m, l, v)) - kt(m, l, kt(i, j, v))
                rhs = Vec()
                if j == m:
                    rhs = rhs + kt(i, l, v)
                if i == l:
                    rhs = rhs - kt(m, j, v)
                assert lhs == rhs


def test_h_family_linkage():
    from fractions import Fraction

    n = 3
    idx = [-3, -2, -1, 1, 2, 3]
    pairs = [(i, j) for i in idx for j in idx if i * j > 0]
    vecs = [random_vector("spin", 90 + t, 3) for t in range(5)]
    for i, j in pairs:
        for v in vecs:
            h = k_family_apply(H_N, n, i, j, v)
            k = k_family_apply(K_RAW, n, i, j, v)
            ktl = k_family_apply(K_TILDE_N, n, i, j, v)
            assert h == (k - v.scaled(Scalar.of(Fraction(n, 2))) if i == j else k)
            assert ktl == (k - v.scaled(n) if (i == j and i < 0) else k)


def test_fermion_number_diagonal():
    assert fermion_number_apply(SVAC).is_zero()
    v = Vec.basis(ss((1, -1)))
    assert fermion_number_apply(v) == v.scaled(2)
    w = Vec.basis(ss((1, -1), (2, -3)))
    assert fermion_number_apply(w) == w.scaled(4)


def test_fermion_number_is_signed_trace_of_ktilde():
    for s in spin_basis(3):
        v = Vec.basis(s)
        acc = Vec()
        for i in range(1, 4):
            acc = acc + ktilde_exact_apply(i, i, v) - ktilde_exact_apply(-i, -i, v)
        assert acc == fermion_number_apply(v)


def test_fermion_number_kernel_is_vacuum_line():
    kernel = [s for s in spin_basis(3) if fermion_number_apply(Vec.basis(s)).is_zero()]
    assert kernel == [SpinState.vacuum()]
    eigenvalues = {2 * len(s.modes) for s in spin_basis(3)}
    assert eigenvalues == {0, 2, 4, 6, 8, 10, 12, 14, 16, 18}


def test_windowed_trace_acts_as_zero():
    for s in spin_basis(2):
        v = Vec.basis(s)
        for n in range(max(s.bound(), 1), max(s.bound(), 1) + 3):
            acc = Vec()
            for i in range(1, n + 1):
                acc = acc + k_family_apply(K_TILDE_N, n, i, i, v)
                acc = acc + k_family_apply(K_TILDE_N, n, -i, -i, v)
            assert acc.is_zero(), (s, n)


def test_spinor_casimir_constant():
    assert spinor_casimir_apply(3, SVAC) == SVAC.scaled(27)
    v = Vec.basis(ss((1, -1)))
    assert spinor_casimir_apply(2, v) == v.scaled(8)
    assert spinor_casimir_apply(2, v, renormalized=True).is_zero()


def test_spinor_casimir_bound_check():
    v = Vec.basis(ss((2, -2)))
    with pytest.raises(ValueError):
        spinor_casimir_apply(1, v)
