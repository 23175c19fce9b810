"""The Dirac-type operator, its square, the invariant sector."""

from fractions import Fraction
from functools import partial

import pytest
from oracles import rho_weight

from gdirac.casimir import G_LIMIT, CasimirVariant, casimir_apply
from gdirac.dirac import (
    TensorState,
    _block_states,
    _invariant_nullspace,
    constraint_window_robust,
    diagonal_casimir_apply,
    dirac_apply,
    dirac_cutoff_apply,
    invariance_residual,
    invariant_basis,
    rho_apply,
    spectrum_report,
    square_identity_residual,
    t_square_apply,
    tensor_states,
)
from gdirac.fock import FockState, fock_basis, rhat_apply
from gdirac.linalg import ExactMatrix, Vec
from gdirac.sampling import random_vector
from gdirac.scalar import HALF_SQRT2, ZERO, Scalar
from gdirac.spinor import SpinState, spin_basis

VAC = Vec.basis(TensorState(FockState.vacuum(), SpinState.vacuum()))


def ts(plus, minus, modes):
    return TensorState(FockState(tuple(plus), tuple(minus)), SpinState(tuple(modes)))


def test_dirac_kills_vacuum():
    assert dirac_apply(VAC).is_zero()


def test_dirac_pair_to_mode():
    v = Vec.basis(ts([1], [-1], []))
    out = dirac_apply(v)
    assert out == Vec.basis(ts([], [], [(1, -1)])).scaled(HALF_SQRT2)


def test_dirac_mode_to_pair():
    v = Vec.basis(ts([], [], [(1, -1)]))
    out = dirac_apply(v)
    assert out == Vec.basis(ts([1], [-1], [])).scaled(HALF_SQRT2)


def test_dirac_symmetric_on_seeded_pairs():
    for t in range(100):
        v = random_vector("tensor", 2 * t + 1, 3)
        w = random_vector("tensor", 2 * t + 2, 3)
        assert dirac_apply(v).inner(w) == v.inner(dirac_apply(w))


def test_dirac_image_keeps_support_bounded():
    for t in range(20):
        v = random_vector("tensor", 400 + t, 3)
        img = dirac_apply(v)
        assert all(k.bound() <= 3 for k in img.terms)


def test_cutoff_stabilization():
    assert dirac_cutoff_apply(1, VAC).is_zero()
    v = Vec.basis(ts([1], [-1], []))
    assert dirac_cutoff_apply(2, v) == dirac_apply(v)
    w = Vec.basis(ts([2], [-2], []))
    assert dirac_cutoff_apply(1, w).is_zero()
    assert dirac_cutoff_apply(1, w) != dirac_apply(w)
    for n in (2, 3, 4):
        assert dirac_cutoff_apply(n, w) == dirac_apply(w)


@pytest.mark.parametrize("plus", [(0,), (1,)])
def test_dirac_operators_refuse_the_include_zero_lattice(plus):
    # index 0 has no spinor mode: D, D_N and every square form refuse the
    # lattice up front, with t_square_apply's error, whether or not 0 is
    # occupied
    v = Vec.basis(TensorState(FockState(plus, (-1,), True), SpinState()))
    squares = [partial(square_identity_residual, 2, form) for form in ("raw", "hk", "final")]
    for apply in (dirac_apply, lambda w: dirac_cutoff_apply(2, w), t_square_apply, *squares):
        with pytest.raises(ValueError, match="state lattice does not match the variant lattice"):
            apply(v)


def test_rho_examples():
    v = Vec.basis(ts([1], [-1], [(1, -1)]))
    assert rho_apply(1, 1, v) == v.scaled(2)
    for p in (1, 2, -1, -2):
        for q in (1, 2, -1, -2):
            if p * q > 0:
                assert rho_apply(p, q, VAC).is_zero()
    with pytest.raises(ValueError):
        rho_apply(1, -1, VAC)


def test_equivariance_exhaustive_bound2():
    pairs = [(i, j) for i in (-2, -1, 1, 2) for j in (-2, -1, 1, 2) if i * j > 0]
    for state in tensor_states(2):
        v = Vec.basis(state)
        for p, q in pairs:
            lhs = rho_apply(p, q, dirac_apply(v))
            rhs = dirac_apply(rho_apply(p, q, v))
            assert lhs == rhs, (p, q, state)


def test_equivariance_random_bound3():
    pairs = [(i, j) for i in (-3, -2, -1, 1, 2, 3) for j in (-3, -2, -1, 1, 2, 3) if i * j > 0]
    for t in range(5):
        v = random_vector("tensor", 777 + t, 3)
        for p, q in pairs:
            assert rho_apply(p, q, dirac_apply(v)) == dirac_apply(rho_apply(p, q, v))


def test_vacuum_structure():
    vf = Vec.basis(FockState.vacuum())
    vs = Vec.basis(SpinState.vacuum())
    from gdirac.spinor import gamma_apply

    for p in range(-4, 5):
        for q in range(-4, 5):
            if p == 0 or q == 0:
                continue
            if not (p > 0 > q):
                assert rhat_apply(p, q, vf).is_zero(), (p, q)
            if p < 0 < q:
                assert gamma_apply(p, q, vs).is_zero(), (p, q)


def _full_block_states(n, pairs, k):
    """Every state of the (pairs, k) block at trunc n, in basis order."""
    fs = [f for f in fock_basis(n, charge=0) if len(f.plus) == pairs]
    return [TensorState(f, s) for f in fs for s in spin_basis(n, length=k)]


def _weight_lemma_states():
    """tensor_states(2) and every (M, k) block at trunc 3 with M, k <= 2."""
    yield 2, tensor_states(2)
    for pairs in range(3):
        for k in range(3):
            yield 3, _full_block_states(3, pairs, k)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_generator_yields_the_weight_zero_states(n):
    for pairs in range(min(n, 2) + 1):
        for k in range(3):
            want = [t for t in _full_block_states(n, pairs, k) if not rho_weight(t)]
            assert _block_states(n, pairs, k) == want, (n, pairs, k)


def test_rho_weight_is_the_diagonal_of_rho():
    for n, states in _weight_lemma_states():
        for t in states:
            w = rho_weight(t)
            v = Vec.basis(t)
            idx = [i for i in range(-n - 1, n + 2) if i]
            assert set(w) <= set(idx) and all(w.values())
            for i in idx:
                assert rho_apply(i, i, v) == v.scaled(w.get(i, 0)), (t, i)


def test_vacuum_is_the_only_weight_zero_charge0_state():
    # the Fock and spin weights never cancel: both count +1 at an occupied
    # positive index and -1 at an occupied negative one
    vac = VAC.support()[0]
    for _, states in _weight_lemma_states():
        assert [t for t in states if not rho_weight(t)] == ([vac] if vac in states else [])


def _full_nullspace(n, pairs, k, window):
    """Oracle: the kernel of every same-sign rho(E_pq) on all block states."""
    cols = _full_block_states(n, pairs, k)
    ops = [(s * i, s * j) for s in (1, -1) for i in range(1, window + 1) for j in range(1, window + 1)]
    rows = {}
    for ci, t in enumerate(cols):
        for op in ops:
            for state, c in rho_apply(*op, Vec.basis(t)).terms.items():
                rows.setdefault((op, state), {})[ci] = c
    kernel = ExactMatrix(list(rows.values()), len(cols)).nullspace()
    return [Vec({cols[i]: c for i, c in v.terms.items()}) for v in kernel]


@pytest.mark.parametrize("n", [2, 3])
def test_weight_zero_nullspace_matches_full_columns(n):
    for pairs in range(3):
        for k in range(3):
            for window in (n + 1, n + 2):
                assert _invariant_nullspace(n, pairs, k, window) == _full_nullspace(n, pairs, k, window)


def test_invariant_blocks_at_trunc2():
    blk = invariant_basis(2, 0, 0)
    assert blk.dim == 1
    assert blk.basis[0] == VAC
    assert invariant_basis(2, 1, 0).dim == 0
    assert invariant_basis(2, 0, 1).dim == 0
    assert invariant_basis(2, 1, 1).dim == 0
    with pytest.raises(ValueError):
        invariant_basis(1, 2, 0)


def test_invariant_vectors_are_invariant_and_annihilated():
    for pairs in range(2):
        for k in range(2):
            blk = invariant_basis(2, pairs, k)
            for v in blk.basis:
                assert invariance_residual(v, 4) == ZERO
                assert diagonal_casimir_apply(3, v).is_zero()


def test_constraint_window_robustness():
    for pairs in range(2):
        for k in range(2):
            assert constraint_window_robust(2, pairs, k)


def test_t_square_examples():
    assert t_square_apply(VAC).is_zero()
    v = Vec.basis(ts([1], [-1], [(2, -2)]))  # (M, k) = (1, 1)
    assert t_square_apply(v) == v.scaled(4)
    # 4 D^2 = t_square on the invariant vector
    assert dirac_apply(dirac_apply(VAC)).scaled(4) == t_square_apply(VAC)


def test_t_square_is_gcasimir_plus_fermion_number():
    g = CasimirVariant(G_LIMIT)
    for t in range(5):
        v = random_vector("tensor", 50 + t, 2)
        lhs = t_square_apply(v)
        rhs = Vec()
        for state, c in v.terms.items():
            fpart = casimir_apply(g, Vec.basis(state.fock, c))
            for f2, c2 in fpart.terms.items():
                rhs = rhs + Vec.basis(TensorState(f2, state.spin), c2)
            rhs = rhs + Vec.basis(state, c * (2 * len(state.spin.modes)))
        assert lhs == rhs


def test_square_identities_on_seeded_vectors():
    for n in (3, 4):
        for t in range(3):
            v = random_vector("tensor", 31 + 10 * t, 2)
            assert square_identity_residual(n, "raw", v) == ZERO
            assert square_identity_residual(n, "hk", v) == ZERO


def test_square_final_on_invariant_vectors():
    for n in (2, 3):
        blk = invariant_basis(n, 0, 0)
        for v in blk.basis:
            assert square_identity_residual(n, "final", v) == ZERO


def test_square_final_rejects_non_invariant():
    v = Vec.basis(ts([1], [-1], []))
    with pytest.raises(ValueError):
        square_identity_residual(3, "final", v)


def test_square_unknown_form():
    with pytest.raises(ValueError):
        square_identity_residual(3, "bogus", VAC)


def test_spectrum_report():
    rep = spectrum_report(2, 2)
    assert rep["kernel_dim"] == 1
    assert rep["trunc"] == 2
    by_mk = {(b["M"], b["k"]): b for b in rep["blocks"]}
    assert by_mk[(0, 0)]["dim"] == 1
    assert by_mk[(0, 0)]["eig"] == "0"
    assert by_mk[(1, 1)]["eig"] == "1"
    assert by_mk[(0, 1)]["eig"] == "1/2"
    for b in rep["blocks"]:
        e = Fraction(b["eig"])
        assert e >= 0 and (2 * e).denominator == 1
    # kernel blocks: exactly the (0, 0) one
    null_blocks = [b for b in rep["blocks"] if b["dim"] and Fraction(b["eig"]) == 0]
    assert null_blocks == [by_mk[(0, 0)]]


def test_spectrum_report_trunc3_degree1():
    rep = spectrum_report(3, 1)
    assert rep["kernel_dim"] == 1
    for b in rep["blocks"]:
        if (b["M"], b["k"]) != (0, 0):
            assert b["dim"] == 0  # diagonal constraints force emptiness


def test_spectrum_and_robustness_trunc3_degree2():
    rep = spectrum_report(3, 2)
    assert rep["kernel_dim"] == 1
    assert sum(b["dim"] for b in rep["blocks"]) == 1
    for pairs in range(3):
        for k in range(3):
            assert constraint_window_robust(3, pairs, k), (pairs, k)


def test_t_square_differs_from_square_off_invariant_sector():
    # negative control: the diagonal form equals 4 D^2 only on invariant
    # vectors; off the sector the square has genuine off-diagonal terms
    v = Vec.basis(ts([1], [-1], [(2, -2)]))
    lhs = dirac_apply(dirac_apply(v)).scaled(4)
    rhs = t_square_apply(v)
    assert lhs != rhs
    diff = lhs - rhs
    assert diff.coeff(ts([1], [-2], [(2, -1)])) == Scalar.of(-2)
    assert diff.coeff(ts([2], [-1], [(1, -2)])) == Scalar.of(-2)
    assert len(diff) == 2
