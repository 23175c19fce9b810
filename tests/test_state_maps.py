"""The basis-state maps and their linear lifts build results without re-validation.

``field_state``, ``rhat_state``, ``mode_state`` and ``ktilde_state_terms``
construct result states through trusted constructors that skip
``__post_init__``, and the vector operators lifted from them build their
``Vec`` results without re-filtering zeros.  These tests re-validate every
result over small bases, and check that bad arguments are still rejected.
"""

from itertools import combinations

import pytest

from gdirac.dirac import dirac_apply, dirac_cutoff_apply, rho_apply, tensor_states
from gdirac.fock import PSI, PSI_STAR, FockState, apply_field, field_state, fock_basis, rhat_apply, rhat_state
from gdirac.linalg import Vec
from gdirac.scalar import Scalar
from gdirac.spinor import (
    H_N,
    K_RAW,
    K_TILDE_N,
    SpinState,
    gamma_apply,
    gamma_unit_state,
    k_family_apply,
    ktilde_exact_apply,
    ktilde_state_terms,
    mode_state,
    spin_basis,
)

FOCK_BOUND = 3
SPIN_BOUND = 2


def _fock_window(zero_ok):
    # one index beyond the basis bound on each side, so creation leaves it
    return [k for k in range(-FOCK_BOUND - 1, FOCK_BOUND + 2) if k or zero_ok]


def _revalidated(s):
    if isinstance(s, FockState):
        return FockState(s.plus, s.minus, s.zero_ok)
    return SpinState(s.modes)


def _assert_canonical(results):
    count = 0
    for t in results:
        if t is None:
            continue
        _, s = t
        assert s == _revalidated(s)
        count += 1
    assert count  # the maps were exercised on nonzero results


def test_mode_state_rejects_bad_mode():
    with pytest.raises(ValueError):
        mode_state(True, (-1, 2), SpinState())
    with pytest.raises(ValueError):
        mode_state(False, (1, 2), SpinState())
    with pytest.raises(ValueError):
        gamma_unit_state(1, 2, SpinState())
    with pytest.raises(ValueError):
        gamma_unit_state(-1, -2, SpinState())


@pytest.mark.parametrize("zero_ok", [False, True])
def test_fock_maps_return_canonical_states(zero_ok):
    window = _fock_window(zero_ok)
    for s in fock_basis(FOCK_BOUND, zero_ok):
        _assert_canonical(field_state(kind, k, s) for kind in (PSI, PSI_STAR) for k in window)
        _assert_canonical(rhat_state(p, q, s) for p in window for q in window)


def test_spin_maps_return_canonical_states():
    window = range(1, SPIN_BOUND + 2)
    modes = [(m, -l) for m in window for l in window]
    for s in spin_basis(SPIN_BOUND):
        _assert_canonical(mode_state(create, mode, s) for create in (True, False) for mode in modes)
        for sign in (1, -1):
            pairs = [(sign * i, sign * j) for i in window for j in window]
            terms = [t for i, j in pairs for t in ktilde_state_terms(i, j, s)]
            if s.modes:
                _assert_canonical(terms)


def _assert_canonical_vec(v):
    assert all(isinstance(c, Scalar) and c for c in v.terms.values())
    assert v == Vec(dict(v.terms))


def _lifted_cancellations(op, basis) -> int:
    """Check ``op`` on every basis state and on two-state sums built so
    that one shared image coefficient cancels; count those sums."""
    images = [(s, op(Vec.basis(s))) for s in basis]
    cancelled = 0
    for s, img in images:
        _assert_canonical_vec(img)
    for (s, a), (t, b) in combinations(images, 2):
        shared = a.terms.keys() & b.terms.keys()
        if not shared:
            continue
        key = min(shared, key=lambda k: k.sort_key())
        out = op(Vec({s: b.terms[key], t: -a.terms[key]}))
        _assert_canonical_vec(out)
        assert key not in out.terms
        cancelled += 1
    return cancelled


def test_lifted_fock_operators_return_canonical_vecs():
    basis = fock_basis(2)
    window = [k for k in range(-3, 4) if k]
    for k in window:
        for kind in (PSI, PSI_STAR):
            _lifted_cancellations(lambda v: apply_field(kind, k, v), basis)
        for q in window:
            _lifted_cancellations(lambda v: rhat_apply(k, q, v), basis)


def test_lifted_spin_operators_return_canonical_vecs():
    basis = spin_basis(2)
    window = [k for k in range(-3, 4) if k]
    cancelled = 0
    for i in window:
        for j in window:
            if i * j < 0:
                _lifted_cancellations(lambda v: gamma_apply(i, j, v), basis)
                continue
            cancelled += _lifted_cancellations(lambda v: ktilde_exact_apply(i, j, v), basis)
            if max(abs(i), abs(j)) <= 2:
                for family in (K_RAW, K_TILDE_N, H_N):
                    cancelled += _lifted_cancellations(lambda v: k_family_apply(family, 2, i, j, v), basis)
    assert cancelled


def test_lifted_tensor_operators_return_canonical_vecs():
    basis = tensor_states(2)
    cancelled = _lifted_cancellations(dirac_apply, basis)
    cancelled += _lifted_cancellations(lambda v: dirac_cutoff_apply(2, v), basis)
    for p, q in [(1, 1), (1, 2), (2, 1), (-1, -2), (-2, -2)]:
        cancelled += _lifted_cancellations(lambda v: rho_apply(p, q, v), basis)
    assert cancelled
