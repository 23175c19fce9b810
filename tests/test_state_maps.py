"""The basis-state maps build their results without re-validation.

``field_state``, ``rhat_state``, ``mode_state`` and ``ktilde_state_terms``
construct result states through trusted constructors that skip
``__post_init__``.  These tests re-validate every result over small
bases, and check that bad arguments are still rejected.
"""

import pytest

from gdirac.fock import PSI, PSI_STAR, FockState, field_state, fock_basis, rhat_state
from gdirac.spinor import SpinState, gamma_unit_state, ktilde_state_terms, mode_state, spin_basis

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
