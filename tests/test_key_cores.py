"""The mask-key cores of the basic operators, and the K-family tables.

``fock._field``, ``fock._rhat``, ``spinor._unit`` and ``spinor._ktilde``
take the mask key ``(pm, mm, zero_ok, spin)`` of a basis state of any
class and act on one half of it.  On every tensor key of bound <= 2, on
both Fock lattices, the half a core does not touch must come back
unchanged, and the half it touches must equal the core's result on the
Fock-only or spin-only key.  The K-family operators run on word tables;
they must equal the unit-pair oracle of ``oracles``, also on spin vectors
past the cut-off N.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import gamma_pair_state, lift_sum

from gdirac.fock import _field, _rhat, fock_basis, window, window_pairs
from gdirac.linalg import Vec
from gdirac.scalar import Scalar
from gdirac.spinor import H_N, K_RAW, K_TILDE_N, SpinState, _ktilde, _unit, k_family_apply, k_pairs, spin_basis

BOUND = 2


def _keys(zero_ok):
    """Every tensor key of bound <= 2 on one Fock lattice, any charge."""
    return [(*f.mask_key[:3], s.mask_key[3]) for f in fock_basis(BOUND, zero_ok) for s in spin_basis(BOUND)]


def _terms(t):
    """A core's result as a list of ``(crossings, key)``."""
    if t is None:
        return []
    return t if isinstance(t, list) else [t]


def _fock_cores(zero_ok):
    idx = window(BOUND + 1, zero_ok)
    cores = [(_field, (star, k)) for star in (False, True) for k in idx]
    return cores + [(_rhat, (p, q)) for p in idx for q in idx]


def _spin_cores():
    return [(_unit, pair) for pair in window_pairs(BOUND + 1, -1)] + [(_ktilde, pair) for pair in window_pairs(BOUND + 1, 1)]


@pytest.mark.parametrize("zero_ok", [False, True])
def test_the_fock_cores_carry_the_spin_half_along(zero_ok):
    acted = 0
    for core, args in _fock_cores(zero_ok):
        for key in _keys(zero_ok):
            got = _terms(core(*args, key))
            alone = _terms(core(*args, (*key[:3], 0)))
            assert [(c, k[:3]) for c, k in got] == [(c, k[:3]) for c, k in alone], (core, args, key)
            assert all(k[3] == key[3] for _, k in got) and all(k[3] == 0 for _, k in alone)
            acted += bool(got)
    assert acted


@pytest.mark.parametrize("zero_ok", [False, True])
def test_the_spin_cores_carry_the_fock_half_along(zero_ok):
    acted = 0
    for core, args in _spin_cores():
        for key in _keys(zero_ok):
            got = _terms(core(*args, key))
            alone = _terms(core(*args, (0, 0, False, key[3])))
            assert [(c, k[3]) for c, k in got] == [(c, k[3]) for c, k in alone], (core, args, key)
            assert all(k[:3] == key[:3] for _, k in got)
            acted += bool(got)
    assert acted


@st.composite
def spin_past(draw):
    """``(v, n)``: up to 4 spin states of bound <= N + 2, the first past
    the cut-off N, with nonzero rational coefficients."""
    n = draw(st.integers(1, 3))
    top = 1 << (n + draw(st.integers(1, 2))) ** 2
    # a mask with a bit at n^2 or above holds a mode past the window
    first = draw(st.integers(1 << n * n, top - 1))
    others = draw(st.lists(st.integers(0, top - 1), max_size=3))
    coeffs = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6))
    return Vec({SpinState.from_mask_key(0, 0, False, s): Scalar(draw(coeffs)) for s in {first, *others}}), n


@settings(max_examples=60, deadline=None)
@given(spin_past(), st.data())
def test_the_k_family_tables_equal_the_unit_pair_sums_past_the_bound(drawn, data):
    v, n = drawn
    assert max(s.bound() for s in v.terms) > n
    i, j = data.draw(st.sampled_from(window_pairs(n, 1)))
    pairs = k_pairs(n, i, j)
    k = lift_sum(v, gamma_pair_state, pairs)
    assert k_family_apply(K_RAW, n, i, j, v) == k
    assert k_family_apply(K_TILDE_N, n, i, j, v) == k - v.scaled(n * (i == j < 0))
    # H is half the unit pairs minus their reverses
    h = (k - lift_sum(v, gamma_pair_state, [(b, a) for a, b in pairs])).scaled(Scalar(Fraction(1, 2)))
    assert k_family_apply(H_N, n, i, j, v) == h
