"""Random states at bounds up to 40: the bitmask state maps against the
tuple-based oracles of ``oracles``, the trusted constructor
``from_mask_key`` against the validating ones, and the weight lemma;
random tensor states: the weight ``rho_weight`` against the diagonal of
``rho_apply``, and ``rho_apply`` against the state maps of its two
factors."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    check_fock_maps,
    fock_states,
    gamma_pair_state,
    old_gamma_pair_state,
    old_ktilde_state_terms,
    old_mode_state,
    rho_weight,
    same_outcome,
    spin_result,
    spin_states,
    tensor_states,
)

from gdirac.dirac import TensorState, rho_apply
from gdirac.fock import FockState, rhat_state, window
from gdirac.linalg import Vec, add_to
from gdirac.spinor import SpinState, ktilde_state_terms, mode_state

EXAMPLES = settings(max_examples=100, deadline=None)


def _near(data, bound):
    """A nonzero index up to one step past the bound."""
    return data.draw(st.integers(-bound - 1, bound + 1).filter(bool))


@EXAMPLES
@given(fock_states(), st.data())
def test_fock_maps_match_the_oracle_on_random_states(drawn, data):
    s, bound = drawn
    occupied = list(s.plus + s.minus)
    pool = st.sampled_from(occupied) | st.integers(-bound - 1, bound + 1) if occupied else st.integers(-bound - 1, bound + 1)
    window = data.draw(st.lists(pool, min_size=1, max_size=4))
    check_fock_maps(s, window)


@EXAMPLES
@given(spin_states(), st.data())
def test_spin_maps_match_the_oracle_on_random_states(drawn, data):
    s, bound = drawn
    modes = s.modes
    for _ in range(4):
        create = data.draw(st.booleans())
        if modes and data.draw(st.booleans()):
            mode = data.draw(st.sampled_from(modes))
        else:
            mode = (data.draw(st.integers(1, bound + 1)), data.draw(st.integers(-bound - 1, -1)))
        got = spin_result(mode_state(create, mode, s))
        assert got == old_mode_state(create, mode, modes)

        a = (_near(data, bound), _near(data, bound))
        b = (_near(data, bound), _near(data, bound))
        if a[0] * a[1] < 0 and b[0] * b[1] < 0:
            assert spin_result(gamma_pair_state(a, b, s)) == old_gamma_pair_state(a, b, modes)

        i, j = _near(data, bound), _near(data, bound)
        if modes and data.draw(st.booleans()):
            # aim at an occupied mode so the derivation acts
            m, l = data.draw(st.sampled_from(modes))
            i, j = (abs(i), m) if data.draw(st.booleans()) else (l, -abs(j))
        out = same_outcome(lambda: ktilde_state_terms(i, j, s), lambda: old_ktilde_state_terms(i, j, modes))
        if out:
            assert [spin_result(t) for t in out[0]] == out[1], (i, j, s)


@EXAMPLES
@given(tensor_states())
def test_rho_weight_is_the_diagonal_of_rho_on_random_states(ts):
    v = Vec.basis(ts)
    w = rho_weight(ts)
    for i in window(3):
        assert rho_apply(i, i, v) == v.scaled(w.get(i, 0)), (ts, i)


@EXAMPLES
@given(fock_states(), spin_states())
@example((FockState(), 1), (SpinState(), 1))
def test_only_the_vacua_have_weight_zero(drawn_fock, drawn_spin):
    # the weight lemma behind ``dirac._block_states``, on both lattices
    # and at any charge
    (f, _), (s, _) = drawn_fock, drawn_spin
    vacua = f == FockState.vacuum(f.zero_ok) and s == SpinState.vacuum()
    assert (not rho_weight(TensorState(f, s))) == vacua, (f, s)


@EXAMPLES
@given(st.one_of(fock_states().map(lambda d: d[0]), spin_states().map(lambda d: d[0]), tensor_states()))
def test_from_mask_key_rebuilds_each_state(s):
    again = type(s).from_mask_key(*s.mask_key)
    assert again == s and hash(again) == hash(s) and repr(again) == repr(s)


@EXAMPLES
@given(tensor_states(), st.data())
def test_rho_matches_its_factor_maps_on_random_states(ts, data):
    # rhat(E_pq) (x) 1 + 1 (x) ad(E_pq) through the Fock and spin state maps
    p = data.draw(st.integers(-4, 4).filter(bool))
    q = data.draw(st.integers(1, 4)) * (1 if p > 0 else -1)
    want: dict = {}
    t = rhat_state(p, q, ts.fock)
    if t is not None:
        add_to(want, TensorState(t[1], ts.spin), t[0])
    for sign, s2 in ktilde_state_terms(p, q, ts.spin):
        add_to(want, TensorState(ts.fock, s2), sign)
    assert rho_apply(p, q, Vec.basis(ts)) == Vec(want), (ts, p, q)
