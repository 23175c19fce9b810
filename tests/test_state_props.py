"""Random states at bounds up to 40: the bitmask state maps against the
tuple-based oracles of ``test_state_maps``; random tensor states: the
weight ``rho_weight`` against the diagonal of ``rho_apply``."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from test_state_maps import (
    _check_fock_maps,
    _old_gamma_pair_state,
    _old_ktilde_state_terms,
    _old_mode_state,
    _same_outcome,
    _spin_result,
)

from gdirac.dirac import TensorState, rho_apply, rho_weight
from gdirac.fock import FockState, window
from gdirac.linalg import Vec
from gdirac.spinor import SpinState, gamma_pair_state, ktilde_state_terms, mode_state

MAX_BOUND = 40
EXAMPLES = settings(max_examples=100, deadline=None)


@st.composite
def fock_states(draw):
    bound = draw(st.integers(1, MAX_BOUND))
    zero_ok = draw(st.booleans())
    plus = draw(st.sets(st.integers(0 if zero_ok else 1, bound), max_size=8))
    minus = draw(st.sets(st.integers(-bound, -1), max_size=8))
    return FockState(tuple(sorted(plus)), tuple(sorted(minus)), zero_ok), bound


@st.composite
def spin_states(draw):
    bound = draw(st.integers(1, MAX_BOUND))
    modes = draw(st.sets(st.tuples(st.integers(1, bound), st.integers(-bound, -1)), max_size=8))
    return SpinState(tuple(sorted(modes))), bound


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
    _check_fock_maps(s, window)


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
        got = _spin_result(mode_state(create, mode, s))
        assert got == _old_mode_state(create, mode, modes)

        a = (_near(data, bound), _near(data, bound))
        b = (_near(data, bound), _near(data, bound))
        if a[0] * a[1] < 0 and b[0] * b[1] < 0:
            assert _spin_result(gamma_pair_state(a, b, s)) == _old_gamma_pair_state(a, b, modes)

        i, j = _near(data, bound), _near(data, bound)
        if modes and data.draw(st.booleans()):
            # aim at an occupied mode so the derivation acts
            m, l = data.draw(st.sampled_from(modes))
            i, j = (abs(i), m) if data.draw(st.booleans()) else (l, -abs(j))
        out = _same_outcome(lambda: ktilde_state_terms(i, j, s), lambda: _old_ktilde_state_terms(i, j, modes))
        if out:
            assert [_spin_result(t) for t in out[0]] == out[1], (i, j, s)


@st.composite
def tensor_states(draw, bound=3):
    plus = draw(st.sets(st.integers(1, bound)))
    minus = draw(st.sets(st.integers(-bound, -1)))
    modes = draw(st.sets(st.tuples(st.integers(1, bound), st.integers(-bound, -1)), max_size=5))
    return TensorState(FockState(tuple(sorted(plus)), tuple(sorted(minus))), SpinState(tuple(sorted(modes))))


@EXAMPLES
@given(tensor_states())
def test_rho_weight_is_the_diagonal_of_rho_on_random_states(ts):
    v = Vec.basis(ts)
    w = rho_weight(ts)
    for i in window(3):
        assert rho_apply(i, i, v) == v.scaled(w.get(i, 0)), (ts, i)
