"""The canonical anticommutation and Clifford relations on random states.

On Fock vectors of bound 1..4, on both lattices,

    {psi_i, psi*_j} = delta_ij,  {psi_i, psi_j} = 0 = {psi*_i, psi*_j},

and on spin vectors of bound 1..3

    {gamma_ij, gamma_mn} = 2 delta_in delta_jm,

with indices up to two past the bound of the vector, where every field
meets only empty modes.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from gdirac.fock import PSI, PSI_STAR, FockState, apply_field, window
from gdirac.linalg import Vec
from gdirac.spinor import SpinState, gamma_apply

EXAMPLES = settings(max_examples=60, deadline=None)
coefficients = st.integers(-3, 3).filter(bool)


@st.composite
def fock_vectors(draw):
    """Up to 3 Fock states of a bound drawn from 1..4 with nonzero
    integer coefficients, and the indices two past that bound."""
    bound = draw(st.integers(1, 4))
    zero_ok = draw(st.booleans())
    plus = st.sets(st.integers(0 if zero_ok else 1, bound)).map(sorted)
    minus = st.sets(st.integers(-bound, -1)).map(sorted)
    states = st.builds(FockState, plus, minus, st.just(zero_ok))
    terms = draw(st.dictionaries(states, coefficients, min_size=1, max_size=3))
    return Vec(terms), window(bound + 2, zero_ok)


@st.composite
def spin_vectors(draw):
    """Up to 3 spin states of a bound drawn from 1..3 with nonzero integer
    coefficients, and the Clifford generators two past that bound."""
    bound = draw(st.integers(1, 3))
    states = st.integers(0, (1 << bound * bound) - 1).map(lambda mask: SpinState.from_mask_key(0, 0, False, mask))
    terms = draw(st.dictionaries(states, coefficients, min_size=1, max_size=3))
    idx = window(bound + 2)
    return Vec(terms), [(i, j) for i in idx for j in idx if i * j < 0]


def _anti(a, b, v):
    """a b v + b a v for operators a, b on vectors."""
    return a(b(v)) + b(a(v))


def _field(kind, k):
    return lambda v: apply_field(kind, k, v)


@EXAMPLES
@given(fock_vectors(), st.data())
def test_car_relations_on_random_states(vi, data):
    v, idx = vi
    i = data.draw(st.sampled_from(idx))
    # the diagonal half of the time
    j = data.draw(st.one_of(st.just(i), st.sampled_from(idx)))
    assert _anti(_field(PSI, i), _field(PSI_STAR, j), v) == (v if i == j else Vec())
    assert _anti(_field(PSI, i), _field(PSI, j), v).is_zero()
    assert _anti(_field(PSI_STAR, i), _field(PSI_STAR, j), v).is_zero()


@EXAMPLES
@given(spin_vectors(), st.data())
def test_clifford_relations_on_random_states(vg, data):
    v, gens = vg
    i, j = data.draw(st.sampled_from(gens))
    # the transposed generator half of the time
    m, n = data.draw(st.one_of(st.just((j, i)), st.sampled_from(gens)))
    out = _anti(lambda w: gamma_apply(i, j, w), lambda w: gamma_apply(m, n, w), v)
    assert out == v.scaled(2 if (i, j) == (n, m) else 0)
