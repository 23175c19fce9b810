"""The word-table kernel against the literal window sums it replaced.

The oracles below are the earlier implementations of the cut-off Dirac
operator D_N and of the ``raw`` and ``hk`` right-hand sides of 4 D_N^2:
the basis-state maps lifted over the window one pair or quadruple at a
time, and the ``hk`` form as one ``k_family_apply(H_N)`` per window pair.
They must agree exactly on random tensor vectors, also when N is below
the support bound of the vector, where D_N differs from D, and with
coefficients whose fields have denominators up to 6.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from gdirac.dirac import TensorState, _square_rhs_hk, _square_rhs_raw, dirac_cutoff_apply
from gdirac.fock import rhat_apply, rhat_pair_state, rhat_state, window, window_pairs
from gdirac.linalg import _vec, lift_sum, vec_sum
from gdirac.sampling import random_vector
from gdirac.scalar import HALF, HALF_SQRT2, Scalar
from gdirac.spinor import H_N, gamma_pair_state, gamma_unit_state, k_family_apply

EXAMPLES = settings(max_examples=100, deadline=None)
# a nonzero a + b sqrt2 with rational a, b of denominators 1..6
fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
q_sqrt2 = st.builds(Scalar, fractions, fractions).filter(bool)


def _e_gamma_state(p, q, ts):
    """E_pq (x) u_qp on a tensor basis state, u = gamma / sqrt(2)."""
    t = gamma_unit_state(q, p, ts.spin)
    if t is None:
        return None
    u = rhat_state(p, q, ts.fock)
    if u is None:
        return None
    return t[0] * u[0], TensorState(u[1], t[1])


def _e_pair_state(p, q, a, b, ts):
    """E_pq (x) u_a u_b on a tensor basis state."""
    t = gamma_pair_state(a, b, ts.spin)
    if t is None:
        return None
    u = rhat_state(p, q, ts.fock)
    if u is None:
        return None
    return t[0] * u[0], TensorState(u[1], t[1])


def _spin_op_tensor(v, spin_fn):
    """1 (x) spin_fn applied factor-wise."""
    grouped = {}
    for ts, c in v.terms.items():
        grouped.setdefault(ts.fock, {})[ts.spin] = c
    return _vec({TensorState(f, s): c for f, terms in grouped.items() for s, c in spin_fn(_vec(terms)).terms.items()})


def _fock_op_tensor(v, fock_fn):
    """fock_fn (x) 1 applied factor-wise."""
    grouped = {}
    for ts, c in v.terms.items():
        grouped.setdefault(ts.spin, {})[ts.fock] = c
    return _vec({TensorState(f, s): c for s, terms in grouped.items() for f, c in fock_fn(_vec(terms)).terms.items()})


def oracle_cutoff(n, v):
    return lift_sum(v, _e_gamma_state, window_pairs(n, -1)).scaled(HALF_SQRT2)


def oracle_raw(n, v):
    pairs = window_pairs(n, -1)
    plus, minus = [], []
    for i, j in pairs:
        for m, n2 in pairs:
            ji, nm = (j, i), (n2, m)
            if j == m:
                plus.append((i, n2, ji, nm))
                minus.append((i, n2, nm, ji))
            if n2 == i:
                minus.append((m, j, ji, nm))
                plus.append((m, j, nm, ji))
    out = (lift_sum(v, _e_pair_state, plus) - lift_sum(v, _e_pair_state, minus)).scaled(HALF)
    plus_units = [((i, j), (j, i)) for i, j in pairs if i > 0]
    minus_units = [((i, j), (j, i)) for i, j in pairs if i < 0]
    out = out + _spin_op_tensor(
        v, lambda sv: lift_sum(sv, gamma_pair_state, plus_units) - lift_sum(sv, gamma_pair_state, minus_units)
    )
    return out + _fock_op_tensor(v, lambda fv: lift_sum(fv, rhat_pair_state, pairs))


def oracle_hk(n, v):
    cross = window_pairs(n, -1)
    parts = [_fock_op_tensor(v, lambda fv: lift_sum(fv, rhat_pair_state, cross))]
    for i, j in window_pairs(n, 1):
        mid = _spin_op_tensor(v, lambda sv: k_family_apply(H_N, n, j, i, sv))
        parts.append(_fock_op_tensor(mid, lambda fv: rhat_apply(i, j, fv)).scaled(-2))
    for i in window(n):
        h = _spin_op_tensor(v, lambda sv: k_family_apply(H_N, n, i, i, sv))
        parts.append(h if i > 0 else -h)
    return vec_sum(parts)


@st.composite
def tensor_vectors(draw):
    """A random charge-0 tensor vector of bound <= 4 and at most 4 terms,
    scaled by a nonzero element of Q(sqrt2)."""
    seed = draw(st.integers(0, 2**32))
    bound = draw(st.integers(1, 4))
    terms = draw(st.integers(1, 4))
    return random_vector("tensor", seed, bound, terms=terms, nonzero=True).scaled(draw(q_sqrt2))


@EXAMPLES
@given(st.integers(1, 5), tensor_vectors())
def test_cutoff_operator_matches_the_window_sum(n, v):
    assert dirac_cutoff_apply(n, v) == oracle_cutoff(n, v)


@EXAMPLES
@given(st.integers(1, 5), tensor_vectors())
def test_raw_form_matches_the_quadruple_sum(n, v):
    assert _square_rhs_raw(n, v) == oracle_raw(n, v)


@EXAMPLES
@given(st.integers(1, 5), tensor_vectors())
def test_hk_form_matches_the_k_family_sum(n, v):
    assert _square_rhs_hk(n, v) == oracle_hk(n, v)


def test_oracles_see_states_past_the_window():
    # at N = 1 a bound-3 vector has states the window cannot reach, and
    # D_N there is not D
    v = random_vector("tensor", 7, 3, terms=4, nonzero=True)
    assert max(ts.bound() for ts in v.terms) > 1
    assert dirac_cutoff_apply(1, v) == oracle_cutoff(1, v)
    assert _square_rhs_raw(1, v) == oracle_raw(1, v)
    assert _square_rhs_hk(1, v) == oracle_hk(1, v)
