"""The word-table kernel against the literal window sums it replaced.

The oracles below are the earlier implementations of the windowed
operators: the basis-state maps lifted over the window one pair or
quadruple at a time.  On the tensor side they are the cut-off Dirac
operator D_N and the ``raw`` and ``hk`` right-hand sides of 4 D_N^2, the
``hk`` form as one ``k_family_apply(H_N)`` per window pair.  On the Fock
side they are the five Casimir variants, as ``rhat_pair_state`` lifted
over the window plus the diagonal summed over the occupied indices, and
the Heisenberg shifts, as ``rhat_state`` lifted over the shifted pairs.
On the spin side they are the spinor Casimir and the cut-off fermion
number, as sums of ``k_family_apply``.  The ``final`` right side of
4 D_N^2 and the window-free square ``t_square_apply`` are checked against
the Casimir and fermion-number operators applied factor by factor
(``factor_sum``), and the integer square residual against the vector
subtraction it replaced.  They must agree exactly on random vectors, also past the window where an operator allows it (D_N then
differs from D), on vectors that mix both Fock lattices where the naive
Casimir allows it, and with coefficients whose fields have denominators
up to 6.
"""

from fractions import Fraction
from functools import partial

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_word_table import table_images

from gdirac import casimir as cas
from gdirac.casimir import casimir_apply, heisenberg_apply
from gdirac.dirac import (
    _SQUARE_WORDS,
    TensorState,
    _dirac_images,
    _final_words,
    _hk_words,
    _raw_words,
    _square_residual,
    dirac_apply,
    dirac_cutoff_apply,
    t_square_apply,
)
from gdirac.fock import FockState, _rhat, rhat_apply, rhat_state, window, window_pairs
from gdirac.linalg import Vec, _vec, add_to, lift_sum, vec_sum
from gdirac.sampling import random_vector
from gdirac.scalar import HALF, HALF_SQRT2, ONE, Scalar
from gdirac.spinor import (
    H_N,
    K_RAW,
    K_TILDE_N,
    SpinState,
    _fermion_number_words,
    fermion_number_apply,
    gamma_pair_state,
    gamma_unit_state,
    k_family_apply,
    spin_basis,
    spinor_casimir_apply,
)
from gdirac.words import _apply

EXAMPLES = settings(max_examples=100, deadline=None)
# a nonzero a + b sqrt2 with rational a, b of denominators 1..6
fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
q_sqrt2 = st.builds(Scalar, fractions, fractions).filter(bool)



def square_rhs(words_of, n, v):
    """A right-hand side of 4 D_N^2, 1/2 ``words_of(n)``, as a vector."""
    return _apply(v, table_images(words_of, n), HALF)


square_rhs_raw = partial(square_rhs, _raw_words)
square_rhs_hk = partial(square_rhs, _hk_words)


def rhat_pair_state(p, q, state):
    """E_pq E_qp on a basis state, E_qp acting first; (sign, state) or
    None."""
    zero_ok = state.zero_ok
    t = _rhat(q, p, state.plus_mask, state.minus_mask, zero_ok)
    if t is None:
        return None
    u = _rhat(p, q, t[1], t[2], zero_ok)
    if u is None:
        return None
    return -1 if (t[0] + u[0]) & 1 else 1, FockState.from_mask_key(u[1], u[2], zero_ok, 0)


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
    assert square_rhs_raw(n, v) == oracle_raw(n, v)


@EXAMPLES
@given(st.integers(1, 5), tensor_vectors())
def test_hk_form_matches_the_k_family_sum(n, v):
    assert square_rhs_hk(n, v) == oracle_hk(n, v)


def test_oracles_see_states_past_the_window():
    # at N = 1 a bound-3 vector has states the window cannot reach, and
    # D_N there is not D
    v = random_vector("tensor", 7, 3, terms=4, nonzero=True)
    assert max(ts.bound() for ts in v.terms) > 1
    assert dirac_cutoff_apply(1, v) == oracle_cutoff(1, v)
    assert square_rhs_raw(1, v) == oracle_raw(1, v)
    assert square_rhs_hk(1, v) == oracle_hk(1, v)


# ---------------------------------------------------------------------------
# Fock side: the Casimir variants and the Heisenberg shifts


def casimir_state(tag, n, s):
    """One Casimir variant on a Fock basis state: the pair quadratics
    lifted over the window of the state's lattice, plus the diagonal."""
    if tag in (cas.LIMIT, cas.G_LIMIT):
        n = s.bound()
    idx = window(n, s.zero_ok)
    if tag == cas.NAIVE_N:
        return lift_sum(Vec.basis(s), rhat_pair_state, [(i, j) for i in idx for j in idx])
    # quadratic part: 2 sum_{j<i} E_ij E_ji (raising first)
    lower = [(i, j) for i in idx for j in idx if j < i]
    quad = lift_sum(Vec.basis(s, 2), rhat_pair_state, lower)
    # diagonal part, summed over the occupied indices
    sign_corr = 0 if tag in (cas.NORMAL_N, cas.LIMIT) else 1
    diag = 0
    for i in s.plus:
        diag += 1 - 2 * i + sign_corr
    for i in s.minus:
        diag += 1 + 2 * i + sign_corr
    return quad + Vec.basis(s, diag)


def oracle_casimir(variant, v):
    return vec_sum(casimir_state(variant.tag, variant.n, s).scaled(c) for s, c in v.terms.items())


def fock_vectors(bound, zero_ok):
    """Up to 4 distinct Fock basis states of any charge and bound <=
    ``bound`` with nonzero Q(sqrt2) coefficients; the lattice of each
    state is ``zero_ok``, or drawn per state when it is None."""
    lattice = st.booleans() if zero_ok is None else st.just(zero_ok)
    states = st.builds(
        lambda z, pm, mm: FockState.from_mask_key(pm if z else pm & ~1, mm, z, 0),
        lattice,
        st.integers(0, (2 << bound) - 1),
        st.integers(0, (1 << bound) - 1),
    )
    return st.lists(st.tuples(states, q_sqrt2), min_size=1, max_size=4, unique_by=lambda t: t[0]).map(
        lambda terms: _vec(dict(terms))
    )


@st.composite
def casimir_inputs(draw):
    """A Casimir tag, a cut-off N and a vector on the tag's lattice inside
    the window; ``naive_N`` draws the lattice of each state."""
    tag = draw(st.sampled_from(sorted(cas._LATTICE)))
    n = draw(st.integers(1, 4))
    return tag, n, draw(fock_vectors(n, cas._LATTICE[tag]))


@EXAMPLES
@given(casimir_inputs())
@example(
    (
        cas.NAIVE_N,
        3,
        _vec(
            {
                FockState.from_mask_key(0b101, 0b10, True, 0): Scalar(Fraction(1, 3), Fraction(-5, 6)),
                FockState.from_mask_key(0b110, 0b01, False, 0): Scalar(-2, Fraction(1, 2)),
                FockState.from_mask_key(0b011, 0b11, True, 0): Scalar(0, 1),
            }
        ),
    )
)
def test_each_casimir_variant_matches_the_pair_sum(args):
    tag, n, v = args
    windowed = tag not in (cas.LIMIT, cas.G_LIMIT)
    variant = cas.CasimirVariant(tag, n if windowed else None)
    assert casimir_apply(variant, v) == oracle_casimir(variant, v)


def oracle_heisenberg(n, k, v):
    pairs = [(i, i + k) for i in range(-n, n + 1) if abs(i + k) <= n]
    return lift_sum(v, rhat_state, pairs)


@EXAMPLES
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), fock_vectors(n - 1, True))))
def test_each_heisenberg_shift_matches_the_pair_sum(args):
    # every shift of window(n) whose interior holds the vector
    n, v = args
    bound = max(s.bound() for s in v.terms)
    for k in window(n - bound):
        assert heisenberg_apply(n, k, v) == oracle_heisenberg(n, k, v), k


# ---------------------------------------------------------------------------
# Spin side: the spinor Casimir and the cut-off fermion number


def spin_vectors(bound):
    """Up to 4 distinct spin basis states of bound <= ``bound`` with
    nonzero Q(sqrt2) coefficients."""
    states = st.integers(0, (1 << bound * bound) - 1).map(lambda mask: SpinState.from_mask_key(0, 0, False, mask))
    return st.lists(st.tuples(states, q_sqrt2), min_size=1, max_size=4, unique_by=lambda t: t[0]).map(
        lambda terms: _vec(dict(terms))
    )


def oracle_spinor_casimir(n, v, renormalized):
    parts = [k_family_apply(K_RAW, n, i, j, k_family_apply(K_RAW, n, j, i, v)) for i, j in window_pairs(n, 1)]
    if renormalized:
        parts.append(v.scaled(-(n**3)))
    return vec_sum(parts)


@EXAMPLES
@given(st.integers(1, 4), st.booleans(), st.data())
def test_spinor_casimir_matches_the_k_family_sum(n, renormalized, data):
    v = data.draw(spin_vectors(n))
    assert spinor_casimir_apply(n, v, renormalized) == oracle_spinor_casimir(n, v, renormalized)


def fermion_number_cutoff_apply(n, v):
    """sum_{0<|i|<=N} sign(i) K~^(N)_ii, the cut-off fermion number, as
    the table of its words; the ``final`` right side of 4 D_N^2 holds
    these words."""
    return _apply(v, table_images(_fermion_number_words, n), ONE)


def oracle_fermion_number(n, v):
    parts = []
    for i in window(n):
        k = k_family_apply(K_TILDE_N, n, i, i, v)
        parts.append(k if i > 0 else -k)
    return vec_sum(parts)


@EXAMPLES
@given(st.integers(0, 4), st.data())
def test_cutoff_fermion_number_matches_the_k_family_sum(n, data):
    # also on states past the window, where F_N is not F
    v = data.draw(spin_vectors(n + 2))
    assert fermion_number_cutoff_apply(n, v) == oracle_fermion_number(n, v)


def test_cutoff_fermion_number_is_the_fermion_number_inside_the_window():
    for s in spin_basis(3):
        v = Vec.basis(s)
        for n in range(max(s.bound(), 1), max(s.bound(), 1) + 2):
            assert fermion_number_cutoff_apply(n, v) == fermion_number_apply(v)


# ---------------------------------------------------------------------------
# The square forms: the final right side, the window-free square and the
# integer residual


def factor_sum(v, fock_fn, spin_fn):
    """fock_fn (x) 1 + 1 (x) spin_fn, applied state by state."""
    out = {}
    for ts, c in v.terms.items():
        for f, x in fock_fn(_vec({ts.fock: c})).terms.items():
            add_to(out, TensorState(f, ts.spin), x)
        for s, x in spin_fn(_vec({ts.spin: c})).terms.items():
            add_to(out, TensorState(ts.fock, s), x)
    return _vec(out)


def oracle_final(n, v):
    g = cas.CasimirVariant(cas.G_REN_N, n)
    return factor_sum(v, partial(casimir_apply, g), partial(fermion_number_cutoff_apply, n))


def oracle_t_square(v):
    g = cas.CasimirVariant(cas.G_LIMIT)
    return factor_sum(v, partial(casimir_apply, g), fermion_number_apply)


def bound_of(v):
    return max(ts.bound() for ts in v.terms)


@EXAMPLES
@given(st.integers(0, 2), tensor_vectors())
def test_final_words_match_the_factor_sum(extra, v):
    n = bound_of(v) + extra
    assert square_rhs(_final_words, n, v) == oracle_final(n, v)


def _tensor(plus, minus, modes):
    return TensorState(FockState(plus, minus), SpinState(modes))


# the vacuum, and states whose spin bound exceeds their Fock bound, so
# that the window of each state is set by its spin factor
VACUUM = Vec.basis(_tensor((), (), ()))
SPIN_WIDER = _vec(
    {
        _tensor((), (), ((1, -3),)): Scalar(Fraction(1, 3), Fraction(-5, 6)),
        _tensor((1,), (-1,), ((2, -3), (3, -1))): Scalar(-2, Fraction(1, 2)),
        _tensor((2,), (-1,), ((1, -2), (1, -1), (4, -4))): Scalar(0, 1),
    }
)


@EXAMPLES
@given(tensor_vectors())
@example(VACUUM)
@example(SPIN_WIDER)
def test_t_square_matches_the_limit_factor_sum(v):
    assert t_square_apply(v) == oracle_t_square(v)


def test_t_square_on_the_vacuum_and_on_spin_wider_states():
    assert t_square_apply(VACUUM).is_zero() and oracle_t_square(VACUUM).is_zero()
    assert all(ts.spin.bound() > ts.fock.bound() for ts in SPIN_WIDER.terms)
    got = t_square_apply(SPIN_WIDER)
    assert got == oracle_t_square(SPIN_WIDER) and got


@EXAMPLES
@given(st.sampled_from(sorted(_SQUARE_WORDS)), st.integers(0, 1), tensor_vectors())
def test_exact_square_residual_matches_the_vector_subtraction(form, extra, v):
    # off the invariant sector the final form is not 4 D^2, so the
    # residual has content there
    words_of = _SQUARE_WORDS[form]
    n = bound_of(v) + extra
    lhs = dirac_apply(dirac_apply(v)).scaled(4)
    expected = (lhs - square_rhs(words_of, n, v)).max_abs()
    assert _square_residual(_dirac_images, table_images(words_of, n), v) == expected
