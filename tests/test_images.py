"""Images functions, their composition and the integer residual.

Every operator of the package is an images function, a map from the mask
key of a basis state to integer weights on mask keys, and every bracket
check of the verify suites is ``words._residual`` of a ``words._compose``
of them.  Here both are held against the vector path they replaced: each
images function against the lift of its basis-state map (``lift``, of
``oracles``), and each composed residual against
``Vec`` arithmetic with one ``Scalar`` product per term.  Vectors are
drawn on both Fock lattices, on the spin grid and on tensor states, with
``Fraction`` coefficients of denominators 1..6, with and without sqrt2
parts, and indices run past the bound of the vector.  Nonzero residuals
(a commutator in place of an anticommutator, a perturbed weight) must
come out, and be reported, the same on both paths.
"""

from collections import Counter
from fractions import Fraction
from functools import partial
from types import MappingProxyType

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import gamma_pair_state, lift, lift_sum, rho_loop_apply

from gdirac.dirac import TensorState, _dirac_images, _rho_images, rho_apply
from gdirac.fock import (
    PSI,
    PSI_STAR,
    FockState,
    _field,
    _key_images,
    _rhat,
    charge_number_apply,
    field_state,
    fock_basis,
    rhat_state,
    window,
)
from gdirac.linalg import Vec, vec_sum
from gdirac.scalar import HALF, HALF_SQRT2, ONE, SQRT2, Scalar
from gdirac.spinor import (
    H_N,
    K_RAW,
    K_TILDE_N,
    SpinState,
    _k_images,
    _ktilde,
    _unit,
    fermion_number_apply,
    gamma_unit_state,
    k_pairs,
    ktilde_state_terms,
)
from gdirac.suites import _Report
from gdirac.words import _apply, _collect, _compose, _memo, _residual

EXAMPLES = settings(max_examples=60, deadline=None)

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
# rational, or with a sqrt2 part; never zero
coefficients = st.one_of(fractions.map(Scalar), st.builds(Scalar, fractions, fractions)).filter(bool)


def _fock(draw, bound: int, zero_ok: bool) -> FockState:
    plus = draw(st.sets(st.integers(0 if zero_ok else 1, bound)))
    minus = draw(st.sets(st.integers(-bound, -1)))
    return FockState(tuple(sorted(plus)), tuple(sorted(minus)), zero_ok)


def _spin(draw, bound: int) -> SpinState:
    return SpinState.from_mask_key(0, 0, False, draw(st.integers(0, (1 << bound * bound) - 1)))


@st.composite
def vectors(draw, kind: str):
    """``(v, bound, zero_ok)``: up to 4 states of one kind and a bound
    drawn from 1..3, with nonzero coefficients.  Fock states come from
    either lattice, tensor states from the exclude-zero one that D acts
    on."""
    bound = draw(st.integers(1, 3))
    zero_ok = kind == "fock" and draw(st.booleans())
    state = {
        "fock": lambda: _fock(draw, bound, zero_ok),
        "spin": lambda: _spin(draw, bound),
        "tensor": lambda: TensorState(_fock(draw, bound, zero_ok), _spin(draw, bound)),
    }[kind]
    states = {state() for _ in range(draw(st.integers(1, 4)))}
    return Vec({s: draw(coefficients) for s in states}), bound, zero_ok


def _same_sign(data, idx):
    i = data.draw(st.sampled_from(idx))
    return i, data.draw(st.sampled_from([j for j in idx if i * j > 0] or [i]))


def _cross(data, idx):
    i = data.draw(st.sampled_from([i for i in idx if i]))
    return i, data.draw(st.sampled_from([j for j in idx if i * j < 0]))


def _factors(data, kind: str, bound: int, zero_ok: bool) -> list:
    """Images functions that act on vectors of ``kind``, with indices up
    to two past ``bound``."""
    fock_idx, spin_idx = window(bound + 2, zero_ok), window(bound + 2)
    out = []
    if kind != "spin":
        k = data.draw(st.sampled_from(fock_idx))
        p, q = data.draw(st.sampled_from(fock_idx)), data.draw(st.sampled_from(fock_idx))
        out += [_key_images(_field, False, k), _key_images(_field, True, k), _key_images(_rhat, p, q)]
    if kind != "fock":
        n = data.draw(st.integers(1, bound + 2))
        i, j = _same_sign(data, window(n))
        family = data.draw(st.sampled_from((K_RAW, K_TILDE_N, H_N)))
        out += [
            _key_images(_unit, *_cross(data, spin_idx)),
            _k_images(family, n, i, j),
            _key_images(_ktilde, *_same_sign(data, spin_idx)),
        ]
    if kind == "tensor":
        out += [_dirac_images, _rho_images(*_same_sign(data, spin_idx))]
    return out


def _draw_terms(data, pool) -> list:
    """Up to 3 terms ``(w, (f_1, ...))`` of weights in -3..3 on products
    of up to 3 images functions of ``pool``."""
    product = st.lists(st.sampled_from(pool), max_size=3).map(tuple)
    return data.draw(st.lists(st.tuples(st.integers(-3, 3), product), min_size=1, max_size=3))


def _vec_images(f, v: Vec) -> Vec:
    """The images function ``f`` extended to ``v`` through ``Vec`` sums,
    one ``Scalar`` product per term."""
    out = Vec()
    for s, c in v.terms.items():
        for key, w in f(s.mask_key).items():
            out = out + Vec.basis(type(s).from_mask_key(*key), c * w)
    return out


def _vec_path(terms, scale, v: Vec) -> Vec:
    """scale * sum w f_1(f_2(... v)) through ``Vec`` arithmetic."""
    total = Vec()
    for w, fs in terms:
        x = v
        for f in reversed(fs):
            x = _vec_images(f, x)
        total = total + x.scaled(w)
    return total.scaled(scale)


def _reports_agree(residual, vec) -> bool:
    """The two paths give the same check record, residual text included."""
    a, b = _Report("s"), _Report("s")
    a.check("c", "i", [residual])
    b.check("c", "i", [vec])
    return a.done() == b.done()


@EXAMPLES
@given(st.sampled_from(("fock", "spin", "tensor")), st.data())
def test_composed_residual_matches_the_vec_path(kind, data):
    v, bound, zero_ok = data.draw(vectors(kind))
    pool = _factors(data, kind, bound, zero_ok)
    terms = _draw_terms(data, pool)
    scale = data.draw(coefficients)
    got = _residual(v, _compose(terms), scale)
    want = _vec_path(terms, scale, v)
    assert got == want.max_abs()
    assert _reports_agree(got, want)


def test_failing_brackets_read_the_same_on_both_paths():
    # the content: residuals that do not vanish, on vectors with sqrt2
    # parts and denominators, where both paths must agree to the digit
    psi = partial(_key_images, _field, False)
    star = partial(_key_images, _field, True)
    coeffs = [Scalar(Fraction(1, 2), Fraction(-1, 3)), Scalar(2, 1), Scalar(Fraction(-5, 6)), ONE]
    basis = fock_basis(2)
    vs = [Vec({s: c for s, c in zip(basis[t:], coeffs)}) for t in range(0, len(basis), 3)]
    # and one-term vectors, which take the residual's direct path
    vs += [Vec.basis(s, c) for s, c in zip(basis[1:], coeffs)]
    cases = [
        # [psi_1, psi*_1] in place of {psi_1, psi*_1} = 1
        ([(1, (psi(1), star(1))), (-1, (star(1), psi(1))), (-1, ())], ONE),
        ([(1, (psi(-2), star(1))), (-1, (star(1), psi(-2)))], HALF_SQRT2),
        # a perturbed weight
        ([(1, (psi(2), star(2))), (2, (star(2), psi(2))), (-1, ())], SQRT2),
        ([(1, (psi(1), star(1))), (1, (star(1), psi(1)))], HALF),
        ([(1, (_key_images(_rhat, 1, -1), _key_images(_rhat, -1, 1))), (-1, ())], Scalar(Fraction(1, 3))),
    ]
    for terms, scale in cases:
        got = [_residual(v, _compose(terms), scale) for v in vs]
        want = [_vec_path(terms, scale, v) for v in vs]
        assert got == [w.max_abs() for w in want]
        assert any(got)
        a, b = _Report("s"), _Report("s")
        a.check("c", "i", got)
        b.check("c", "i", want)
        report = a.done()
        assert report == b.done() and report["failures"] == 1


def _read_only(images):
    return lambda key: MappingProxyType(images(key))


@EXAMPLES
@given(st.sampled_from(("fock", "spin", "tensor")), st.data())
def test_the_kernel_only_reads_the_images(kind, data):
    # a memo hands out the same dict on every call, so no entry point may
    # write to one: each must work on read-only mappings
    v, bound, zero_ok = data.draw(vectors(kind))
    pool = _factors(data, kind, bound, zero_ok)
    terms = _draw_terms(data, pool)
    images = _compose(terms)
    frozen = _read_only(_compose([(w, tuple(map(_read_only, fs))) for w, fs in terms]))
    one = Vec.basis(next(iter(v.terms)), 3)
    for x in (v, one):
        assert _collect(x, frozen) == _collect(x, images)
        assert _apply(x, frozen, SQRT2) == _apply(x, images, SQRT2)
        assert _residual(x, frozen, HALF) == _residual(x, images, HALF)


def test_a_memo_computes_each_key_once():
    rhat = _key_images(_rhat, 1, -1)
    calls = Counter()

    def counted(key):
        calls[key] += 1
        return rhat(key)

    memo = _memo(counted)
    keys = [s.mask_key for s in fock_basis(2)]
    for _ in range(3):
        assert [memo(k) for k in keys] == [rhat(k) for k in keys]
    assert calls == Counter(keys) and max(calls.values()) == 1
    assert memo(keys[0]) is memo(keys[0])


# one-term coefficients: integers, fractions and sqrt2 parts
one_term = st.one_of(
    st.integers(-9, 9).map(Scalar),
    fractions.map(Scalar),
    st.builds(Scalar, fractions, fractions),
).filter(bool)


@EXAMPLES
@given(st.sampled_from(("fock", "spin", "tensor")), one_term, st.sampled_from((ONE, HALF, SQRT2, HALF_SQRT2)), st.data())
def test_the_one_term_residual_is_the_largest_applied_coefficient(kind, c, scale, data):
    v, bound, zero_ok = data.draw(vectors(kind))
    one = Vec.basis(next(iter(v.terms)), c)
    pool = _factors(data, kind, bound, zero_ok)
    terms = _draw_terms(data, pool)
    for images in (_compose(terms), *pool):
        got = _residual(one, images, scale)
        want = _apply(one, images, scale).max_abs()
        assert got == want and str(got) == str(want)


@EXAMPLES
@given(vectors("fock"), st.data())
def test_fock_images_match_their_lifted_state_maps(drawn, data):
    v, bound, zero_ok = drawn
    idx = window(bound + 2, zero_ok)
    k, p, q = (data.draw(st.sampled_from(idx)) for _ in range(3))
    for kind in (PSI, PSI_STAR):
        assert _apply(v, _key_images(_field, kind == PSI_STAR, k), ONE) == lift(v, field_state, kind, k)
    assert _apply(v, _key_images(_rhat, p, q), ONE) == lift(v, rhat_state, p, q)


@EXAMPLES
@given(vectors("spin"), st.data())
def test_spin_images_match_their_lifted_state_maps(drawn, data):
    v, bound, _ = drawn
    idx = window(bound + 2)
    i, j = _cross(data, idx)
    assert _apply(v, _key_images(_unit, i, j), ONE) == lift(v, gamma_unit_state, i, j)
    # the three K families as sums of gamma_pair_state over the window
    n = data.draw(st.integers(1, bound + 2))
    i, j = _same_sign(data, window(n))
    pairs = k_pairs(n, i, j)
    k = lift_sum(v, gamma_pair_state, pairs)
    assert _apply(v, _k_images(K_RAW, n, i, j), ONE) == k
    assert _apply(v, _k_images(K_TILDE_N, n, i, j), ONE) == k - v.scaled(n * (i == j < 0))
    assert _apply(v, _k_images(H_N, n, i, j), ONE) == k - lift_sum(v, gamma_pair_state, [(b, a) for a, b in pairs])
    p, q = _same_sign(data, idx)
    terms = vec_sum(Vec.basis(s2, c * sign) for s, c in v.terms.items() for sign, s2 in ktilde_state_terms(p, q, s))
    assert _apply(v, _key_images(_ktilde, p, q), ONE) == terms


@EXAMPLES
@given(vectors("tensor"), st.data())
def test_rho_images_match_rho_apply(drawn, data):
    v, bound, _ = drawn
    p, q = _same_sign(data, window(bound + 2))
    assert rho_apply(p, q, v) == rho_loop_apply(p, q, v)


@EXAMPLES
@given(vectors("fock"), vectors("spin"))
def test_diagonal_counts_scale_each_term(fock_drawn, spin_drawn):
    # c s goes to c charge(s) s, c degree(s) s and c 2k(s) s, k(s) the
    # number of modes of a spin state
    v, w = fock_drawn[0], spin_drawn[0]

    def scaled(u: Vec, n) -> Vec:
        return Vec({s: c * n(s) for s, c in u.terms.items()})

    assert charge_number_apply("charge", v) == scaled(v, lambda s: s.charge)
    assert charge_number_apply("number", v) == scaled(v, lambda s: s.degree)
    assert fermion_number_apply(w) == scaled(w, lambda s: 2 * s.length)
