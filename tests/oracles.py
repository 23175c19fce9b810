"""Test oracles shared by the test modules, each on the public state API.

The package runs every operator on integer images of mask keys; the
oracles here take the other road, one signed basis state and one
``Scalar`` at a time, so the tests can hold the two against each other:

* ``lift`` and ``lift_sum`` extend a signed basis-state map linearly to
  vectors, and ``table_images`` is the kernel images of a word table;
* ``rho_loop_apply`` is the diagonal action rho on tensor vectors, one
  signed image of the key cores and one ``Scalar`` at a time, the
  reference for ``rho_apply``;
* ``rhat_lie_apply``, ``rho_weight``, ``gamma_pair_state`` and
  ``unit_word`` are operators the package no longer needs, built from
  ``rhat_apply``, the states' views and ``gamma_unit_state``;
* the ``old_*`` maps are the tuple-based state maps that the mask
  encoding replaced, on plain tuples: a Fock state is
  ``(plus, minus, zero_ok)``, a spin state its ascending mode tuple;
* ``fock_states``, ``spin_states`` and ``tensor_states`` are the shared
  hypothesis strategies, defined when hypothesis is installed.
"""

from bisect import bisect_left

import pytest

from gdirac.dirac import TensorState
from gdirac.fock import PSI, PSI_STAR, FockState, LatticeError, _rhat, field_state, rhat_apply, rhat_state
from gdirac.linalg import Vec, _vec, add_to, vec_sum
from gdirac.spinor import SpinState, _ktilde, gamma_unit_state
from gdirac.words import _table_images as table_images

try:
    from hypothesis import strategies as st
except ImportError:  # the strategies need hypothesis, the oracles do not
    st = None


def lift_sum(v: Vec, state_map, arg_list) -> Vec:
    """sum over ``args`` in ``arg_list`` of ``state_map(*args, .)`` extended
    linearly to ``v``, in one pass.

    ``state_map(*args, state)`` returns ``(sign, state)`` with ``sign`` in
    {+1, -1}, or ``None`` when the image vanishes.
    """
    out: dict = {}
    for s, c in v.terms.items():
        for args in arg_list:
            t = state_map(*args, s)
            if t is not None:
                add_to(out, t[1], c if t[0] > 0 else -c)
    return _vec(out)


def lift(v: Vec, state_map, *args) -> Vec:
    """``state_map(*args, .)`` extended linearly to ``v``."""
    return lift_sum(v, state_map, (args,))


def rho_loop_apply(p: int, q: int, v: Vec) -> Vec:
    """rhat(E_pq) (x) 1 + 1 (x) ad(E_pq), p*q > 0, on a tensor vector: the
    images of ``fock._rhat`` and ``spinor._ktilde`` added term by term,
    one state and one signed ``Scalar`` per image."""
    out: dict = {}
    for ts, c in v.terms.items():
        key = ts.mask_key
        t = _rhat(p, q, key)
        if t is not None:
            add_to(out, TensorState.from_mask_key(*t[1]), -c if t[0] & 1 else c)
        for crossings, image in _ktilde(p, q, key):
            add_to(out, TensorState.from_mask_key(*image), -c if crossings & 1 else c)
    return _vec(out)


def rhat_lie_apply(a, v: Vec) -> Vec:
    """Level-1 representation of a finite ``LieElement``; central acts as +1."""
    parts = [rhat_apply(p, q, v).scaled(c) for (p, q), c in a.terms.items()]
    if a.central:
        parts.append(v.scaled(a.central))
    return vec_sum(parts)


def rho_weight(ts: TensorState) -> dict[int, int]:
    """Weight of a tensor basis state: index i -> eigenvalue of rho(E_ii).

    The Fock factor gives +1 for an occupied positive index and -1 for an
    occupied negative one; the spin factor gives +1 at m and -1 at l for
    each mode (m, l).  Only indices of nonzero weight are stored, so a
    state is of weight zero exactly when the result is empty.
    """
    w = dict.fromkeys(ts.fock.plus, 1)
    w.update(dict.fromkeys(ts.fock.minus, -1))
    for m, l in ts.spin.modes:
        w[m] = w.get(m, 0) + 1
        w[l] = w.get(l, 0) - 1
    return {i: c for i, c in w.items() if c}


def unit_word(word, state: SpinState):
    """A product of units u_ab = gamma_ab / sqrt(2) on a spin basis state,
    its rightmost factor acting first: ``(sign, state)`` or None."""
    sign = 1
    for a, b in reversed(word):
        t = gamma_unit_state(a, b, state)
        if t is None:
            return None
        sign *= t[0]
        state = t[1]
    return sign, state


def gamma_pair_state(a, b, state: SpinState):
    """u_a u_b on a basis state, u_b acting first; (sign, state) or None."""
    return unit_word((a, b), state)


# ---------------------------------------------------------------------------
# The tuple-based state maps the mask encoding replaced


def old_field_state(kind, k, plus, minus, zero_ok):
    if k == 0 and not zero_ok:
        raise LatticeError("index 0 is not on the lattice")
    plus_side = k > 0 or (k == 0 and zero_ok)
    if plus_side:
        block, create, base_sign = plus, kind == PSI_STAR, 1
    else:
        block, create, base_sign = minus, kind == PSI, -1 if len(plus) % 2 else 1
    pos = bisect_left(block, k)
    present = pos < len(block) and block[pos] == k
    if create == present:
        return None
    sign = base_sign * (-1 if pos % 2 else 1)
    new = block[:pos] + (k,) + block[pos:] if create else block[:pos] + block[pos + 1 :]
    return (sign, new, minus) if plus_side else (sign, plus, new)


def old_rhat_state(p, q, plus, minus, zero_ok):
    if p == q and p < 0:
        return (-1, plus, minus) if p in minus else None
    t = old_field_state(PSI, q, plus, minus, zero_ok)
    if t is None:
        return None
    u = old_field_state(PSI_STAR, p, t[1], t[2], zero_ok)
    if u is None:
        return None
    return t[0] * u[0], u[1], u[2]


def old_mode_state(create, mode, modes):
    if not (mode[0] > 0 > mode[1]):
        raise ValueError(f"bad mode {mode}")
    pos = bisect_left(modes, mode)
    present = pos < len(modes) and modes[pos] == mode
    if create == present:
        return None
    new = modes[:pos] + (mode,) + modes[pos:] if create else modes[:pos] + modes[pos + 1 :]
    return (-1 if pos % 2 else 1), new


def old_gamma_unit_state(i, j, modes):
    if i * j >= 0:
        raise ValueError("gamma needs indices of opposite sign")
    return old_mode_state(True, (i, j), modes) if i > 0 else old_mode_state(False, (j, i), modes)


def old_gamma_pair_state(a, b, modes):
    t = old_gamma_unit_state(*b, modes)
    if t is None:
        return None
    u = old_gamma_unit_state(*a, t[1])
    if u is None:
        return None
    return t[0] * u[0], u[1]


def old_ktilde_state_terms(i, j, modes):
    if i * j <= 0:
        raise ValueError("isotropy indices must share a sign")
    out = []
    for h, (m, l) in enumerate(modes):
        if i > 0:
            if j != m:
                continue
            newmode, base = (i, l), 1
        else:
            if l != i:
                continue
            newmode, base = (m, j), -1
        others = modes[:h] + modes[h + 1 :]
        if newmode in others:
            continue
        pos = bisect_left(others, newmode)
        out.append((base * (-1 if (h + pos) % 2 else 1), others[:pos] + (newmode,) + others[pos:]))
    return out


def fock_result(t):
    """(sign, plus, minus) of a new-map result, checking the decoded
    state against a validated rebuild (equal, with an equal hash)."""
    if t is None:
        return None
    sign, s = t
    again = FockState(s.plus, s.minus, s.zero_ok)
    assert again == s and hash(again) == hash(s)
    return sign, s.plus, s.minus


def spin_result(t):
    if t is None:
        return None
    sign, s = t
    again = SpinState(s.modes)
    assert again == s and hash(again) == hash(s)
    return sign, s.modes


def same_outcome(new, old, *args):
    """``new(*args)`` and ``old(*args)`` agree, raising included."""
    try:
        want = old(*args)
    except ValueError as exc:
        with pytest.raises(type(exc)):
            new(*args)
        return None
    got = new(*args)
    return got, want


def check_fock_maps(s, window):
    """``field_state`` and ``rhat_state`` on ``s`` against the tuple maps,
    at every index of ``window``."""
    plus, minus, zero_ok = s.plus, s.minus, s.zero_ok
    for k in window:
        for kind in (PSI, PSI_STAR):
            out = same_outcome(lambda: field_state(kind, k, s), lambda: old_field_state(kind, k, plus, minus, zero_ok))
            if out:
                assert fock_result(out[0]) == out[1], (kind, k, s)
    for p in window:
        for q in window:
            out = same_outcome(lambda: rhat_state(p, q, s), lambda: old_rhat_state(p, q, plus, minus, zero_ok))
            if out:
                assert fock_result(out[0]) == out[1], (p, q, s)


# ---------------------------------------------------------------------------
# Shared hypothesis strategies

MAX_BOUND = 40


def _fock_states(draw):
    """``(state, bound)``: a Fock state of either lattice, bound <= 40."""
    bound = draw(st.integers(1, MAX_BOUND))
    zero_ok = draw(st.booleans())
    plus = draw(st.sets(st.integers(0 if zero_ok else 1, bound), max_size=8))
    minus = draw(st.sets(st.integers(-bound, -1), max_size=8))
    return FockState(tuple(sorted(plus)), tuple(sorted(minus)), zero_ok), bound


def _spin_states(draw):
    """``(state, bound)``: a spin state of bound <= 40."""
    bound = draw(st.integers(1, MAX_BOUND))
    modes = draw(st.sets(st.tuples(st.integers(1, bound), st.integers(-bound, -1)), max_size=8))
    return SpinState(tuple(sorted(modes))), bound


def _tensor_states(draw, bound=3):
    """A tensor state of the exclude-zero lattice, bound <= ``bound``."""
    plus = draw(st.sets(st.integers(1, bound)))
    minus = draw(st.sets(st.integers(-bound, -1)))
    modes = draw(st.sets(st.tuples(st.integers(1, bound), st.integers(-bound, -1)), max_size=5))
    return TensorState(FockState(tuple(sorted(plus)), tuple(sorted(minus))), SpinState(tuple(sorted(modes))))


if st is not None:
    fock_states = st.composite(_fock_states)
    spin_states = st.composite(_spin_states)
    tensor_states = st.composite(_tensor_states)
