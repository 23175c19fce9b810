"""The basis-state maps and their linear lifts build results without re-validation.

``field_state``, ``rhat_state``, ``mode_state`` and ``ktilde_state_terms``
construct result states through trusted constructors that skip
``__post_init__``, and the vector operators lifted from them build their
``Vec`` results without re-filtering zeros.  These tests re-validate every
result over small bases, and check that bad arguments are still rejected.
"""

import copy
import pickle
from bisect import bisect_left
from itertools import combinations
from time import perf_counter

import pytest

from gdirac.dirac import TensorState, dirac_apply, dirac_cutoff_apply, rho_apply, tensor_states
from gdirac.fock import (
    PSI,
    PSI_STAR,
    FockState,
    LatticeError,
    apply_field,
    field_state,
    fock_basis,
    rhat_apply,
    rhat_state,
)
from gdirac.linalg import Vec
from gdirac.scalar import Scalar
from gdirac.spinor import (
    H_N,
    K_RAW,
    K_TILDE_N,
    SpinState,
    gamma_apply,
    gamma_pair_state,
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


# ---------------------------------------------------------------------------
# The bitmask encoding against the tuple-based maps it replaced.  The
# oracles below are the earlier implementations, on plain tuples: a Fock
# state is (plus, minus, zero_ok), a spin state its ascending mode tuple.


def _old_field_state(kind, k, plus, minus, zero_ok):
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


def _old_rhat_state(p, q, plus, minus, zero_ok):
    if p == q and p < 0:
        return (-1, plus, minus) if p in minus else None
    t = _old_field_state(PSI, q, plus, minus, zero_ok)
    if t is None:
        return None
    u = _old_field_state(PSI_STAR, p, t[1], t[2], zero_ok)
    if u is None:
        return None
    return t[0] * u[0], u[1], u[2]


def _old_mode_state(create, mode, modes):
    if not (mode[0] > 0 > mode[1]):
        raise ValueError(f"bad mode {mode}")
    pos = bisect_left(modes, mode)
    present = pos < len(modes) and modes[pos] == mode
    if create == present:
        return None
    new = modes[:pos] + (mode,) + modes[pos:] if create else modes[:pos] + modes[pos + 1 :]
    return (-1 if pos % 2 else 1), new


def _old_gamma_unit_state(i, j, modes):
    if i * j >= 0:
        raise ValueError("gamma needs indices of opposite sign")
    return _old_mode_state(True, (i, j), modes) if i > 0 else _old_mode_state(False, (j, i), modes)


def _old_gamma_pair_state(a, b, modes):
    t = _old_gamma_unit_state(*b, modes)
    if t is None:
        return None
    u = _old_gamma_unit_state(*a, t[1])
    if u is None:
        return None
    return t[0] * u[0], u[1]


def _old_ktilde_state_terms(i, j, modes):
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


def _fock_result(t):
    """(sign, plus, minus) of a new-map result, checking the decoded
    state against a validated rebuild (equal, with an equal hash)."""
    if t is None:
        return None
    sign, s = t
    again = FockState(s.plus, s.minus, s.zero_ok)
    assert again == s and hash(again) == hash(s)
    return sign, s.plus, s.minus


def _spin_result(t):
    if t is None:
        return None
    sign, s = t
    again = SpinState(s.modes)
    assert again == s and hash(again) == hash(s)
    return sign, s.modes


def _same_outcome(new, old, *args):
    """``new(*args)`` and ``old(*args)`` agree, raising included."""
    try:
        want = old(*args)
    except ValueError as exc:
        with pytest.raises(type(exc)):
            new(*args)
        return None
    got = new(*args)
    return got, want


def _check_fock_maps(s, window):
    plus, minus, zero_ok = s.plus, s.minus, s.zero_ok
    for k in window:
        for kind in (PSI, PSI_STAR):
            out = _same_outcome(lambda: field_state(kind, k, s), lambda: _old_field_state(kind, k, plus, minus, zero_ok))
            if out:
                assert _fock_result(out[0]) == out[1], (kind, k, s)
    for p in window:
        for q in window:
            out = _same_outcome(lambda: rhat_state(p, q, s), lambda: _old_rhat_state(p, q, plus, minus, zero_ok))
            if out:
                assert _fock_result(out[0]) == out[1], (p, q, s)


def _check_spin_maps(s, bound):
    modes = s.modes
    grid = [(m, -l) for m in range(1, bound + 2) for l in range(1, bound + 2)]
    for create in (True, False):
        for mode in grid + [(-1, 1), (1, 1)]:
            out = _same_outcome(lambda: mode_state(create, mode, s), lambda: _old_mode_state(create, mode, modes))
            if out:
                assert _spin_result(out[0]) == out[1], (create, mode, s)
    idx = [i for i in range(-bound - 1, bound + 2) if i]
    units = [(i, j) for i in idx for j in idx]
    for a in units:
        for b in units:
            if a[0] * a[1] < 0 and b[0] * b[1] < 0:
                got = _spin_result(gamma_pair_state(a, b, s))
                assert got == _old_gamma_pair_state(a, b, modes), (a, b, s)
    for i, j in units:
        out = _same_outcome(lambda: ktilde_state_terms(i, j, s), lambda: _old_ktilde_state_terms(i, j, modes))
        if out:
            assert [_spin_result(t) for t in out[0]] == out[1], (i, j, s)


@pytest.mark.parametrize("zero_ok", [False, True])
def test_fock_maps_match_the_tuple_oracle(zero_ok):
    # every index one step past the bound, and 0 on both lattices
    window = range(-FOCK_BOUND - 1, FOCK_BOUND + 2)
    for s in fock_basis(FOCK_BOUND, zero_ok):
        _check_fock_maps(s, window)


def test_spin_maps_match_the_tuple_oracle():
    for s in spin_basis(SPIN_BOUND):
        _check_spin_maps(s, SPIN_BOUND)


def test_states_round_trip_through_the_validating_constructors():
    for zero_ok in (False, True):
        for s in fock_basis(FOCK_BOUND, zero_ok):
            again = FockState(s.plus, s.minus, s.zero_ok)
            assert again == s and hash(again) == hash(s)
            assert (s.charge, s.degree) == (len(s.plus) - len(s.minus), len(s.plus) + len(s.minus))
            assert s.bound() == max(map(abs, s.plus + s.minus), default=0)
    for s in spin_basis(SPIN_BOUND):
        again = SpinState(s.modes)
        assert again == s and hash(again) == hash(s)
        assert s.length == len(s.modes)
        assert s.bound() == max((max(m, -l) for m, l in s.modes), default=0)


def test_lattices_stay_distinct():
    assert FockState((1,), (-1,)) != FockState((1,), (-1,), True)
    assert FockState.vacuum() != FockState.vacuum(True)
    assert FockState((), (-2,)) != FockState((2,), ())


def test_states_are_immutable():
    f = FockState((1, 3), (-2,))
    s = SpinState(((1, -2), (2, -1)))
    t = TensorState(f, s)
    for state, names in ((f, ("plus", "minus", "zero_ok", "plus_mask", "mask_key", "other")),
                         (s, ("modes", "mask", "mask_key", "other")), (t, ("fock", "spin", "mask_key", "other"))):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(state, name, 1)
    assert (f.plus, f.minus, s.modes, t.fock, t.spin) == ((1, 3), (-2,), ((1, -2), (2, -1)), f, s)
    # immutable, yet copied and pickled like the frozen dataclasses they
    # replace, also when built by the trusted constructor, views undecoded
    trusted = (
        FockState.from_mask_key(0b101, 0b10, True, 0),
        SpinState.from_mask_key(0, 0, False, 0b1011),
        TensorState.from_mask_key(0b110, 0b11, False, 0b101),
    )
    for state in (f, s, t, FockState((0, 2), (), True), *trusted):
        for again in (copy.copy(state), copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
            assert again == state and hash(again) == hash(state) and repr(again) == repr(state)


def test_the_three_vacua_are_distinct():
    # one key, (0, 0, False, 0), three states: equality is by class and key
    f, s, t = FockState(), SpinState(), TensorState(FockState(), SpinState())
    assert f.mask_key == s.mask_key == t.mask_key == (0, 0, False, 0)
    assert f != s and s != f and f != t and t != f and s != t and t != s
    assert len({f, s, t}) == 3


def test_str_and_sort_key_are_unchanged():
    f = FockState((1, 3), (-2, -1))
    s = SpinState(((1, -3), (2, -1)))
    assert str(f) == "F{plus:[1, 3],minus:[-2, -1]}"
    assert str(s) == "S{[(1, -3), (2, -1)]}"
    assert str(TensorState(f, s)) == "F{plus:[1, 3],minus:[-2, -1]}(x)S{[(1, -3), (2, -1)]}"
    assert f.sort_key() == (4, (1, 3), (-2, -1))
    assert s.sort_key() == (2, ((1, -3), (2, -1)))


def test_large_indices_stay_cheap():
    # no table sized by the square of the bound: a far mode and a far
    # Fock index build, flip and decode at once
    t0 = perf_counter()
    s = SpinState(((200, -1),))
    sign, s2 = mode_state(True, (1, -200), s)
    assert (sign, s2.modes) == (1, ((1, -200), (200, -1)))
    sign, s3 = mode_state(True, (200, -2), s2)
    assert (sign, s3.modes) == (-1, ((1, -200), (200, -2), (200, -1)))
    assert s3.bound() == 200 and SpinState(s3.modes) == s3
    big = 10**5
    f = FockState((1, big), (-big,))
    sign, f2 = field_state(PSI_STAR, big - 1, f)
    assert (sign, f2.plus, f2.minus) == (-1, (1, big - 1, big), (-big,))
    sign, f3 = field_state(PSI, -big + 1, f2)
    assert (sign, f3.plus, f3.minus) == (1, (1, big - 1, big), (-big, -big + 1))  # crosses 3 + 1
    assert f3.bound() == big and FockState(f3.plus, f3.minus) == f3
    assert perf_counter() - t0 < 0.5
