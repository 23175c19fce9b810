"""Deterministic stream and random-vector contracts."""

import pytest

from gdirac import sampling
from gdirac.dirac import TensorState
from gdirac.fock import FockState
from gdirac.rng import SplitMix64
from gdirac.sampling import SPACES, _draw_subset, random_vector
from gdirac.spinor import SpinState


def test_splitmix64_known_stream():
    # reference values for seed 0 (standard splitmix64 constants)
    stream = SplitMix64(0)
    assert stream.next_u64() == 0xE220A8397B1DCDAF
    assert stream.next_u64() == 0x6E789E6AA1B965F4
    assert stream.next_u64() == 0x06C45D188009454F


def test_coefficient_range():
    stream = SplitMix64(123)
    vals = {stream.coefficient() for _ in range(500)}
    assert vals <= set(range(-9, 10))
    assert min(vals) < 0 < max(vals)
    nz = {stream.nonzero_coefficient() for _ in range(500)}
    assert 0 not in nz and nz <= set(range(-9, 10))


def test_random_vector_deterministic():
    a = random_vector("fock", 1, 2)
    b = random_vector("fock", 1, 2)
    assert a == b
    assert a != random_vector("fock", 2, 2)


def test_random_vector_respects_bounds():
    v = random_vector("spin", 7, 3)
    assert v
    for s in v.terms:
        assert isinstance(s, SpinState)
        for m, l in s.modes:
            assert 0 < m <= 3 and -3 <= l < 0
    w = random_vector("fock", 9, 2)
    for s in w.terms:
        assert isinstance(s, FockState)
        assert s.bound() <= 2


def test_random_vector_spaces():
    t = random_vector("tensor", 3, 2)
    for s in t.terms:
        assert isinstance(s, TensorState)
        assert s.fock.charge == 0
    f0 = random_vector("fock0", 4, 3)
    for s in f0.terms:
        assert s.charge == 0
    fi = random_vector("fock-include0", 5, 2)
    for s in fi.terms:
        assert s.zero_ok


def test_random_vector_coefficients_in_range():
    for seed in range(20):
        v = random_vector("tensor", seed, 3)
        for c in v.terms.values():
            assert c.b == 0 and -9 <= c.a <= 9 and c.a != 0


def test_random_vector_validation():
    with pytest.raises(ValueError):
        random_vector("fock", 1, 0)
    with pytest.raises(ValueError):
        random_vector("bogus", 1, 2)


def _validated_fock(stream, bound, zero_ok, charge0):
    """The Fock draw through the validating constructor, as the reference:
    the same stream calls and subsets as ``sampling._draw_fock``."""
    plus_pool = list(range(0 if zero_ok else 1, bound + 1))
    minus_pool = list(range(-bound, 0))
    a = stream.pick(len(plus_pool) + 1)
    b = a if charge0 else stream.pick(len(minus_pool) + 1)
    plus = _draw_subset(stream, plus_pool, a)
    minus = _draw_subset(stream, minus_pool, b)
    if charge0:
        k = min(len(plus), len(minus))
        plus, minus = plus[:k], minus[:k]
    return FockState(plus, minus, zero_ok)


def _validated_spin(stream, bound):
    pool = [(m, l) for m in range(1, bound + 1) for l in range(-bound, 0)]
    return SpinState(_draw_subset(stream, pool, stream.pick(bound + 1)))


def test_draws_equal_the_validated_states_of_their_subsets(monkeypatch):
    cases = [(space, seed, bound) for space in SPACES for seed in range(60) for bound in (1, 2, 4)]
    drawn = [random_vector(*case, terms=6) for case in cases]
    monkeypatch.setattr(sampling, "_draw_fock", _validated_fock)
    monkeypatch.setattr(sampling, "_draw_spin", _validated_spin)
    for case, v in zip(cases, drawn):
        want = random_vector(*case, terms=6)
        assert v == want, case
        assert [repr(s) for s in v.terms] == [repr(s) for s in want.terms]
