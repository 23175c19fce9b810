"""Random bounds and seeds on both lattices: the Schwinger cocycle, the
central bracket and the Casimir window constants."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import rhat_lie_apply

from gdirac.casimir import G_REN_N, NAIVE_N, NORMAL_N, CasimirVariant, casimir_apply
from gdirac.fock import LieElement, bracket_central, rhat_apply, schwinger, window
from gdirac.rng import SplitMix64
from gdirac.sampling import random_vector

EXAMPLES = settings(max_examples=60, deadline=None)
bounds = st.integers(1, 4)
seeds = st.integers(0, 2**64 - 1)


def _index(stream: SplitMix64, n: int, zero_ok: bool) -> int:
    idx = window(n, zero_ok)
    return idx[stream.pick(len(idx))]


def _element(stream: SplitMix64, n: int, zero_ok: bool) -> LieElement:
    pick = lambda: _index(stream, n, zero_ok)
    return LieElement({(pick(), pick()): stream.coefficient() for _ in range(3)}, 0, zero_ok)


def _fock_vector(seed: int, n: int, zero_ok: bool):
    return random_vector("fock-include0" if zero_ok else "fock", seed, n)


@EXAMPLES
@given(bounds, seeds, st.booleans())
def test_schwinger_antisymmetric(n, seed, zero_ok):
    stream = SplitMix64(seed)
    a, b = _element(stream, n, zero_ok), _element(stream, n, zero_ok)
    assert schwinger(a, b) == -schwinger(b, a)
    assert bracket_central(a, b).central == schwinger(a, b)


@EXAMPLES
@given(bounds, seeds, st.booleans())
def test_bracket_central_is_the_level_one_commutator(n, seed, zero_ok):
    stream = SplitMix64(seed)
    a, b = _element(stream, n, zero_ok), _element(stream, n, zero_ok)
    v = _fock_vector(seed, n, zero_ok)
    ra = lambda w: rhat_lie_apply(a, w)
    rb = lambda w: rhat_lie_apply(b, w)
    assert ra(rb(v)) - rb(ra(v)) == rhat_lie_apply(bracket_central(a, b), v)
    # two matrix units, the case the cocycle suite tabulates
    p, q, m, k = (_index(stream, n, zero_ok) for _ in range(4))
    units = bracket_central(LieElement.unit(p, q, zero_ok), LieElement.unit(m, k, zero_ok))
    lhs = rhat_apply(p, q, rhat_apply(m, k, v)) - rhat_apply(m, k, rhat_apply(p, q, v))
    assert lhs == rhat_lie_apply(units, v)


@EXAMPLES
@given(bounds, st.integers(0, 2), seeds, st.booleans())
def test_window_constants(bound, extra, seed, zero_ok):
    # naive - normal = N(N+1) on the include-zero window, naive - g_ren = N^2
    # on the exclude-zero one, for every support inside the window; the one
    # naive variant follows the lattice of its states, also on a sum of both
    n = bound + extra
    v = _fock_vector(seed, bound, zero_ok)
    w = _fock_vector(seed + 1, bound, not zero_ok)
    naive = CasimirVariant(NAIVE_N, n)
    normal = casimir_apply(CasimirVariant(NORMAL_N if zero_ok else G_REN_N, n), v)
    assert casimir_apply(naive, v) - normal == v.scaled(n * (n + 1) if zero_ok else n * n)
    assert casimir_apply(naive, v + w) == casimir_apply(naive, v) + casimir_apply(naive, w)
