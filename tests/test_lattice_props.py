"""Random bounds and seeds on both lattices: the Schwinger cocycle, the
central bracket and the Casimir window constants; and the closed forms of
both central extensions (the central bracket with the Schwinger cocycle,
and the o_res bracket with its cocycle) on random Q(sqrt2) matrices."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import rhat_lie_apply

from gdirac.casimir import G_REN_N, NAIVE_N, NORMAL_N, CasimirVariant, casimir_apply
from gdirac.fock import LieElement, bracket_central, ores_bracket, ores_cocycle, rhat_apply, schwinger, window
from gdirac.linalg import add_to
from gdirac.rng import SplitMix64
from gdirac.sampling import random_vector
from gdirac.scalar import ZERO, Scalar

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


def _surd(stream: SplitMix64) -> Scalar:
    """A random a + b sqrt2, a and b in [-9, 9]."""
    return Scalar.of(stream.coefficient(), stream.coefficient())


def _table_sum(tables) -> dict:
    out: dict = {}
    for t in tables:
        for k, c in t.items():
            add_to(out, k, c)
    return out


def _negated(t: dict) -> dict:
    return {k: -c for k, c in t.items()}


def _cyclic(x, y, z):
    return ((x, y, z), (y, z, x), (z, x, y))


@EXAMPLES
@given(bounds, seeds, st.booleans())
def test_bracket_central_defines_a_central_extension(n, seed, zero_ok):
    # antisymmetric, with the Jacobi identity on its matrix part and the
    # 2-cocycle identity s([a,b],c) + s([b,c],a) + s([c,a],b) = 0 on its
    # central part, which together are the Jacobi identity of the extension
    stream = SplitMix64(seed)
    pick = lambda: _index(stream, n, zero_ok)
    a, b, c = (LieElement({(pick(), pick()): _surd(stream) for _ in range(3)}, 0, zero_ok) for _ in range(3))
    ab, ba = bracket_central(a, b), bracket_central(b, a)
    assert ab.terms == _negated(ba.terms) and ab.central == -ba.central
    assert _table_sum(bracket_central(bracket_central(x, y), z).terms for x, y, z in _cyclic(a, b, c)) == {}
    assert sum((schwinger(bracket_central(x, y), z) for x, y, z in _cyclic(a, b, c)), ZERO) == 0


def _ores_triple(stream: SplitMix64, n: int):
    """(d, b, c) over the positive indices <= n: d any matrix, b and c
    antisymmetric."""
    pick = lambda: 1 + stream.pick(n)
    d = _table_sum({(pick(), pick()): _surd(stream)} for _ in range(3))
    pairs = lambda: [(pick(), pick(), _surd(stream)) for _ in range(3)]
    b, c = (_table_sum({(i, j): x, (j, i): -x} for i, j, x in pairs() if i != j) for _ in range(2))
    return d, b, c


@EXAMPLES
@given(bounds, seeds)
def test_ores_bracket_defines_a_central_extension(n, seed):
    # antisymmetric, closed on (d, antisymmetric b, antisymmetric c),
    # Jacobi componentwise, and its cocycle a 2-cocycle
    stream = SplitMix64(seed)
    x, y, z = (_ores_triple(stream, n) for _ in range(3))
    xy = ores_bracket(x, y)
    assert xy == tuple(_negated(t) for t in ores_bracket(y, x))
    assert ores_cocycle(x, y) == -ores_cocycle(y, x)
    assert all(t == _negated({(j, i): v for (i, j), v in t.items()}) for t in xy[1:])
    jacobi = [ores_bracket(ores_bracket(u, v), w) for u, v, w in _cyclic(x, y, z)]
    assert [_table_sum(parts) for parts in zip(*jacobi)] == [{}, {}, {}]
    assert sum((ores_cocycle(ores_bracket(u, v), w) for u, v, w in _cyclic(x, y, z)), ZERO) == 0
