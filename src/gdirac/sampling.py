"""Deterministic random vectors for the verification suites.

States are drawn directly from the splitmix64 stream, never by
enumerating a basis, and the output is reproducible bit for bit:
identical (space, seed, bound, terms) always give the identical vector.
A draw still grows with the support bound: a Fock draw builds pools of
about 2 * bound indices, and a spin draw a pool of bound^2 modes, whose
state mask spans up to bound^2 bits.
"""

from __future__ import annotations

from .dirac import TensorState
from .fock import FockState
from .linalg import Vec
from .rng import SplitMix64
from .spinor import SpinState
from .words import _mode_bit

SPACES = ("fock", "fock0", "fock-include0", "spin", "tensor")

_MAX_TRIES = 64


def _draw_subset(stream: SplitMix64, pool: list, size: int) -> tuple:
    chosen: set = set()
    tries = 0
    while len(chosen) < size and tries < _MAX_TRIES:
        chosen.add(pool[stream.pick(len(pool))])
        tries += 1
    return tuple(sorted(chosen))


def _draw_fock(stream: SplitMix64, bound: int, zero_ok: bool, charge0: bool) -> FockState:
    lo = 0 if zero_ok else 1
    plus_pool = list(range(lo, bound + 1))
    minus_pool = list(range(-bound, 0))
    a = stream.pick(len(plus_pool) + 1)
    b = a if charge0 else stream.pick(len(minus_pool) + 1)
    plus = _draw_subset(stream, plus_pool, a)
    minus = _draw_subset(stream, minus_pool, b)
    if charge0 and len(plus) != len(minus):
        k = min(len(plus), len(minus))
        plus, minus = plus[:k], minus[:k]
    # the drawn blocks are valid and ascending: store their masks
    pm = sum(1 << k for k in plus)
    mm = sum(1 << (-1 - l) for l in minus)
    return FockState.from_mask_key(pm, mm, zero_ok, 0)


def _draw_spin(stream: SplitMix64, bound: int) -> SpinState:
    pool = [(m, l) for m in range(1, bound + 1) for l in range(-bound, 0)]
    modes = _draw_subset(stream, pool, stream.pick(bound + 1))
    return SpinState.from_mask_key(0, 0, False, sum(1 << _mode_bit(m, l) for m, l in modes))


def _draw_state(stream: SplitMix64, space: str, bound: int):
    if space == "fock":
        return _draw_fock(stream, bound, False, False)
    if space == "fock0":
        return _draw_fock(stream, bound, False, True)
    if space == "fock-include0":
        return _draw_fock(stream, bound, True, False)
    if space == "spin":
        return _draw_spin(stream, bound)
    if space == "tensor":
        f = _draw_fock(stream, bound, False, True)
        return TensorState(f, _draw_spin(stream, bound))
    raise ValueError(f"unknown space {space!r}")


def random_vector(space: str, seed: int, bound: int, terms: int = 4, nonzero: bool = False) -> Vec:
    """Deterministic sparse vector with integer coefficients in [-9, 9].

    ``terms`` distinct basis keys are drawn (duplicate draws are retried
    a bounded number of times, so the support size equals ``terms``
    whenever the space is large enough); each key then gets one
    coefficient draw, zero draws dropping the key unless ``nonzero``
    forces [-9,-1] u [1,9].
    """
    if bound < 1:
        raise ValueError("support bound must be >= 1")
    stream = SplitMix64(seed)
    out: dict = {}
    seen: set = set()
    for _ in range(terms):
        key = _draw_state(stream, space, bound)
        tries = 0
        while key in seen and tries < _MAX_TRIES:
            key = _draw_state(stream, space, bound)
            tries += 1
        if key in seen:
            continue
        seen.add(key)
        coeff = stream.nonzero_coefficient() if nonzero else stream.coefficient()
        if coeff:
            out[key] = coeff
    return Vec(out)
