"""The polynomial spinor module and its Clifford/isotropy operators.

Basis states are wedges of creator modes ``(m, l)`` with ``m > 0 > l``,
kept in ascending lexicographic order; the stored basis is orthonormal.
The Clifford generator attached to the matrix unit ``E_{ij}`` (with
``i*j < 0``) acts as ``sqrt(2)`` times the unit creator/annihilator of
the mode, so anticommutators close on ``2 * delta * delta``:

    {gamma_ij, gamma_mn} = 2 delta_{in} delta_{jm} * id.

All quadratic operators are assembled from the *unit* mode operators;
each gamma pair contributes the exact integer factor 2 = sqrt(2)^2,
which is folded into the stated prefactors (e.g. the 1/2 in front of
the K sums cancels it).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations

from .linalg import Vec
from .scalar import HALF, SQRT2, ZERO

SpinMode = tuple[int, int]

K_RAW = "K_raw"
K_TILDE_N = "K_tilde_N"
H_N = "H_N"


@dataclass(frozen=True, slots=True)
class SpinState:
    """Strictly ascending tuple of occupied modes (m, l), m > 0 > l."""

    modes: tuple[SpinMode, ...] = ()

    def __post_init__(self):
        for m, l in self.modes:
            if not (m > 0 > l):
                raise ValueError(f"bad mode {(m, l)}")
        if list(self.modes) != sorted(set(self.modes)):
            raise ValueError("modes must be strictly ascending")

    @staticmethod
    def vacuum() -> "SpinState":
        return SpinState(())

    @property
    def length(self) -> int:
        return len(self.modes)

    def bound(self) -> int:
        vals = [max(m, -l) for m, l in self.modes]
        return max(vals) if vals else 0

    def sort_key(self):
        return (len(self.modes), self.modes)

    def __str__(self) -> str:
        return f"S{{{list(self.modes)}}}"


_new = object.__new__
_set_modes = SpinState.modes.__set__


def _spin_state(modes: tuple[SpinMode, ...]) -> SpinState:
    """Trusted constructor: the caller guarantees valid, ascending modes.

    Skips ``__post_init__``; only the state maps use it, on tuples made
    canonical by a bisect insertion of an absent mode or removal of a
    present one.
    """
    s = _new(SpinState)
    _set_modes(s, modes)
    return s


def mode_state(create: bool, mode: SpinMode, state: SpinState):
    """Unit creator/annihilator of one mode; returns (sign, state) or None."""
    if not (mode[0] > 0 > mode[1]):
        raise ValueError(f"bad mode {mode}")
    modes = state.modes
    pos = bisect_left(modes, mode)
    present = pos < len(modes) and modes[pos] == mode
    if create == present:
        return None
    sign = -1 if pos % 2 else 1
    if create:
        new = modes[:pos] + (mode,) + modes[pos:]
    else:
        new = modes[:pos] + modes[pos + 1 :]
    return sign, _spin_state(new)


def gamma_unit_state(i: int, j: int, state: SpinState):
    """gamma(E_ij)/sqrt(2) on a basis state: create (i,j) or remove (j,i)."""
    if i * j >= 0:
        raise ValueError("gamma needs indices of opposite sign")
    if i > 0:
        return mode_state(True, (i, j), state)
    return mode_state(False, (j, i), state)


def gamma_apply(i: int, j: int, v: Vec) -> Vec:
    """Clifford generator of E_ij: sqrt(2) times the unit mode operator."""
    out: dict = {}
    for s, c in v.terms.items():
        t = gamma_unit_state(i, j, s)
        if t is None:
            continue
        sign, s2 = t
        acc = out.get(s2, ZERO) + (c if sign > 0 else -c)
        if acc:
            out[s2] = acc
        else:
            out.pop(s2, None)
    return Vec(out).scaled(SQRT2)


def _unit_pair_apply(i: int, k: int, j: int, v: Vec) -> Vec:
    """Unit-normalized gamma_ik gamma_kj (equals 1/2 gamma_ik gamma_kj)."""
    out: dict = {}
    for s, c in v.terms.items():
        t = gamma_unit_state(k, j, s)
        if t is None:
            continue
        s1, mid = t
        t = gamma_unit_state(i, k, mid)
        if t is None:
            continue
        s2, end = t
        acc = out.get(end, ZERO) + (c if s1 * s2 > 0 else -c)
        if acc:
            out[end] = acc
        else:
            out.pop(end, None)
    return Vec(out)


def _window(i: int, n: int) -> range:
    return range(-1, -n - 1, -1) if i > 0 else range(1, n + 1)


def k_family_apply(family: str, n: int, i: int, j: int, v: Vec) -> Vec:
    """Cut-off quadratic sums: K, the vacuum-normal-ordered K~, or H.

    K^(N)_ij = 1/2 sum_{|k|<=N, ik<0} gamma_ik gamma_kj, and

        K~^(N)_ij = K^(N)_ij - N        when i = j < 0,
        H^(N)_ij  = K^(N)_ij - N/2      when i = j,

    identical to K off the diagonal.
    """
    if i * j <= 0:
        raise ValueError("K-family indices must share a sign")
    if max(abs(i), abs(j)) > n:
        raise ValueError("index out of the cut-off window")
    if family == H_N:
        # 1/4 sum [gamma_ik, gamma_kj] = 1/2 sum (u_ik u_kj - u_kj u_ik);
        # the reversed products already carry the -N/2 diagonal constant.
        out = Vec()
        for k in _window(i, n):
            out = out + _unit_pair_apply(i, k, j, v) - _unit_pair_apply_rev(i, k, j, v)
        return out.scaled(HALF)
    out = Vec()
    for k in _window(i, n):
        out = out + _unit_pair_apply(i, k, j, v)
    if family == K_RAW:
        return out
    if family == K_TILDE_N:
        if i == j and i < 0:
            out = out - v.scaled(n)
        return out
    raise ValueError(f"unknown K family {family!r}")


def _unit_pair_apply_rev(i: int, k: int, j: int, v: Vec) -> Vec:
    """Unit-normalized gamma_kj gamma_ik (the reversed product)."""
    out: dict = {}
    for s, c in v.terms.items():
        t = gamma_unit_state(i, k, s)
        if t is None:
            continue
        s1, mid = t
        t = gamma_unit_state(k, j, mid)
        if t is None:
            continue
        s2, end = t
        acc = out.get(end, ZERO) + (c if s1 * s2 > 0 else -c)
        if acc:
            out[end] = acc
        else:
            out.pop(end, None)
    return Vec(out)


def ktilde_state_terms(i: int, j: int, state: SpinState) -> list[tuple[int, SpinState]]:
    """Derivation action of E_ij (i*j > 0) on one basis state.

    Each occupied mode (m, l) is replaced via
    [ad E_ij](E_{ml}) = delta_jm E_il - delta_li E_mj, with the usual
    crossing sign for re-sorting the creator word; the vacuum goes to 0.
    """
    if i * j <= 0:
        raise ValueError("isotropy indices must share a sign")
    modes = state.modes
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
        sign = base * (-1 if (h + pos) % 2 else 1)
        out.append((sign, _spin_state(others[:pos] + (newmode,) + others[pos:])))
    return out


def ktilde_exact_apply(i: int, j: int, v: Vec) -> Vec:
    """Window-free isotropy action; agrees with K~^(N) once N bounds v."""
    out: dict = {}
    for s, c in v.terms.items():
        for sign, s2 in ktilde_state_terms(i, j, s):
            acc = out.get(s2, ZERO) + (c if sign > 0 else -c)
            if acc:
                out[s2] = acc
            else:
                out.pop(s2, None)
    return Vec(out)


def fermion_number_apply(v: Vec) -> Vec:
    """Diagonal operator scaling a k-mode state by 2k."""
    out = {}
    for s, c in v.terms.items():
        if s.modes:
            out[s] = c * (2 * len(s.modes))
    return Vec(out)


def fermion_number_cutoff_apply(n: int, v: Vec) -> Vec:
    """sum_{0<|i|<=N} sign(i) K~^(N)_ii, the cut-off fermion number."""
    out = Vec()
    for i in range(1, n + 1):
        out = out + k_family_apply(K_TILDE_N, n, i, i, v)
        out = out - k_family_apply(K_TILDE_N, n, -i, -i, v)
    return out


def spinor_casimir_apply(n: int, v: Vec, renormalized: bool = False) -> Vec:
    """sum_{ij>0, |i|,|j|<=N} K^(N)_ij K^(N)_ji, optionally minus N^3.

    The constancy statement behind the renormalized variant needs the
    cut-off to dominate the support, hence the bound precondition.
    """
    for s in v.terms:
        if s.bound() > n:
            raise ValueError("support exceeds the cut-off window")
    out = Vec()
    for sign in (1, -1):
        for i0 in range(1, n + 1):
            for j0 in range(1, n + 1):
                i, j = sign * i0, sign * j0
                out = out + k_family_apply(K_RAW, n, i, j, k_family_apply(K_RAW, n, j, i, v))
    if renormalized:
        out = out - v.scaled(n**3)
    return out


def spin_basis(bound: int, length: int | None = None) -> list[SpinState]:
    """All spin states with mode indices bounded by ``bound``."""
    pool = [(m, l) for m in range(1, bound + 1) for l in range(-bound, 0)]
    pool.sort()
    out = []
    lengths = range(len(pool) + 1) if length is None else [length]
    for k in lengths:
        for modes in combinations(pool, k):
            out.append(SpinState(modes))
    out.sort(key=SpinState.sort_key)
    return out
