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

from functools import lru_cache
from itertools import combinations
from math import isqrt

from .fock import window, window_pairs
from .linalg import Vec, _vec, add_to, lift, lift_sum, set_bits, vec_sum
from .scalar import HALF, SQRT2

SpinMode = tuple[int, int]

K_RAW = "K_raw"
K_TILDE_N = "K_tilde_N"
H_N = "H_N"


def _mode_bit(m: int, l: int) -> int:
    """Position of the mode (m, l) on the grid mask.

    Shell r = max(m, -l) holds the bits [(r-1)^2, r^2) in lexicographic
    order: (1, -r), ..., (r-1, -r), then (r, -r), ..., (r, -1).  The
    modes of bound <= B fill exactly the first B^2 bits.
    """
    b = -l
    if m < b:
        return (b - 1) * (b - 1) + m - 1
    return m * m - b


@lru_cache(maxsize=1 << 16)
def _mode_at(t: int) -> SpinMode:
    """Inverse of ``_mode_bit``; decoded states share its tuples."""
    r = isqrt(t) + 1
    offset = t - (r - 1) * (r - 1)
    if offset < r - 1:
        return offset + 1, -r
    return r, t - r * r


@lru_cache(maxsize=1 << 14)
def _mode_masks(m: int, l: int, width: int) -> tuple[int, int]:
    """The bit of the mode (m, l), and the bits of the modes
    lexicographically below it on every shell that meets the first
    ``width`` bits of the grid.

    Below (m, l) are the modes with a smaller m, and those (m, l') with
    l' < l.  Shells under m hold only the first kind; shell s >= m holds
    (1, -s) ... (m-1, -s) of the first kind, then (m, -s) when s > -l,
    and in shell m itself the run (m, -m) ... (m, l-1) of the second.
    """
    r = max(m, -l)
    lower = (1 << (m - 1) * (m - 1)) - 1
    shells = isqrt(width - 1) + 1 if width else 0
    for s in range(m, shells + 1):
        count = m - 1 + (s > r) + (max(0, m + l) if s == m else 0)
        lower |= ((1 << count) - 1) << (s - 1) * (s - 1)
    return 1 << _mode_bit(m, l), lower


class SpinState:
    """Strictly ascending tuple of occupied modes (m, l), m > 0 > l.

    Stored as one ``mask`` over the mode grid (``_mode_bit``); the hash
    is taken at construction and ``modes`` is decoded on first use.
    Instances are immutable.
    """

    __slots__ = ("mask", "_hash", "_modes")

    def __init__(self, modes: tuple[SpinMode, ...] = ()):
        # __post_init__ validates the modes and encodes them as a mask
        _set_modes(self, tuple(modes))
        self.__post_init__()

    def __post_init__(self):
        modes = self._modes
        for m, l in modes:
            if not (m > 0 > l):
                raise ValueError(f"bad mode {(m, l)}")
        if list(modes) != sorted(set(modes)):
            raise ValueError("modes must be strictly ascending")
        mask = 0
        for m, l in modes:
            mask |= 1 << _mode_bit(m, l)
        _set_mask(self, mask)
        _set_hash(self, hash(mask))
        # only the mask is kept; ``modes`` is decoded again on first use
        _set_modes(self, None)

    @staticmethod
    def vacuum() -> "SpinState":
        return SpinState(())

    @property
    def modes(self) -> tuple[SpinMode, ...]:
        modes = self._modes
        if modes is None:
            modes = tuple(sorted(_mode_at(t) for t in set_bits(self.mask)))
            _set_modes(self, modes)
        return modes

    @property
    def length(self) -> int:
        return self.mask.bit_count()

    def bound(self) -> int:
        width = self.mask.bit_length()
        return isqrt(width - 1) + 1 if width else 0

    def sort_key(self):
        return (self.length, self.modes)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not SpinState:
            return NotImplemented
        return self.mask == other.mask

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: SpinState is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: SpinState is immutable")

    def __reduce__(self):
        return (SpinState, (self.modes,))

    def __repr__(self) -> str:
        return f"SpinState(modes={self.modes!r})"

    def __str__(self) -> str:
        return f"S{{{list(self.modes)}}}"


_new = object.__new__
_set_mask = SpinState.mask.__set__
_set_hash = SpinState._hash.__set__
_set_modes = SpinState._modes.__set__


def _spin_state(mask: int) -> SpinState:
    """Trusted constructor from a grid mask.

    Skips ``__post_init__``; only the state maps use it, on masks made
    by flipping the bits of valid modes.
    """
    s = _new(SpinState)
    _set_mask(s, mask)
    _set_hash(s, hash(mask))
    _set_modes(s, None)
    return s


def mode_state(create: bool, mode: SpinMode, state: SpinState):
    """Unit creator/annihilator of one mode; returns (sign, state) or None."""
    m, l = mode
    if not (m > 0 > l):
        raise ValueError(f"bad mode {mode}")
    mask = state.mask
    bit, lower = _mode_masks(m, l, mask.bit_length())
    if bool(mask & bit) == create:
        return None
    return -1 if (mask & lower).bit_count() & 1 else 1, _spin_state(mask ^ bit)


def _unit(i: int, j: int, mask: int):
    """gamma(E_ij)/sqrt(2) on a grid mask.

    Returns ``(crossings, mask)``, the sign being ``(-1)^crossings``, or
    ``None`` when the result vanishes.
    """
    if i * j >= 0:
        raise ValueError("gamma needs indices of opposite sign")
    if i > 0:
        bit, lower = _mode_masks(i, j, mask.bit_length())
        if mask & bit:
            return None
    else:
        bit, lower = _mode_masks(j, i, mask.bit_length())
        if not mask & bit:
            return None
    return (mask & lower).bit_count(), mask ^ bit


def gamma_unit_state(i: int, j: int, state: SpinState):
    """gamma(E_ij)/sqrt(2) on a basis state: create (i,j) or remove (j,i)."""
    t = _unit(i, j, state.mask)
    if t is None:
        return None
    return -1 if t[0] & 1 else 1, _spin_state(t[1])


def gamma_apply(i: int, j: int, v: Vec) -> Vec:
    """Clifford generator of E_ij: sqrt(2) times the unit mode operator."""
    return lift(v, gamma_unit_state, i, j).scaled(SQRT2)


def _unit_word(word, mask: int):
    """A product of units u_ab on a grid mask, its rightmost factor
    acting first.

    Returns ``(crossings, mask)`` or ``None`` once a factor vanishes.
    """
    odd = 0
    for a, b in reversed(word):
        t = _unit(a, b, mask)
        if t is None:
            return None
        crossings, mask = t
        odd += crossings
    return odd, mask


def gamma_pair_state(a: tuple[int, int], b: tuple[int, int], state: SpinState):
    """u_a u_b on a basis state, u_b acting first; (sign, state) or None.

    ``u_ij`` is the unit-normalized generator gamma_ij / sqrt(2), so the
    product equals 1/2 gamma_a gamma_b.
    """
    t = _unit_word((a, b), state.mask)
    if t is None:
        return None
    return -1 if t[0] & 1 else 1, _spin_state(t[1])


def k_pairs(n: int, i: int, j: int) -> list:
    """The window terms (u_ik, u_kj), |k| <= N, ik < 0, of K^(N)_ij."""
    return [((i, k), (k, j)) for k in window(n) if i * k < 0]


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
    pairs = k_pairs(n, i, j)
    if family == H_N:
        # 1/4 sum [gamma_ik, gamma_kj] = 1/2 sum (u_ik u_kj - u_kj u_ik);
        # the reversed products already carry the -N/2 diagonal constant.
        reversed_pairs = [(b, a) for a, b in pairs]
        out = lift_sum(v, gamma_pair_state, pairs) - lift_sum(v, gamma_pair_state, reversed_pairs)
        return out.scaled(HALF)
    out = lift_sum(v, gamma_pair_state, pairs)
    if family == K_RAW:
        return out
    if family == K_TILDE_N:
        if i == j and i < 0:
            out = out - v.scaled(n)
        return out
    raise ValueError(f"unknown K family {family!r}")


def ktilde_state_terms(i: int, j: int, state: SpinState) -> list[tuple[int, SpinState]]:
    """Derivation action of E_ij (i*j > 0) on one basis state.

    Each occupied mode (m, l) is replaced via
    [ad E_ij](E_{ml}) = delta_jm E_il - delta_li E_mj, with the usual
    crossing sign for re-sorting the creator word; the vacuum goes to 0.
    """
    if i * j <= 0:
        raise ValueError("isotropy indices must share a sign")
    mask = state.mask
    out = []
    for h, (m, l) in enumerate(state.modes):
        if i > 0:
            if j != m:
                continue
            m2, l2, base = i, l, 0
        else:
            if l != i:
                continue
            m2, l2, base = m, j, 1  # the minus sign of -delta_li E_mj
        others = mask ^ (1 << _mode_bit(m, l))
        bit, lower = _mode_masks(m2, l2, others.bit_length())
        if others & bit:
            continue
        pos = (others & lower).bit_count()
        out.append((-1 if (base + h + pos) & 1 else 1, _spin_state(others | bit)))
    return out


def ktilde_exact_apply(i: int, j: int, v: Vec) -> Vec:
    """Window-free isotropy action; agrees with K~^(N) once N bounds v."""
    out: dict = {}
    for s, c in v.terms.items():
        for sign, s2 in ktilde_state_terms(i, j, s):
            add_to(out, s2, c if sign > 0 else -c)
    return _vec(out)


def fermion_number_apply(v: Vec) -> Vec:
    """Diagonal operator scaling a k-mode state by 2k."""
    out = {}
    for s, c in v.terms.items():
        if s.mask:
            out[s] = c * (2 * s.length)
    return _vec(out)


def fermion_number_cutoff_apply(n: int, v: Vec) -> Vec:
    """sum_{0<|i|<=N} sign(i) K~^(N)_ii, the cut-off fermion number."""
    parts = []
    for i in window(n):
        k = k_family_apply(K_TILDE_N, n, i, i, v)
        parts.append(k if i > 0 else -k)
    return vec_sum(parts)


def spinor_casimir_apply(n: int, v: Vec, renormalized: bool = False) -> Vec:
    """sum_{ij>0, |i|,|j|<=N} K^(N)_ij K^(N)_ji, optionally minus N^3.

    The constancy statement behind the renormalized variant needs the
    cut-off to dominate the support, hence the bound precondition.
    """
    for s in v.terms:
        if s.bound() > n:
            raise ValueError("support exceeds the cut-off window")
    parts = [k_family_apply(K_RAW, n, i, j, k_family_apply(K_RAW, n, j, i, v)) for i, j in window_pairs(n, 1)]
    if renormalized:
        parts.append(v.scaled(-(n**3)))
    return vec_sum(parts)


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
