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

A ``SpinState`` is the mask key ``(0, 0, False, mask)`` of
``fock.MaskState``, its modes the set bits of ``mask`` on the mode grid
of ``words._mode_bit``; the state maps (``mode_state``, ``_unit``,
``_ktilde``) act on that mask.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import combinations
from math import isqrt

from .fock import MaskState, _store, half_sign, window, window_pairs
from .linalg import Vec, _vec, add_to, lift, lift_sum, set_bits
from .scalar import HALF, ONE, SQRT2
from .words import _apply, _images, _mode_bit, _mode_masks, _word_table

SpinMode = tuple[int, int]

K_RAW = "K_raw"
K_TILDE_N = "K_tilde_N"
H_N = "H_N"


@lru_cache(maxsize=1 << 16)
def _mode_at(t: int) -> SpinMode:
    """Inverse of ``_mode_bit``; decoded states share its tuples."""
    r = isqrt(t) + 1
    offset = t - (r - 1) * (r - 1)
    if offset < r - 1:
        return offset + 1, -r
    return r, t - r * r


@lru_cache(maxsize=1 << 16)
def _modes(mask: int) -> tuple[SpinMode, ...]:
    """The modes of a grid mask, ascending."""
    return tuple(sorted(_mode_at(t) for t in set_bits(mask)))


class SpinState(MaskState):
    """Strictly ascending tuple of occupied modes (m, l), m > 0 > l.

    The state is its mask key ``(0, 0, False, mask)``, with ``mask`` over
    the mode grid (``_mode_bit``); ``modes`` is decoded from the mask.
    Instances are immutable.
    """

    __slots__ = ()

    def __init__(self, modes: tuple[SpinMode, ...] = ()):
        # the validating step is a method of its own, which the
        # benchmark's tracer (perfbench/tracing.py) counts
        self.__post_init__(tuple(modes))

    def __post_init__(self, modes: tuple[SpinMode, ...]):
        """Validate the modes and store them as the mask key."""
        for m, l in modes:
            if not (m > 0 > l):
                raise ValueError(f"bad mode {(m, l)}")
        if list(modes) != sorted(set(modes)):
            raise ValueError("modes must be strictly ascending")
        mask = 0
        for m, l in modes:
            mask |= 1 << _mode_bit(m, l)
        _store(self, (0, 0, False, mask))

    @staticmethod
    def vacuum() -> "SpinState":
        return SpinState(())

    @property
    def mask(self) -> int:
        return self.mask_key[3]

    @property
    def modes(self) -> tuple[SpinMode, ...]:
        return _modes(self.mask_key[3])

    @property
    def length(self) -> int:
        return self.mask_key[3].bit_count()

    def sort_key(self):
        return (self.length, self.modes)

    def __reduce__(self):
        return (SpinState, (self.modes,))

    def __repr__(self) -> str:
        return f"SpinState(modes={self.modes!r})"

    def __str__(self) -> str:
        return f"S{{{list(self.modes)}}}"


def mode_state(create: bool, mode: SpinMode, state: SpinState):
    """Unit creator/annihilator of one mode; returns (sign, state) or None."""
    m, l = mode
    if not (m > 0 > l):
        raise ValueError(f"bad mode {mode}")
    mask = state.mask_key[3]
    bit, lower = _mode_masks(m, l, mask.bit_length())
    if bool(mask & bit) == create:
        return None
    return -1 if (mask & lower).bit_count() & 1 else 1, SpinState.from_mask_key(0, 0, False, mask ^ bit)


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
    t = _unit(i, j, state.mask_key[3])
    if t is None:
        return None
    return -1 if t[0] & 1 else 1, SpinState.from_mask_key(0, 0, False, t[1])


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
    t = _unit_word((a, b), state.mask_key[3])
    if t is None:
        return None
    return -1 if t[0] & 1 else 1, SpinState.from_mask_key(0, 0, False, t[1])


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


def _ktilde(i: int, j: int, mask: int) -> list[tuple[int, int]]:
    """``ktilde_state_terms`` on a grid mask: ``(crossings, mask)`` per
    image, the sign being ``(-1)^crossings``."""
    if i * j <= 0:
        raise ValueError("isotropy indices must share a sign")
    out = []
    for h, (m, l) in enumerate(_modes(mask)):
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
        out.append((base + h + pos, others | bit))
    return out


def ktilde_state_terms(i: int, j: int, state: SpinState) -> list[tuple[int, SpinState]]:
    """Derivation action of E_ij (i*j > 0) on one basis state.

    Each occupied mode (m, l) is replaced via
    [ad E_ij](E_{ml}) = delta_jm E_il - delta_li E_mj, with the usual
    crossing sign for re-sorting the creator word; the vacuum goes to 0.
    """
    return [
        (-1 if crossings & 1 else 1, SpinState.from_mask_key(0, 0, False, mask))
        for crossings, mask in _ktilde(i, j, state.mask_key[3])
    ]


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


def _fermion_number_words(n: int):
    """The words sign(i) u_ik u_ki of sum_{0<|i|<=N} sign(i) K^(N)_ii,
    and N^2 times the identity: K~^(N)_ii = K^(N)_ii - N at each of the
    N indices i < 0, where sign(i) = -1."""
    for i in window(n):
        for a, b in k_pairs(n, i, i):
            yield half_sign(i), (), (a, b)
    if n:
        yield n * n, (), ()


def _spinor_casimir_words(n: int, renormalized: bool):
    """The words u_ik u_kj u_jk' u_k'i of sum_{ij>0} K^(N)_ij K^(N)_ji
    (``k_pairs``, K^(N)_ji acting first), and -N^3 times the identity
    when ``renormalized``."""
    for i, j in window_pairs(n, 1):
        for a, b in k_pairs(n, i, j):
            for c, d in k_pairs(n, j, i):
                yield 1, (), (a, b, c, d)
    if renormalized:
        yield -(n**3), (), ()


def spinor_casimir_apply(n: int, v: Vec, renormalized: bool = False) -> Vec:
    """sum_{ij>0, |i|,|j|<=N} K^(N)_ij K^(N)_ji, optionally minus N^3.

    The constancy statement behind the renormalized variant needs the
    cut-off to dominate the support, hence the bound precondition.
    """
    for s in v.terms:
        if s.bound() > n:
            raise ValueError("support exceeds the cut-off window")
    return _apply(v, partial(_images, _word_table(_spinor_casimir_words, n, renormalized)), ONE)


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
