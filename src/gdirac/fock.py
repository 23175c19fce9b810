"""Basis calculus of the polarized fermionic Fock space.

A basis state is the canonical word

    psi*_{k_1} ... psi*_{k_a} psi_{l_1} ... psi_{l_b} |0>

with the creator block ``k_1 < ... < k_a`` drawn from the positive half
lattice and the antiparticle block ``l_1 < ... < l_b`` from the
negative half, both ascending left to right.  Every fermionic sign in
the package is defined by crossing counts against this word:

* ``psi*_p`` / ``psi_p`` for ``p`` in the plus half insert/remove ``p``
  with sign ``(-1)^#{k in plus : k < p}``;
* ``psi_l`` / ``psi*_l`` for ``l < 0`` insert/remove ``l`` with sign
  ``(-1)^(|plus| + #{j in minus : j < l})``.

A state stores each block as an occupation mask (bit k for an occupied
k >= 0, bit |l| - 1 for an occupied l < 0), so every crossing count is
the popcount of a masked int.

Every basis state of the package, Fock, spin or tensor, is its mask key
``(pm, mm, zero_ok, spin)`` behind the one base class ``MaskState``
defined here, the lowest module that the spin and tensor states import.

Two lattices coexist: the default one excludes the index 0, the
"include zero" one admits 0 into the plus half (used by the
highest-weight / Casimir machinery, where the vacuum sea sits strictly
below 0).

This module owns the polarization and the cut-off window: ``half_sign``
places an index in its half, ``window`` lists the indices |i| <= N and
``window_pairs`` the same-half or cross-half pairs of the window.  Every
windowed operator and suite of the package sums over these.
"""

from __future__ import annotations

from itertools import combinations
from math import isqrt

from .linalg import Vec, _vec, add_to, lift, set_bits, vec_sum
from .scalar import HALF, ONE, ZERO, Scalar, _coerce

PSI = "psi"
PSI_STAR = "psi_star"


class LatticeError(ValueError):
    pass


class MaskState:
    """A basis state stored as its mask key ``(pm, mm, zero_ok, spin)``.

    The key is the one encoding of Fock, spin and tensor basis states:
    the plus and minus occupation masks of the Fock factor and its
    lattice, and the grid mask of the spin factor, 0 for a factor the
    state lacks.  A state holds its key and the hash taken at
    construction, nothing else; the word kernel reads it through the key.
    The base owns equality by class and key, immutability, ``bound`` and
    the trusted constructor ``from_mask_key``; a subclass adds its
    validating constructor and decodes its views from the key.
    """

    __slots__ = ("mask_key", "_hash")

    @classmethod
    def from_mask_key(cls, pm: int, mm: int, zero_ok: bool, spin: int):
        """Trusted constructor from a mask key.

        Skips ``__post_init__``; only the state maps and the word kernel
        use it, on keys they made from valid states.
        """
        s = _new(cls)
        key = pm, mm, zero_ok, spin
        _set_key(s, key)
        _set_hash(s, hash(key))
        return s

    def bound(self) -> int:
        """Largest occupied |index| (0 for the vacuum)."""
        return _bound(self.mask_key)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mask_key == other.mask_key

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: {type(self).__name__} is immutable")


_new = object.__new__
_set_key = MaskState.mask_key.__set__
_set_hash = MaskState._hash.__set__


def _store(state: MaskState, key: tuple) -> None:
    """Set the key and its hash on a state under construction."""
    _set_key(state, key)
    _set_hash(state, hash(key))


def _bound(key) -> int:
    """The ``bound()`` of the basis state whose mask key is ``key``: the
    spin masks of bound <= B fill the first B^2 bits of the grid."""
    pm, mm, _, spin = key
    width = spin.bit_length()
    return max(pm.bit_length() - 1, mm.bit_length(), isqrt(width - 1) + 1 if width else 0)


class FockState(MaskState):
    """Occupation sets of a canonical basis word.

    ``plus``/``minus`` are strictly ascending tuples; ``zero_ok`` marks
    the include-zero lattice (0 admitted into ``plus``).  The state is
    its mask key ``(plus_mask, minus_mask, zero_ok, 0)``, with bit k of
    ``plus_mask`` for an occupied k >= 0 and bit |l| - 1 of
    ``minus_mask`` for an occupied l < 0; the tuples are decoded from
    the masks.  Instances are immutable.
    """

    __slots__ = ()

    def __init__(self, plus: tuple[int, ...] = (), minus: tuple[int, ...] = (), zero_ok: bool = False):
        # the validating step is a method of its own, which the
        # benchmark's tracer (perfbench/tracing.py) counts
        self.__post_init__(tuple(plus), tuple(minus), zero_ok)

    def __post_init__(self, plus: tuple[int, ...], minus: tuple[int, ...], zero_ok: bool):
        """Validate the blocks and store them as the mask key."""
        lo = 0 if zero_ok else 1
        if any(k < lo for k in plus) or list(plus) != sorted(set(plus)):
            raise LatticeError(f"bad plus block {plus}")
        if any(k >= 0 for k in minus) or list(minus) != sorted(set(minus)):
            raise LatticeError(f"bad minus block {minus}")
        pm = mm = 0
        for k in plus:
            pm |= 1 << k
        for l in minus:
            mm |= 1 << (-1 - l)
        _store(self, (pm, mm, zero_ok, 0))

    @staticmethod
    def vacuum(zero_ok: bool = False) -> "FockState":
        return FockState((), (), zero_ok)

    @property
    def plus_mask(self) -> int:
        return self.mask_key[0]

    @property
    def minus_mask(self) -> int:
        return self.mask_key[1]

    @property
    def zero_ok(self) -> bool:
        return self.mask_key[2]

    @property
    def plus(self) -> tuple[int, ...]:
        return tuple(set_bits(self.mask_key[0]))

    @property
    def minus(self) -> tuple[int, ...]:
        return tuple(-1 - i for i in reversed(set_bits(self.mask_key[1])))

    @property
    def charge(self) -> int:
        pm, mm, _, _ = self.mask_key
        return pm.bit_count() - mm.bit_count()

    @property
    def degree(self) -> int:
        pm, mm, _, _ = self.mask_key
        return pm.bit_count() + mm.bit_count()

    def sort_key(self):
        return (self.degree, self.plus, self.minus)

    def __reduce__(self):
        return (FockState, (self.plus, self.minus, self.zero_ok))

    def __repr__(self) -> str:
        return f"FockState(plus={self.plus!r}, minus={self.minus!r}, zero_ok={self.zero_ok!r})"

    def __str__(self) -> str:
        return f"F{{plus:{list(self.plus)},minus:{list(self.minus)}}}"


def half_sign(k: int, zero_ok: bool = False) -> int:
    """+1 on the plus half of the lattice, -1 on the minus half.

    Index 0 sits in the plus half of the include-zero lattice and off
    the default one (``LatticeError``).
    """
    if k > 0:
        return 1
    if k < 0:
        return -1
    if zero_ok:
        return 1
    raise LatticeError("index 0 is not on the lattice")


def window(n: int, zero_ok: bool = False) -> list[int]:
    """The lattice indices |i| <= n, ascending."""
    return [*range(-n, 0), *range(0 if zero_ok else 1, n + 1)]


def window_pairs(n: int, sign: int) -> list[tuple[int, int]]:
    """Index pairs of ``window(n)`` in the same half (``sign`` 1) or
    across the polarization (``sign`` -1), ascending."""
    idx = window(n)
    return [(i, j) for i in idx for j in idx if i * j * sign > 0]


def _field(star: bool, k: int, pm: int, mm: int, zero_ok: bool):
    """psi*_k (``star``) or psi_k on occupation masks.

    Returns ``(crossings, pm, mm)``, the sign being ``(-1)^crossings``,
    or ``None`` when the result vanishes.
    """
    if half_sign(k, zero_ok) > 0:
        bit = 1 << k
        if bool(pm & bit) == star:
            return None
        return (pm & (bit - 1)).bit_count(), pm ^ bit, mm
    bit = 1 << (-1 - k)
    if bool(mm & bit) != star:
        return None
    return pm.bit_count() + (mm >> -k).bit_count(), pm, mm ^ bit


def field_state(kind: str, k: int, state: FockState):
    """Apply one field operator to a basis state.

    Returns ``(sign, state)`` with ``sign`` in {+1, -1}, or ``None``
    when the result vanishes.
    """
    if kind not in (PSI, PSI_STAR):
        raise ValueError(f"unknown field kind {kind!r}")
    pm, mm, zero_ok, _ = state.mask_key
    t = _field(kind == PSI_STAR, k, pm, mm, zero_ok)
    if t is None:
        return None
    return -1 if t[0] & 1 else 1, FockState.from_mask_key(t[1], t[2], zero_ok, 0)


def apply_field(kind: str, k: int, v: Vec) -> Vec:
    """psi_k / psi*_k extended linearly to finite vectors."""
    return lift(v, field_state, kind, k)


def _rhat(p: int, q: int, pm: int, mm: int, zero_ok: bool):
    """``rhat_state`` on occupation masks: ``(crossings, pm, mm)`` or None."""
    if p == q and p < 0:
        # psi*_p psi_p - 1 acts as -1 on states occupied at p, else 0.
        return (1, pm, mm) if mm >> (-1 - p) & 1 else None
    t = _field(False, q, pm, mm, zero_ok)
    if t is None:
        return None
    u = _field(True, p, t[1], t[2], zero_ok)
    if u is None:
        return None
    return t[0] + u[0], u[1], u[2]


def rhat_state(p: int, q: int, state: FockState):
    """Normal-ordered quadratic psi*_p psi_q, minus 1 exactly when p = q < 0.

    Returns ``(sign, state)`` or ``None``; the result is always a single
    signed basis state.
    """
    pm, mm, zero_ok, _ = state.mask_key
    t = _rhat(p, q, pm, mm, zero_ok)
    if t is None:
        return None
    return -1 if t[0] & 1 else 1, FockState.from_mask_key(t[1], t[2], zero_ok, 0)


def rhat_apply(p: int, q: int, v: Vec) -> Vec:
    """Level-1 action of the matrix unit E_{p,q} on finite vectors."""
    return lift(v, rhat_state, p, q)


# An affine step on occupation masks is the tuple
#
#     (rp, vp, rm, vm, xp, xm, odd, fp, fm)
#
# of a word that acts on (pm, mm) when pm & rp == vp and mm & rm == vm,
# with crossings odd + #(pm & xp) + #(mm & xm), and sends the masks to
# (pm ^ fp, mm ^ fm).  The parity masks xp, xm may be negative: -1 counts
# every bit, so a step stays exact on masks of any width.
_IDENTITY_STEP = (0, 0, 0, 0, 0, 0, 0, 0, 0)


def _field_step(star: bool, k: int) -> tuple:
    """psi*_k (``star``) or psi_k as an affine step, as ``_field``.

    Index 0 is plus bit 0, as on the include-zero lattice; only
    include-zero windows hold it."""
    if half_sign(k, True) > 0:
        bit = 1 << k
        return bit, 0 if star else bit, 0, 0, bit - 1, 0, 0, bit, 0
    bit = 1 << (-1 - k)
    return 0, 0, bit, bit if star else 0, -1, -(1 << -k), 0, 0, bit


def _then(first: tuple, second: tuple):
    """The step ``second`` after ``first``, or None when their
    requirements conflict and the product vanishes on every state."""
    rp1, vp1, rm1, vm1, xp1, xm1, odd1, fp1, fm1 = first
    rp2, vp2, rm2, vm2, xp2, xm2, odd2, fp2, fm2 = second
    # the later requirement is read on the masks the earlier flips made
    vp2 ^= fp1 & rp2
    vm2 ^= fm1 & rm2
    if (vp1 ^ vp2) & rp1 & rp2 or (vm1 ^ vm2) & rm1 & rm2:
        return None
    odd = odd1 + odd2 + (fp1 & xp2).bit_count() + (fm1 & xm2).bit_count()
    return rp1 | rp2, vp1 | vp2, rm1 | rm2, vm1 | vm2, xp1 ^ xp2, xm1 ^ xm2, odd & 1, fp1 ^ fp2, fm1 ^ fm2


def _rhat_step(word):
    """A product of E_pq, its rightmost factor acting first, compiled to
    one affine step: the composition of the ``_rhat`` of its factors, or
    None when the word vanishes on every state.  A word without the index 0 gives the same
    step on both lattices; one with it is compiled for the include-zero
    lattice, the only one whose windows hold 0."""
    step = _IDENTITY_STEP
    for p, q in reversed(word):
        if p == q and p < 0:
            # psi*_p psi_p - 1: -1 on states occupied at p, else 0
            bit = 1 << (-1 - p)
            factors = ((0, 0, bit, bit, 0, 0, 1, 0, 0),)
        else:
            factors = (_field_step(False, q), _field_step(True, p))
        for factor in factors:
            step = _then(step, factor)
            if step is None:
                return None
    return step


def diagonal_weight(i: int, state: FockState) -> int:
    """Eigenvalue of the normal-ordered E_{i,i} on a basis state."""
    pm, mm, zero_ok, _ = state.mask_key
    if half_sign(i, zero_ok) > 0:
        return pm >> i & 1
    return -(mm >> (-1 - i) & 1)


def charge_number_apply(which: str, v: Vec) -> Vec:
    """Diagonal charge (particles - antiparticles) or number (total) operator."""
    if which not in ("charge", "number"):
        raise ValueError(f"unknown diagonal operator {which!r}")
    out = {}
    for s, c in v.terms.items():
        n = s.charge if which == "charge" else s.degree
        if n:
            out[s] = c * n
    return _vec(out)


def fock_basis(bound: int, zero_ok: bool = False, charge: int | None = None) -> list[FockState]:
    """All basis states with occupied |indices| <= bound, optionally of fixed charge."""
    lo = 0 if zero_ok else 1
    plus_pool = list(range(lo, bound + 1))
    minus_pool = list(range(-bound, 0))
    out = []
    for a in range(len(plus_pool) + 1):
        for plus in combinations(plus_pool, a):
            for b in range(len(minus_pool) + 1):
                if charge is not None and a - b != charge:
                    continue
                for minus in combinations(minus_pool, b):
                    out.append(FockState(plus, minus, zero_ok))
    out.sort(key=FockState.sort_key)
    return out


# ---------------------------------------------------------------------------
# Finite lie-algebra elements with a central coefficient


class LieElement:
    """Finite combination sum c_{pq} E_{pq} plus a central coefficient."""

    __slots__ = ("terms", "central", "zero_ok")

    def __init__(self, terms=None, central: Scalar | int = 0, zero_ok: bool = False):
        clean: dict[tuple[int, int], Scalar] = {}
        if terms:
            for (p, q), c in terms.items():
                if not zero_ok and (p == 0 or q == 0):
                    raise LatticeError("index 0 is not on the lattice")
                c = _coerce(c)
                if c:
                    clean[(p, q)] = c
        self.terms = clean
        self.central = _coerce(central)
        self.zero_ok = zero_ok

    @staticmethod
    def unit(p: int, q: int, zero_ok: bool = False) -> "LieElement":
        return LieElement({(p, q): ONE}, 0, zero_ok)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LieElement)
            and self.terms == other.terms
            and self.central == other.central
        )

    def is_zero(self) -> bool:
        return not self.terms and not self.central

    def __repr__(self) -> str:
        body = " + ".join(f"({c})E[{p},{q}]" for (p, q), c in sorted(self.terms.items()))
        return f"LieElement({body or '0'}, central={self.central})"


def schwinger(a: LieElement, b: LieElement) -> Scalar:
    """Two-cocycle Tr(A_{-+} B_{+-} - B_{-+} A_{+-}) on finite combinations.

    On matrix units: s(E_{ij}, E_{ji}) = +1 when i is in the minus half
    and j in the plus half, -1 the other way around, 0 otherwise.
    """
    acc = ZERO
    for (p, q), ca in a.terms.items():
        cb = b.terms.get((q, p))
        if cb is None:
            continue
        hq = half_sign(q, a.zero_ok)
        if half_sign(p, a.zero_ok) != hq:
            acc = acc + ca * cb if hq > 0 else acc - ca * cb
    return acc


def bracket_central(a: LieElement, b: LieElement) -> LieElement:
    """[(A, alpha), (B, beta)] = ([A, B], s(A, B)); central parts drop out."""
    terms = _table_sub(_table_matmul(a.terms, b.terms), _table_matmul(b.terms, a.terms))
    return LieElement(terms, schwinger(a, b), a.zero_ok or b.zero_ok)


def rhat_lie_apply(a: LieElement, v: Vec) -> Vec:
    """Level-1 representation of a finite combination; central acts as +1."""
    parts = [rhat_apply(p, q, v).scaled(c) for (p, q), c in a.terms.items()]
    if a.central:
        parts.append(v.scaled(a.central))
    return vec_sum(parts)


# ---------------------------------------------------------------------------
# Quadratic representation of the restricted orthogonal Lie algebra on the
# particle-only sector.

TermTable = dict[tuple[int, int], Scalar]


def _check_antisymmetric(t: TermTable, name: str) -> None:
    for (i, j), c in t.items():
        if i <= 0 or j <= 0:
            raise ValueError(f"{name} must be supported on positive mode pairs")
        if _coerce(t.get((j, i), ZERO)) != -_coerce(c):
            raise ValueError(f"{name} is not antisymmetric at {(i, j)}")


def t_ores_apply(d: TermTable, b: TermTable, c: TermTable, v: Vec) -> Vec:
    """sum d_ij a*_i a_j + 1/2 b_ij a_i a_j + 1/2 c_ij a*_i a*_j.

    The a-modes are the particle operators; the input must be supported
    on particle-only states (empty antiparticle block).  Ordering
    convention fixing all signs (validated by the cocycle suite): in the
    creator and mixed terms the right factor acts first, in the
    double-annihilator term the left factor acts first.
    """
    _check_antisymmetric(b, "b")
    _check_antisymmetric(c, "c")
    for s in v.terms:
        if s.minus_mask:
            raise ValueError("t_ores_apply needs particle-only states")
    if any(i <= 0 or j <= 0 for i, j in d):
        raise ValueError("d must be supported on positive mode pairs")
    parts = [apply_field(PSI_STAR, i, apply_field(PSI, j, v)).scaled(x) for (i, j), x in d.items()]
    parts += [apply_field(PSI, j, apply_field(PSI, i, v)).scaled(HALF * _coerce(x)) for (i, j), x in b.items()]
    parts += [
        apply_field(PSI_STAR, i, apply_field(PSI_STAR, j, v)).scaled(HALF * _coerce(x)) for (i, j), x in c.items()
    ]
    return vec_sum(parts)


def _table_matmul(x: TermTable, y: TermTable) -> TermTable:
    out: TermTable = {}
    for (i, k), cx in x.items():
        for (k2, j), cy in y.items():
            if k == k2:
                add_to(out, (i, j), cx * cy)
    return out


def _table_sub(x: TermTable, y: TermTable) -> TermTable:
    out = dict(x)
    for k, c in y.items():
        add_to(out, k, -c)
    return out


def _table_neg_t(x: TermTable) -> TermTable:
    return {(j, i): -c for (i, j), c in x.items()}


def _table_trace(x: TermTable) -> Scalar:
    acc = ZERO
    for (i, j), c in x.items():
        if i == j:
            acc = acc + c
    return acc


def ores_bracket(x, y):
    """Bracket of (d, b, c) triples matching ``t_ores_apply``'s ordering.

    With the upper-left block a = -d^t the component formulas are

        d'' = d d' - d' d + c' b - c b'
        b'' = a b' - a' b + b d' - b' d
        c'' = c a' - c' a + d c' - d' c

    and [T(x), T(y)] = T([x, y]) + (1/2) Tr(c b' - c' b) * id.
    """
    dx, bx, cx = x
    dy, by, cy = y
    ax, ay = _table_neg_t(dx), _table_neg_t(dy)
    d = _table_sub(
        _table_sub(_table_matmul(dx, dy), _table_matmul(dy, dx)),
        _table_sub(_table_matmul(cx, by), _table_matmul(cy, bx)),
    )
    b = _table_sub(
        _table_sub(_table_matmul(ax, by), _table_matmul(ay, bx)),
        _table_sub(_table_matmul(by, dx), _table_matmul(bx, dy)),
    )
    c = _table_sub(
        _table_sub(_table_matmul(cx, ay), _table_matmul(cy, ax)),
        _table_sub(_table_matmul(dy, cx), _table_matmul(dx, cy)),
    )
    return d, b, c


def ores_cocycle(x, y) -> Scalar:
    """1/2 Tr(c b' - c' b) for triples x = (d,b,c), y = (d',b',c')."""
    _, bx, cx = x
    _, by, cy = y
    tr = _table_trace(_table_sub(_table_matmul(cx, by), _table_matmul(cy, bx)))
    return tr / 2
