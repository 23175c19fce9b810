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

Two lattices coexist: the default one excludes the index 0, the
"include zero" one admits 0 into the plus half (used by the
highest-weight / Casimir machinery, where the vacuum sea sits strictly
below 0).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations

from .linalg import Vec, _vec, add_to, lift
from .scalar import HALF, ONE, ZERO, Scalar, _coerce

PSI = "psi"
PSI_STAR = "psi_star"


class LatticeError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class FockState:
    """Occupation sets of a canonical basis word.

    ``plus``/``minus`` are strictly ascending tuples; ``zero_ok`` marks
    the include-zero lattice (0 admitted into ``plus``).
    """

    plus: tuple[int, ...] = ()
    minus: tuple[int, ...] = ()
    zero_ok: bool = False

    def __post_init__(self):
        lo = 0 if self.zero_ok else 1
        if any(k < lo for k in self.plus) or list(self.plus) != sorted(set(self.plus)):
            raise LatticeError(f"bad plus block {self.plus}")
        if any(k >= 0 for k in self.minus) or list(self.minus) != sorted(set(self.minus)):
            raise LatticeError(f"bad minus block {self.minus}")

    @staticmethod
    def vacuum(zero_ok: bool = False) -> "FockState":
        return FockState((), (), zero_ok)

    @property
    def charge(self) -> int:
        return len(self.plus) - len(self.minus)

    @property
    def degree(self) -> int:
        return len(self.plus) + len(self.minus)

    def bound(self) -> int:
        """Largest occupied |index| (0 for the vacuum)."""
        vals = [abs(k) for k in self.plus + self.minus]
        return max(vals) if vals else 0

    def in_plus_half(self, k: int) -> bool:
        if k == 0 and not self.zero_ok:
            raise LatticeError("index 0 is not on the lattice")
        return k > 0 or (k == 0 and self.zero_ok)

    def sort_key(self):
        return (self.degree, self.plus, self.minus)

    def __str__(self) -> str:
        return f"F{{plus:{list(self.plus)},minus:{list(self.minus)}}}"


_new = object.__new__
_set_plus = FockState.plus.__set__
_set_minus = FockState.minus.__set__
_set_zero_ok = FockState.zero_ok.__set__


def _fock_state(plus: tuple[int, ...], minus: tuple[int, ...], zero_ok: bool) -> FockState:
    """Trusted constructor: the caller guarantees canonical blocks.

    Skips ``__post_init__``; only the state maps use it, on blocks made
    canonical by a bisect insertion or removal on the correct half.
    """
    s = _new(FockState)
    _set_plus(s, plus)
    _set_minus(s, minus)
    _set_zero_ok(s, zero_ok)
    return s


def field_state(kind: str, k: int, state: FockState):
    """Apply one field operator to a basis state.

    Returns ``(sign, state)`` with ``sign`` in {+1, -1}, or ``None``
    when the result vanishes.
    """
    if kind not in (PSI, PSI_STAR):
        raise ValueError(f"unknown field kind {kind!r}")
    plus_side = state.in_plus_half(k)
    if plus_side:
        block = state.plus
        create = kind == PSI_STAR
        base_sign = 1
    else:
        block = state.minus
        create = kind == PSI
        base_sign = -1 if len(state.plus) % 2 else 1
    pos = bisect_left(block, k)
    present = pos < len(block) and block[pos] == k
    if create == present:
        return None
    sign = base_sign * (-1 if pos % 2 else 1)
    if create:
        new = block[:pos] + (k,) + block[pos:]
    else:
        new = block[:pos] + block[pos + 1 :]
    if plus_side:
        return sign, _fock_state(new, state.minus, state.zero_ok)
    return sign, _fock_state(state.plus, new, state.zero_ok)


def apply_field(kind: str, k: int, v: Vec) -> Vec:
    """psi_k / psi*_k extended linearly to finite vectors."""
    return lift(v, field_state, kind, k)


def rhat_state(p: int, q: int, state: FockState):
    """Normal-ordered quadratic psi*_p psi_q, minus 1 exactly when p = q < 0.

    Returns ``(sign, state)`` or ``None``; the result is always a single
    signed basis state.
    """
    if p == q and p < 0:
        # psi*_p psi_p - 1 acts as -1 on states occupied at p, else 0.
        occupied = p in state.minus
        return (-1, state) if occupied else None
    t = field_state(PSI, q, state)
    if t is None:
        return None
    s1, mid = t
    t = field_state(PSI_STAR, p, mid)
    if t is None:
        return None
    s2, end = t
    return s1 * s2, end


def rhat_apply(p: int, q: int, v: Vec) -> Vec:
    """Level-1 action of the matrix unit E_{p,q} on finite vectors."""
    return lift(v, rhat_state, p, q)


def rhat_pair_state(p: int, q: int, state: FockState):
    """E_{p,q} E_{q,p} on a basis state, E_{q,p} acting first.

    Returns ``(sign, state)`` or ``None``; summed over index pairs with
    ``linalg.lift_sum`` it gives the pair quadratics of the Casimirs and
    of the square identities.
    """
    t = rhat_state(q, p, state)
    if t is None:
        return None
    u = rhat_state(p, q, t[1])
    if u is None:
        return None
    return t[0] * u[0], u[1]


def diagonal_weight(i: int, state: FockState) -> int:
    """Eigenvalue of the normal-ordered E_{i,i} on a basis state."""
    if state.in_plus_half(i):
        return 1 if i in state.plus else 0
    return -1 if i in state.minus else 0


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

    def _plus_half(self, k: int) -> bool:
        return k > 0 or (k == 0 and self.zero_ok)


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
        pp, qp = a._plus_half(p), a._plus_half(q)
        if not pp and qp:
            acc = acc + ca * cb
        elif pp and not qp:
            acc = acc - ca * cb
    return acc


def bracket_central(a: LieElement, b: LieElement) -> LieElement:
    """[(A, alpha), (B, beta)] = ([A, B], s(A, B)); central parts drop out."""
    terms: dict[tuple[int, int], Scalar] = {}
    for (p, q), ca in a.terms.items():
        for (m, n), cb in b.terms.items():
            c = ca * cb
            if q == m:
                add_to(terms, (p, n), c)
            if n == p:
                add_to(terms, (m, q), -c)
    return LieElement(terms, schwinger(a, b), a.zero_ok or b.zero_ok)


def rhat_lie_apply(a: LieElement, v: Vec) -> Vec:
    """Level-1 representation of a finite combination; central acts as +1."""
    out = Vec()
    for (p, q), c in a.terms.items():
        out = out + rhat_apply(p, q, v).scaled(c)
    if a.central:
        out = out + v.scaled(a.central)
    return out


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
        if s.minus:
            raise ValueError("t_ores_apply needs particle-only states")
    out = Vec()
    for (i, j), cd in d.items():
        if i <= 0 or j <= 0:
            raise ValueError("d must be supported on positive mode pairs")
        out = out + apply_field(PSI_STAR, i, apply_field(PSI, j, v)).scaled(cd)
    for (i, j), cb in b.items():
        out = out + apply_field(PSI, j, apply_field(PSI, i, v)).scaled(HALF * _coerce(cb))
    for (i, j), cc in c.items():
        out = out + apply_field(PSI_STAR, i, apply_field(PSI_STAR, j, v)).scaled(HALF * _coerce(cc))
    return out


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
