"""The Dirac-type operator on (charge-0 Fock space) x (spinor module).

The operator is the normal-ordered contraction

    D = 1/2 sum_{i*j<0} E_ij (x) gamma_ji

whose two branches either annihilate a particle/antiparticle pair of
the Fock factor while creating a spinor mode, or the reverse.  On
finitely supported vectors each infinite sum collapses to the occupied
indices, so D is exact with no cut-off; the cut-off version sums the
window literally.  Its square, restricted to the diagonal-invariant
sector, equals 1/4 (renormalized Casimir (x) 1 + 1 (x) fermion number).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import casimir as _cas
from .fock import FockState, fock_basis, rhat_apply, rhat_pair_state, rhat_state
from .linalg import ExactMatrix, Vec, _vec, add_to, lift_sum, spans_equal
from .scalar import HALF, HALF_SQRT2, ZERO, Scalar
from .spinor import (
    H_N,
    SpinState,
    fermion_number_apply,
    fermion_number_cutoff_apply,
    gamma_pair_state,
    gamma_unit_state,
    k_family_apply,
    ktilde_state_terms,
    spin_basis,
)


@dataclass(frozen=True, slots=True)
class TensorState:
    fock: FockState
    spin: SpinState

    def bound(self) -> int:
        return max(self.fock.bound(), self.spin.bound())

    def sort_key(self):
        return (self.fock.sort_key(), self.spin.sort_key())

    def __str__(self) -> str:
        return f"{self.fock}(x){self.spin}"


def tensor_basis_state(fock: FockState, spin: SpinState) -> Vec:
    return Vec.basis(TensorState(fock, spin))


def _e_gamma_state(p: int, q: int, ts: TensorState):
    """E_pq (x) u_qp on a tensor basis state, u = gamma / sqrt(2).

    One step of the Dirac sum; returns ``(sign, state)`` or ``None``.
    """
    t = gamma_unit_state(q, p, ts.spin)
    if t is None:
        return None
    u = rhat_state(p, q, ts.fock)
    if u is None:
        return None
    return t[0] * u[0], TensorState(u[1], t[1])


def dirac_apply(v: Vec) -> Vec:
    """Exact Dirac action: the annihilating factors bound every sum."""
    out: dict = {}
    for ts, c in v.terms.items():
        f = ts.fock
        # pair annihilation in Fock, mode creation in spin: E_{p,q} over
        # occupied q > 0 > p; pair creation in Fock, mode annihilation in
        # spin: E_{m,l} over occupied modes (m, l)
        for p, q in [(p, q) for q in f.plus for p in f.minus] + list(ts.spin.modes):
            t = _e_gamma_state(p, q, ts)
            if t is not None:
                add_to(out, t[1], c if t[0] > 0 else -c)
    return _vec(out).scaled(HALF_SQRT2)


def dirac_cutoff_apply(n: int, v: Vec) -> Vec:
    """Literal windowed sum 1/2 sum_{|i|,|j|<=N, ij<0} E_ij (x) gamma_ji."""
    window = [(i, j) for i in range(1, n + 1) for j in range(-n, 0)]
    window += [(j, i) for i, j in window]
    return lift_sum(v, _e_gamma_state, window).scaled(HALF_SQRT2)


def rho_apply(p: int, q: int, v: Vec) -> Vec:
    """Diagonal action rhat(E_pq) (x) 1 + 1 (x) ad(E_pq) for p*q > 0."""
    if p * q <= 0:
        raise ValueError("rho needs indices of a common sign")
    out: dict = {}
    for ts, c in v.terms.items():
        t = rhat_state(p, q, ts.fock)
        if t is not None:
            add_to(out, TensorState(t[1], ts.spin), c if t[0] > 0 else -c)
        for sign, sp2 in ktilde_state_terms(p, q, ts.spin):
            add_to(out, TensorState(ts.fock, sp2), c if sign > 0 else -c)
    return _vec(out)


def diagonal_casimir_apply(n: int, v: Vec) -> Vec:
    """sum_{ij>0, window} rho(E_ij) rho(E_ji); kills the invariant sector."""
    out = Vec()
    for sign in (1, -1):
        for i0 in range(1, n + 1):
            for j0 in range(1, n + 1):
                i, j = sign * i0, sign * j0
                out = out + rho_apply(i, j, rho_apply(j, i, v))
    return out


@dataclass(frozen=True, slots=True)
class InvariantBlock:
    trunc: int
    pairs: int
    spin_length: int
    basis: tuple[Vec, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def eigenvalue(self) -> Fraction:
        """Eigenvalue of D^2 on the block."""
        return Fraction(self.pairs + self.spin_length, 2)


def _block_states(n: int, pairs: int, spin_length: int) -> list[TensorState]:
    fs = fock_basis(n, zero_ok=False, charge=0)
    fs = [f for f in fs if len(f.plus) == pairs]
    ss = spin_basis(n, length=spin_length)
    return [TensorState(f, s) for f in fs for s in ss]


def _invariant_nullspace(n: int, pairs: int, spin_length: int, window: int) -> list[Vec]:
    cols = _block_states(n, pairs, spin_length)
    if not cols:
        return []
    col_index = {ts: i for i, ts in enumerate(cols)}
    ops = [(s * i, s * j) for s in (1, -1) for i in range(1, window + 1) for j in range(1, window + 1)]
    rows: dict[tuple, dict[int, Scalar]] = {}
    for ci, ts in enumerate(cols):
        for op_i, (p, q) in enumerate(ops):
            # the image of one column has distinct states, so each row
            # gets at most one entry per column
            for state, coeff in rho_apply(p, q, Vec.basis(ts)).terms.items():
                rows.setdefault((op_i, state), {})[ci] = coeff
    matrix = ExactMatrix(list(rows.values()), len(cols))
    basis = []
    for vec in matrix.nullspace():
        basis.append(Vec({cols[i]: c for i, c in vec.terms.items()}))
    return basis


def invariant_basis(n: int, pairs: int, spin_length: int) -> InvariantBlock:
    """Exact basis of the diagonal-invariant (pairs, spin_length) block.

    Constraints are imposed for all index pairs of a common sign inside
    the window n+1 (one index beyond the state window); constraints
    reaching further out act as relabelled copies of these, which
    ``constraint_window_robust`` verifies.
    """
    if n < max(pairs, spin_length):
        raise ValueError("truncation too small for the requested block")
    basis = _invariant_nullspace(n, pairs, spin_length, n + 1)
    return InvariantBlock(n, pairs, spin_length, tuple(basis))


def constraint_window_robust(n: int, pairs: int, spin_length: int) -> bool:
    """True when the windows n+1 and n+2 cut out the same block."""
    a = _invariant_nullspace(n, pairs, spin_length, n + 1)
    b = _invariant_nullspace(n, pairs, spin_length, n + 2)
    if not a and not b:
        return True
    return spans_equal(a, b)


def t_square_apply(v: Vec) -> Vec:
    """Renormalized Casimir (x) 1 + 1 (x) fermion number (= 4 D^2 on
    the invariant sector)."""
    g = _cas.CasimirVariant(_cas.G_LIMIT, None, include0=False)
    return _fock_op_tensor(v, lambda fv: _cas.casimir_apply(g, fv)) + _spin_op_tensor(v, fermion_number_apply)


# ---------------------------------------------------------------------------
# Square identities for the cut-off operator


def _spin_op_tensor(v: Vec, spin_fn) -> Vec:
    """1 (x) spin_fn applied factor-wise."""
    grouped: dict[FockState, dict[SpinState, Scalar]] = {}
    for ts, c in v.terms.items():
        grouped.setdefault(ts.fock, {})[ts.spin] = c
    # each group has its own Fock factor, so the images never overlap
    return _vec(
        {TensorState(f, s): c for f, terms in grouped.items() for s, c in spin_fn(_vec(terms)).terms.items()}
    )


def _fock_op_tensor(v: Vec, fock_fn) -> Vec:
    """fock_fn (x) 1 applied factor-wise."""
    grouped: dict[SpinState, dict[FockState, Scalar]] = {}
    for ts, c in v.terms.items():
        grouped.setdefault(ts.spin, {})[ts.fock] = c
    return _vec(
        {TensorState(f, s): c for s, terms in grouped.items() for f, c in fock_fn(_vec(terms)).terms.items()}
    )


def _e_pair_state(p: int, q: int, a: tuple[int, int], b: tuple[int, int], ts: TensorState):
    """E_pq (x) u_a u_b on a tensor basis state; (sign, state) or None."""
    t = gamma_pair_state(a, b, ts.spin)
    if t is None:
        return None
    u = rhat_state(p, q, ts.fock)
    if u is None:
        return None
    return t[0] * u[0], TensorState(u[1], t[1])


def _square_rhs_raw(n: int, v: Vec) -> Vec:
    """4 x the raw three-term expansion of the cut-off square."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(-n, 0)]
    pairs += [(j, i) for (i, j) in pairs]
    # (1/16) sum (delta_jm E_in - delta_ni E_mj) (x) [gamma_ji, gamma_nm]
    # with gamma = sqrt(2) u this is (1/8)*... ; scaled by 4 -> 1/2, and
    # [gamma_ji, gamma_nm] = 2(u_ji u_nm - u_nm u_ji): the terms of sign
    # +1 and -1 are collected as (p, q, a, b) for E_pq (x) u_a u_b.
    plus, minus = [], []
    for i, j in pairs:
        for m, n2 in pairs:
            ji, nm = (j, i), (n2, m)
            if j == m:
                plus.append((i, n2, ji, nm))
                minus.append((i, n2, nm, ji))
            if n2 == i:
                minus.append((m, j, ji, nm))
                plus.append((m, j, nm, ji))
    out = (lift_sum(v, _e_pair_state, plus) - lift_sum(v, _e_pair_state, minus)).scaled(HALF)
    # (1/8) sum sign(i) 1 (x) gamma_ij gamma_ji = (1/4) sum sign(i) u u;
    # scaled by 4 -> sign(i) * u_ij u_ji.
    plus_units = [((i, j), (j, i)) for i, j in pairs if i > 0]
    minus_units = [((i, j), (j, i)) for i, j in pairs if i < 0]
    out = out + _spin_op_tensor(
        v, lambda sv: lift_sum(sv, gamma_pair_state, plus_units) - lift_sum(sv, gamma_pair_state, minus_units)
    )
    # (1/4) sum E_ij E_ji (x) 1; scaled by 4 -> E_ij E_ji.
    return out + _fock_op_tensor(v, lambda fv: lift_sum(fv, rhat_pair_state, pairs))


def _square_rhs_hk(n: int, v: Vec) -> Vec:
    """Naive-Casimir form of 4 D_(N)^2 with the diagonal Casimir subtracted.

    The regrouping reads

        Delta_g^(N) (x) 1
          - [sum_{ij>0} E_ij E_ji (x) 1 + 2 E_ij (x) H_ji + 1 (x) H_ij H_ji]
          + 1 (x) sum_{ij>0} H_ij H_ji + 1 (x) sum_i sign(i) H_ii,

    with Delta_g^(N) = sum E_ij E_ji over all window pairs, both halves
    and the diagonal included.  The same-sign part of Delta_g^(N) and the
    H H sums cancel, so it is computed as

        sum_{ij<0} E_ij E_ji (x) 1 - 2 sum_{ij>0} E_ij (x) H_ji
          + 1 (x) sum_i sign(i) H_ii.
    """
    idx = [i for i in range(-n, n + 1) if i != 0]
    cross = [(i, j) for i in idx for j in idx if i * j < 0]
    acc = _fock_op_tensor(v, lambda fv: lift_sum(fv, rhat_pair_state, cross))
    for i in idx:
        for j in idx:
            if i * j > 0:
                mid = _spin_op_tensor(v, lambda sv: k_family_apply(H_N, n, j, i, sv))
                acc = acc - _fock_op_tensor(mid, lambda fv: rhat_apply(i, j, fv)).scaled(2)
    for i in idx:
        h = _spin_op_tensor(v, lambda sv: k_family_apply(H_N, n, i, i, sv))
        acc = acc + (h if i > 0 else -h)
    return acc


def invariance_residual(v: Vec, window: int) -> Scalar:
    best = ZERO
    for s in (1, -1):
        for i in range(1, window + 1):
            for j in range(1, window + 1):
                r = rho_apply(s * i, s * j, v).max_abs()
                if best < r:
                    best = r
    return best


def square_identity_residual(n: int, form: str, v: Vec) -> Scalar:
    """max coefficient residual between 4 D_(N)^2 v and the named form.

    ``raw``   - the commutator/anticommutator expansion of the square;
    ``hk``    - the naive-Casimir regrouping;
    ``final`` - Casimir_ren^(N) (x) 1 + 1 (x) F_(N), valid on the
                invariant sector only (checked, error otherwise); the
                exact square (no cut-off) is required to agree as well.
    """
    lhs = dirac_cutoff_apply(n, dirac_cutoff_apply(n, v)).scaled(4)
    if form == "raw":
        rhs = _square_rhs_raw(n, v)
    elif form == "hk":
        rhs = _square_rhs_hk(n, v)
    elif form == "final":
        bound = max((ts.bound() for ts in v.terms), default=0)
        if invariance_residual(v, max(n, bound) + 1):
            raise ValueError("final form needs an invariant vector")
        g = _cas.CasimirVariant(_cas.G_REN_N, n, include0=False)
        rhs = _fock_op_tensor(v, lambda fv: _cas.casimir_apply(g, fv))
        rhs = rhs + _spin_op_tensor(v, lambda sv: fermion_number_cutoff_apply(n, sv))
        exact = dirac_apply(dirac_apply(v)).scaled(4)
        r2 = (exact - rhs).max_abs()
        r1 = (lhs - rhs).max_abs()
        return r1 if r2 < r1 else r2
    else:
        raise ValueError(f"unknown square form {form!r}")
    return (lhs - rhs).max_abs()


def spectrum_report(n: int, degree_bound: int) -> dict:
    """Block dimensions and exact D^2 eigenvalues up to the degree bound.

    Raises if the zero-eigenvalue part is anything other than the
    one-dimensional (0, 0) block.
    """
    blocks = []
    kernel_dim = 0
    for pairs in range(degree_bound + 1):
        for k in range(degree_bound + 1):
            blk = invariant_basis(n, pairs, k)
            eig = blk.eigenvalue
            blocks.append({"M": pairs, "k": k, "dim": blk.dim, "eig": str(eig)})
            if eig == 0:
                kernel_dim += blk.dim
            elif blk.dim:
                # nonzero block: eigenvalue certified on the basis
                for vec in blk.basis:
                    resid = dirac_apply(dirac_apply(vec)) - vec.scaled(Scalar.of(eig))
                    if not resid.is_zero():
                        raise RuntimeError("block eigenvalue check failed")
    if kernel_dim != 1:
        raise RuntimeError(f"kernel dimension {kernel_dim} != 1")
    return {"trunc": n, "blocks": blocks, "kernel_dim": kernel_dim}


def tensor_states(bound: int) -> list[TensorState]:
    """Charge-0 tensor basis states bounded by ``bound``."""
    fs = fock_basis(bound, zero_ok=False, charge=0)
    ss = spin_basis(bound)
    out = [TensorState(f, s) for f in fs for s in ss]
    out.sort(key=TensorState.sort_key)
    return out
