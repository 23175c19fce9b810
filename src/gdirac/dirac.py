"""The Dirac-type operator on (charge-0 Fock space) x (spinor module).

The operator is the normal-ordered contraction

    D = 1/2 sum_{i*j<0} E_ij (x) gamma_ji

whose two branches either annihilate a particle/antiparticle pair of
the Fock factor while creating a spinor mode, or the reverse.  On
finitely supported vectors each infinite sum collapses to the occupied
indices, so D is exact with no cut-off.  Its square, restricted to the
diagonal-invariant sector, equals 1/4 (renormalized Casimir (x) 1 +
1 (x) fermion number).

The cut-off operator D_N and the ``raw`` and ``hk`` forms of 4 D_N^2 are
literal window sums of words E_pq... (x) u_ab..., with u = gamma/sqrt(2).
Each is compiled once per N into a word table, and one kernel
(``_apply_table``) applies every table on the occupation masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from typing import Iterator

from . import casimir as _cas
from .fock import FockState, _fock_state, _rhat_word, fock_basis, half_sign, rhat_state, window_pairs
from .linalg import ExactMatrix, Vec, _vec, add_to, spans_equal, vec_sum
from .scalar import HALF, HALF_SQRT2, ZERO, Scalar
from .spinor import (
    SpinState,
    _spin_state,
    _unit_word,
    fermion_number_apply,
    fermion_number_cutoff_apply,
    gamma_unit_state,
    k_pairs,
    ktilde_state_terms,
    spin_basis,
)


class TensorState:
    """A Fock basis state tensored with a spin basis state.

    The hash is taken at construction; instances are immutable.
    """

    __slots__ = ("fock", "spin", "_hash")

    def __init__(self, fock: FockState, spin: SpinState):
        _set_fock(self, fock)
        _set_spin(self, spin)
        _set_hash(self, hash((fock._hash, spin._hash)))

    def bound(self) -> int:
        return max(self.fock.bound(), self.spin.bound())

    def sort_key(self):
        return (self.fock.sort_key(), self.spin.sort_key())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TensorState:
            return NotImplemented
        return self.fock == other.fock and self.spin == other.spin

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: TensorState is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: TensorState is immutable")

    def __reduce__(self):
        return (TensorState, (self.fock, self.spin))

    def __repr__(self) -> str:
        return f"TensorState(fock={self.fock!r}, spin={self.spin!r})"

    def __str__(self) -> str:
        return f"{self.fock}(x){self.spin}"


_new = object.__new__
_set_fock = TensorState.fock.__set__
_set_spin = TensorState.spin.__set__
_set_hash = TensorState._hash.__set__


def _tensor_state(fock: FockState, spin: SpinState) -> TensorState:
    """Trusted constructor: ``TensorState`` without the call overhead."""
    s = _new(TensorState)
    _set_fock(s, fock)
    _set_spin(s, spin)
    _set_hash(s, hash((fock._hash, spin._hash)))
    return s


def dirac_apply(v: Vec) -> Vec:
    """Exact Dirac action: the annihilating factors bound every sum."""
    out: dict = {}
    for ts, c in v.terms.items():
        f, spin = ts.fock, ts.spin
        # pair annihilation in Fock, mode creation in spin: E_{p,q} over
        # occupied q > 0 > p; pair creation in Fock, mode annihilation in
        # spin: E_{m,l} over occupied modes (m, l)
        for p, q in [(p, q) for q in f.plus for p in f.minus] + list(spin.modes):
            t = gamma_unit_state(q, p, spin)
            u = t and rhat_state(p, q, f)
            if u:
                add_to(out, _tensor_state(u[1], t[1]), c if t[0] * u[0] > 0 else -c)
    return _vec(out).scaled(HALF_SQRT2)


# ---------------------------------------------------------------------------
# Word tables of the windowed tensor operators
#
# A windowed operator is a literal sum of words  w * F (x) S, with an
# integer weight w, a Fock word F (a product of E_pq) and a spin word S (a
# product of unit operators u_ab = gamma_ab / sqrt(2)), times one scale
# common to the whole sum.  Its table groups the words by Fock word, so the
# kernel evaluates each Fock word once per basis state, on the occupation
# masks, and its spin words only where it does not vanish, which is
# exactly where their terms can be nonzero.


@lru_cache(maxsize=48)
def _word_table(words_of, n: int) -> tuple:
    """The words ``(weight, fock_word, spin_word)`` of ``words_of(n)``,
    grouped as ``((fock_word, [(weight, spin_word), ...]), ...)``."""
    groups: dict = {}
    for w, fock_word, spin_word in words_of(n):
        groups.setdefault(fock_word, []).append((w, spin_word))
    return tuple(groups.items())


def _apply_table(words_of, scale: Scalar, n: int, v: Vec) -> Vec:
    """``scale`` times the word sum ``words_of(n)``, extended linearly to ``v``.

    Each input state collects its images as integer weights on masks, so
    terms that cancel never reach a scalar; the scale multiplies each
    output coefficient once, at the end, and states are built only for
    the images that survive.
    """
    table = _word_table(words_of, n)
    out: dict = {}
    for ts, c in v.terms.items():
        f = ts.fock
        zero_ok, spin = f.zero_ok, ts.spin.mask
        images: dict = {}
        for fock_word, words in table:
            t = _rhat_word(fock_word, f.plus_mask, f.minus_mask, zero_ok)
            if t is not None:
                for w, spin_word in words:
                    u = _unit_word(spin_word, spin)
                    if u is not None:
                        key = (t[1], t[2], zero_ok, u[1])
                        images[key] = images.get(key, 0) + (-w if (t[0] + u[0]) & 1 else w)
        for key, w in images.items():
            if w:
                add_to(out, key, c if w == 1 else -c if w == -1 else c * w)
    return _vec(
        {_tensor_state(_fock_state(pm, mm, z), _spin_state(mask)): c * scale for (pm, mm, z, mask), c in out.items()}
    )


def _dirac_words(n: int):
    """The words E_ij (x) u_ji, ij < 0, of D_N, whose scale is sqrt(2)/2."""
    for i, j in window_pairs(n, -1):
        yield 1, ((i, j),), ((j, i),)


def dirac_cutoff_apply(n: int, v: Vec) -> Vec:
    """Literal windowed sum 1/2 sum_{|i|,|j|<=N, ij<0} E_ij (x) gamma_ji."""
    return _apply_table(_dirac_words, HALF_SQRT2, n, v)


def rho_apply(p: int, q: int, v: Vec) -> Vec:
    """Diagonal action rhat(E_pq) (x) 1 + 1 (x) ad(E_pq) for p*q > 0."""
    if p * q <= 0:
        raise ValueError("rho needs indices of a common sign")
    out: dict = {}
    for ts, c in v.terms.items():
        t = rhat_state(p, q, ts.fock)
        if t is not None:
            add_to(out, _tensor_state(t[1], ts.spin), c if t[0] > 0 else -c)
        for sign, sp2 in ktilde_state_terms(p, q, ts.spin):
            add_to(out, _tensor_state(ts.fock, sp2), c if sign > 0 else -c)
    return _vec(out)


def diagonal_casimir_apply(n: int, v: Vec) -> Vec:
    """sum_{ij>0, window} rho(E_ij) rho(E_ji); kills the invariant sector."""
    return vec_sum(rho_apply(i, j, rho_apply(j, i, v)) for i, j in window_pairs(n, 1))


def rho_weight(ts: TensorState) -> dict[int, int]:
    """Weight of a tensor basis state: index i -> eigenvalue of rho(E_ii).

    rho(E_ii) is diagonal on the basis.  The Fock factor gives +1 for an
    occupied positive index and -1 for an occupied negative one (the
    normal-ordered E_ii, as ``fock.diagonal_weight``); the spin factor
    gives +1 at m and -1 at l for each mode (m, l).  Only indices of
    nonzero weight are stored, so an absent index has weight 0 and a
    state is of weight zero exactly when the result is empty.
    """
    w = dict.fromkeys(ts.fock.plus, 1)
    w.update(dict.fromkeys(ts.fock.minus, -1))
    for m, l in ts.spin.modes:
        w[m] = w.get(m, 0) + 1
        w[l] = w.get(l, 0) - 1
    return {i: c for i, c in w.items() if c}


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


def _mode_sets(rows: list[tuple[int, int]], cols: dict[int, int]) -> Iterator[tuple]:
    """Ascending mode tuples with ``count`` modes (m, .) for each
    ``(m, count)`` in ``rows`` (ascending in m), ``cols[l]`` modes (., l)
    for each l in ``cols``, and no other: the 0/1 matrices with these
    row and column sums.  A negative sum admits no matrix.
    """
    if not rows:
        if not any(cols.values()):
            yield ()
        return
    (m, count), rest = rows[0], rows[1:]
    if count < 0:
        return
    for chosen in combinations([l for l in sorted(cols) if cols[l] > 0], count):
        left = dict(cols)
        for l in chosen:
            left[l] -= 1
        head = tuple((m, l) for l in chosen)
        for tail in _mode_sets(rest, left):
            yield head + tail


def _block_states(n: int, pairs: int, spin_length: int) -> list[TensorState]:
    """The weight-zero states of the (pairs, spin_length) block at
    truncation n, in basis order.

    A mode (m, l) weighs +1 at m and -1 at l, so the spin factors of
    weight -w(f) over a Fock state f (``rho_weight``) have -w_f(m) modes
    (m, .) and w_f(l) modes (., l) at every index of the support of w_f,
    and none elsewhere.  Those are the 0/1 matrices with these margins,
    enumerated per Fock state at a cost set by its degree, not by n.
    """
    out = []
    for plus in combinations(range(1, n + 1), pairs):
        for minus in combinations(range(-n, 0), pairs):
            # w_f is +1 on plus and -1 on minus
            margins = _mode_sets([(m, -1) for m in plus], dict.fromkeys(minus, -1))
            spins = [modes for modes in margins if len(modes) == spin_length]
            if spins:
                f = FockState(plus, minus)
                out += [TensorState(f, SpinState(modes)) for modes in spins]
    return out


def _invariant_nullspace(n: int, pairs: int, spin_length: int, cutoff: int) -> list[Vec]:
    """Exact kernel of rho(E_pq) over all same-sign (p, q) in the window
    |p|, |q| <= cutoff, diagonal included, on the (pairs, spin_length) block.

    Only the block states of weight zero (``rho_weight``) are columns;
    ``_block_states`` generates them and no other.
    This is exact: every nonzero weight of a block state sits at an index
    |i| <= n, inside the window, and the diagonal row of rho(E_ii) at a
    state of weight w_i != 0 holds that one column alone, with entry w_i.
    So every kernel vector vanishes on the states of nonzero weight, each
    of them is a pivot of the reduced echelon form of the full matrix,
    the kernels of the full and the restricted matrix coincide, and so do
    their free columns and the returned basis.  Every constraint row that
    meets a remaining column is still built and eliminated.
    """
    cols = _block_states(n, pairs, spin_length)
    if not cols:
        return []
    ops = window_pairs(cutoff, 1)
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
    return _factor_sum(v, partial(_cas.casimir_apply, g), fermion_number_apply)


# ---------------------------------------------------------------------------
# Square identities for the cut-off operator


def _factor_sum(v: Vec, fock_fn, spin_fn) -> Vec:
    """fock_fn (x) 1 + 1 (x) spin_fn, applied state by state."""
    out: dict = {}
    for ts, c in v.terms.items():
        for f, x in fock_fn(_vec({ts.fock: c})).terms.items():
            add_to(out, _tensor_state(f, ts.spin), x)
        for s, x in spin_fn(_vec({ts.spin: c})).terms.items():
            add_to(out, _tensor_state(ts.fock, s), x)
    return _vec(out)


def _raw_words(n: int):
    """The words of 8 x the raw three-term expansion of the cut-off square."""
    pairs = window_pairs(n, -1)
    # (1/16) sum (delta_jm E_in - delta_ni E_mj) (x) [gamma_ji, gamma_nm]
    # with gamma = sqrt(2) u this is (1/8)*... ; scaled by 4 -> 1/2, and
    # [gamma_ji, gamma_nm] = 2 [u_ji, u_nm]: weight +-1 on each word.
    for i, j in pairs:
        for m, n2 in pairs:
            for w, spin_word in ((1, ((j, i), (n2, m))), (-1, ((n2, m), (j, i)))):
                if j == m:
                    yield w, ((i, n2),), spin_word
                if n2 == i:
                    yield -w, ((m, j),), spin_word
    for i, j in pairs:
        # (1/8) sum sign(i) 1 (x) gamma_ij gamma_ji = (1/4) sum sign(i) u u;
        # scaled by 4 -> sign(i) * u_ij u_ji, weight 2 sign(i).
        yield 2 * half_sign(i), (), ((i, j), (j, i))
        # (1/4) sum E_ij E_ji (x) 1; scaled by 4 -> E_ij E_ji, weight 2.
        yield 2, ((i, j), (j, i)), ()


def _hk_words(n: int):
    """The words of 2 x the naive-Casimir form of 4 D_(N)^2 with the
    diagonal Casimir subtracted.

    The regrouping reads

        Delta_g^(N) (x) 1
          - [sum_{ij>0} E_ij E_ji (x) 1 + 2 E_ij (x) H_ji + 1 (x) H_ij H_ji]
          + 1 (x) sum_{ij>0} H_ij H_ji + 1 (x) sum_i sign(i) H_ii,

    with Delta_g^(N) = sum E_ij E_ji over all window pairs, both halves
    and the diagonal included.  The same-sign part of Delta_g^(N) and the
    H H sums cancel, so it is the sum

        sum_{ij<0} E_ij E_ji (x) 1 - 2 sum_{ij>0} E_ij (x) H_ji
          + 1 (x) sum_i sign(i) H_ii,

    where 2 H_ji is the sum of the commutators [u_a, u_b] over the terms
    (u_a, u_b) of K^(N)_ji (``spinor.k_pairs``).
    """
    for i, j in window_pairs(n, -1):
        yield 2, ((i, j), (j, i)), ()
    for i, j in window_pairs(n, 1):
        # -2 E_ij (x) H_ji, and on the diagonal also sign(i) 1 (x) H_ii
        for w, fock_word in [(-2, ((i, j),))] + ([(half_sign(i), ())] if i == j else []):
            for a, b in k_pairs(n, j, i):
                yield w, fock_word, (a, b)
                yield -w, fock_word, (b, a)


# the right-hand sides of 4 D_(N)^2, as functions of (n, v)
_square_rhs_raw = partial(_apply_table, _raw_words, HALF)
_square_rhs_hk = partial(_apply_table, _hk_words, HALF)


def invariance_residual(v: Vec, cutoff: int) -> Scalar:
    """Largest coefficient of rho(E_pq) v over the same-sign pairs
    |p|, |q| <= cutoff."""
    best = ZERO
    for p, q in window_pairs(cutoff, 1):
        r = rho_apply(p, q, v).max_abs()
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
        rhs = _factor_sum(v, partial(_cas.casimir_apply, g), partial(fermion_number_cutoff_apply, n))
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
