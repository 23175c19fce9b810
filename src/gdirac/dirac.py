"""The Dirac-type operator on (charge-0 Fock space) x (spinor module).

The operator is the normal-ordered contraction

    D = 1/2 sum_{i*j<0} E_ij (x) gamma_ji

whose two branches either annihilate a particle/antiparticle pair of
the Fock factor while creating a spinor mode, or the reverse.  On
finitely supported vectors each infinite sum collapses to the occupied
indices, so D is exact with no cut-off.  Its square, restricted to the
diagonal-invariant sector, equals 1/4 (renormalized Casimir (x) 1 +
1 (x) fermion number).

The cut-off operator D_N and the three right sides of 4 D_N^2 (``raw``,
``hk`` and ``final``, the last Cas_ren^(N) (x) 1 + 1 (x) F_N) are
literal window sums of words E_pq... (x) u_ab..., with u = gamma/sqrt(2)
and integer weights, and run through the word tables of ``words``.  The
exact D (``dirac_apply``) uses no table: it walks the occupied pairs and
modes of each state's masks, and is the oracle the tables are compared
against.

A ``TensorState`` is one mask key ``(pm, mm, zero_ok, spin)`` of
``fock.MaskState``, the masks of its Fock and spin factors, which are
rebuilt from it on demand.  The two exact maps on it, sqrt(2) D
(``_dirac_images``) and the diagonal action rho (``_rho_images``), are
images functions: they read the key through the key cores
``fock._rhat``, ``spinor._unit`` and ``spinor._ktilde``, whose results
are keys again, and build no state.  D, D_N and ``t_square_apply``
refuse the include-zero lattice: index 0 has no spinor mode.

Every operator here reaches vectors through the one entry point of
``words``, ``_apply``: D and D_N at scale sqrt(2)/2, ``t_square_apply``
(the ``final`` words at each state's own bound) at 1/2 and ``rho_apply``
at 1.  The invariant sector's constraint rows are the integer images of
``_rho_images`` on its columns, and its invariance residual is a
``words._residual`` of the same images.  Every square
form is one integer residual (``_square_residual``, a ``words._residual``
of the ``words._compose`` of 4 W W - W_R), W the integer images of D_N's
table or, for the exact half of ``final``, of the exact D; only the
largest coefficient becomes a scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from . import casimir as _cas
from .fock import FockState, MaskState, _bound, _rhat, _store, fock_basis, half_sign, window_pairs
from .linalg import ExactMatrix, Vec, set_bits, spans_equal, vec_sum
from .scalar import HALF, HALF_SQRT2, ONE, ZERO, Scalar
from .spinor import (
    SpinState,
    _fermion_number_words,
    _ktilde,
    _mode_at,
    _unit,
    k_pairs,
    spin_basis,
)
from .words import _apply, _compose, _residual, _table_images


class TensorState(MaskState):
    """A Fock basis state tensored with a spin basis state.

    The state is its mask key ``(pm, mm, zero_ok, spin)``: the Fock
    factor's masks and lattice and the spin factor's grid mask.  The
    factors ``fock`` and ``spin`` are rebuilt from the key on each use,
    so a state holds no factor objects.  Instances are immutable.
    """

    __slots__ = ()

    def __init__(self, fock: FockState, spin: SpinState):
        pm, mm, zero_ok, _ = fock.mask_key
        _store(self, (pm, mm, zero_ok, spin.mask_key[3]))

    @property
    def fock(self) -> FockState:
        pm, mm, zero_ok, _ = self.mask_key
        return FockState.from_mask_key(pm, mm, zero_ok, 0)

    @property
    def spin(self) -> SpinState:
        return SpinState.from_mask_key(0, 0, False, self.mask_key[3])

    def sort_key(self):
        return (self.fock.sort_key(), self.spin.sort_key())

    def __reduce__(self):
        return (TensorState, (self.fock, self.spin))

    def __repr__(self) -> str:
        return f"TensorState(fock={self.fock!r}, spin={self.spin!r})"

    def __str__(self) -> str:
        return f"{self.fock}(x){self.spin}"


def _refuse_include_zero(v: Vec) -> None:
    """D, D_N and the renormalized Casimir live on the exclude-zero
    lattice: index 0 has no spinor mode."""
    if any(ts.mask_key[2] for ts in v.terms):
        raise ValueError("state lattice does not match the variant lattice")


def _dirac_images(key) -> dict:
    """The images of the basis state with mask key ``key`` under
    sqrt(2) D, as integer weights on mask keys; the annihilating factors
    bound every sum, and the masks are decoded with no state built."""
    pm, mm, _, mask = key
    minus = [-1 - i for i in set_bits(mm)]
    images: dict = {}
    # pair annihilation in Fock, mode creation in spin: E_{p,q} over
    # occupied q > 0 > p; pair creation in Fock, mode annihilation in
    # spin: E_{m,l} over occupied modes (m, l)
    for p, q in [(p, q) for q in set_bits(pm) for p in minus] + [_mode_at(t) for t in set_bits(mask)]:
        t = _unit(q, p, key)
        u = t and _rhat(p, q, t[1])
        if u:
            images[u[1]] = images.get(u[1], 0) + (-1 if (t[0] + u[0]) & 1 else 1)
    return images


def dirac_apply(v: Vec) -> Vec:
    """Exact Dirac action, with no cut-off and no word table, on the
    exclude-zero lattice."""
    _refuse_include_zero(v)
    return _apply(v, _dirac_images, HALF_SQRT2)


# ---------------------------------------------------------------------------
# The windowed tensor operators, through the word tables of ``words``


def _dirac_words(n: int):
    """The words E_ij (x) u_ji, ij < 0, of D_N, whose scale is sqrt(2)/2."""
    for i, j in window_pairs(n, -1):
        yield 1, ((i, j),), ((j, i),)


def dirac_cutoff_apply(n: int, v: Vec) -> Vec:
    """Literal windowed sum 1/2 sum_{|i|,|j|<=N, ij<0} E_ij (x) gamma_ji,
    on the exclude-zero lattice."""
    _refuse_include_zero(v)
    return _apply(v, _table_images(_dirac_words, n), HALF_SQRT2)


def _rho_images(p: int, q: int):
    """The diagonal action rho(E_pq) = rhat(E_pq) (x) 1 + 1 (x) ad(E_pq),
    p*q > 0, as an images function: the images of ``fock._rhat`` and
    ``spinor._ktilde`` on a mask key, their signs summed per image.  The
    one rho of the package: ``rho_apply``, the invariant sector and the
    equivariance checks all run through it."""
    if p * q <= 0:
        raise ValueError("rho needs indices of a common sign")

    def images(key) -> dict:
        t = _rhat(p, q, key)
        out = {t[1]: -1 if t[0] & 1 else 1} if t else {}
        for crossings, image in _ktilde(p, q, key):
            out[image] = out.get(image, 0) + (-1 if crossings & 1 else 1)
        return out

    return images


def rho_apply(p: int, q: int, v: Vec) -> Vec:
    """Diagonal action rhat(E_pq) (x) 1 + 1 (x) ad(E_pq) for p*q > 0."""
    return _apply(v, _rho_images(p, q), ONE)


def diagonal_casimir_apply(n: int, v: Vec) -> Vec:
    """sum_{ij>0, window} rho(E_ij) rho(E_ji); kills the invariant sector."""
    return vec_sum(rho_apply(i, j, rho_apply(j, i, v)) for i, j in window_pairs(n, 1))


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
    """The weight-zero states of the (pairs, spin_length) block at
    truncation n: the vacuum for (0, 0), and none for any other block.

    This is the weight lemma.  rho(E_ii) is diagonal on the basis, and
    every Fock and spin contribution to its eigenvalue, the weight at i,
    has the sign of i: an occupied i > 0 and a mode (i, .) count +1, an
    occupied i < 0 and a mode (., i) count -1.
    The weights therefore cancel only where nothing is occupied, at every
    truncation.  The polarization behind it is that of Pressley and
    Segal, *Loop Groups* (1986).
    """
    if pairs or spin_length:
        return []
    return [TensorState(FockState(), SpinState())]


def _invariant_nullspace(n: int, pairs: int, spin_length: int, cutoff: int) -> list[Vec]:
    """Exact kernel of rho(E_pq) over all same-sign (p, q) in the window
    |p|, |q| <= cutoff, diagonal included, on the (pairs, spin_length) block.

    Only the block states of weight zero are columns: by the weight lemma
    (``_block_states``) the vacuum for (0, 0), and none otherwise.  This
    is exact: every other block state has a weight w_i != 0 at some
    |i| <= n, inside the window, where the diagonal row of rho(E_ii)
    holds its column alone and forces its coefficient to 0.  Every
    constraint row on the remaining column is still built and eliminated.
    """
    cols = _block_states(n, pairs, spin_length)
    if not cols:
        return []
    ops = window_pairs(cutoff, 1)
    rows: dict[tuple, dict[int, Scalar]] = {}
    for ci, ts in enumerate(cols):
        for p, q in ops:
            # the images of one column are distinct keys, so each row
            # gets at most one entry per column
            for key, w in _rho_images(p, q)(ts.mask_key).items():
                if w:
                    rows.setdefault((p, q, key), {})[ci] = Scalar.of(w)
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


# ---------------------------------------------------------------------------
# Square identities


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


def _final_words(n: int):
    """The words of 2 (Cas_ren^(N) (x) 1 + 1 (x) F_(N)): the ``g_ren_N``
    Casimir on the exclude-zero window, then the cut-off fermion number."""
    for w, fock_word, spin_word in chain(_cas._casimir_words(_cas.G_REN_N, n, False), _fermion_number_words(n)):
        yield 2 * w, fock_word, spin_word


# the right-hand sides of 4 D_(N)^2, as word sums of scale 1/2
_SQUARE_WORDS = {"raw": _raw_words, "hk": _hk_words, "final": _final_words}


def t_square_apply(v: Vec) -> Vec:
    """Renormalized Casimir (x) 1 + 1 (x) fermion number (= 4 D^2 on
    the invariant sector): half the ``final`` words, at each state's own
    bound, where the cut-off sums collapse to their limits."""
    _refuse_include_zero(v)
    return _apply(v, lambda key: _table_images(_final_words, _bound(key))(key), HALF)


def invariance_residual(v: Vec, cutoff: int) -> Scalar:
    """Largest coefficient of rho(E_pq) v over the same-sign pairs
    |p|, |q| <= cutoff."""
    return max((_residual(v, _rho_images(p, q), ONE) for p, q in window_pairs(cutoff, 1)), default=ZERO)


def _square_residual(d_images, rhs_images, v: Vec) -> Scalar:
    """max coefficient of 4 D^2 v - 1/2 R v, in integers.

    ``d_images`` and ``rhs_images`` give the integer images W of sqrt(2) D
    (D_N's table, or the exact D) and of the right side R on mask keys,
    so the residual is that of 1/2 (4 W W - R), composed per input state
    with no vector in between (``words._residual``).
    """
    return _residual(v, _compose([(4, (d_images, d_images)), (-1, (rhs_images,))]), HALF)


def square_identity_residual(n: int, form: str, v: Vec) -> Scalar:
    """max coefficient residual between 4 D_(N)^2 v and the named form.

    ``raw``   - the commutator/anticommutator expansion of the square;
    ``hk``    - the naive-Casimir regrouping;
    ``final`` - Casimir_ren^(N) (x) 1 + 1 (x) F_(N), valid on the
                invariant sector only (checked, error otherwise); the
                exact square (no cut-off) is required to agree as well.

    Each form is the table of its right side in ``_square_residual``
    against D_N's table; ``final`` also against the exact D, and returns
    the larger residual.  Every form refuses the include-zero lattice,
    as D_N does.
    """
    if form not in _SQUARE_WORDS:
        raise ValueError(f"unknown square form {form!r}")
    _refuse_include_zero(v)
    if form == "final" and invariance_residual(v, max(n, *(ts.bound() for ts in v.terms)) + 1):
        raise ValueError("final form needs an invariant vector")
    rhs = _table_images(_SQUARE_WORDS[form], n)
    r = _square_residual(_table_images(_dirac_words, n), rhs, v)
    return max(r, _square_residual(_dirac_images, rhs, v)) if form == "final" else r


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
