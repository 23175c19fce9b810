"""Normal-ordered Casimir operators, highest weight vectors, Heisenberg shifts.

Two lattices are in play, and each state records its own
(``FockState.zero_ok``).  The include-zero lattice (plus half =
{0, 1, 2, ...}) carries the cut-off Casimir

    D^(N) = 2 sum_{j<i, |i|,|j|<=N} E_ij E_ji + sum_{|i|<=N} E_ii (E_ii - 2i)

(tag ``normal_N``), its window-free limit (``limit``) and the Heisenberg
shifts; the exclude-zero lattice carries the renormalized variant with
diagonal term E_ii (E_ii - 2i + sign(i)) (``g_ren_N``, ``g_limit``).
The tag fixes the lattice of these four; the naive double sum
(``naive_N``) runs over the window of each input state's own lattice.
It differs from the normal-ordered sums by the exact window constants

    naive - normal = N(N+1)   (include-zero window),
    naive - g_ren  = N^2      (exclude-zero window),

the count of raising/lowering pairs crossing the polarization inside
the window.  Note the boundary convention forced by the vacuum sea
{k < 0}: index 0 belongs to the plus half, so the commutator table and
the cocycle treat 0 like a positive index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .fock import FockState, LatticeError, LieElement, _bound, diagonal_weight, half_sign, window
from .linalg import Vec
from .scalar import ONE, ZERO, Scalar
from .words import _apply, _images, _word_table

NAIVE_N = "naive_N"
NORMAL_N = "normal_N"
LIMIT = "limit"
G_REN_N = "g_ren_N"
G_LIMIT = "g_limit"

# The lattice of each tag as a ``zero_ok`` value; ``naive_N`` (None)
# follows its input states.
_LATTICE = {NAIVE_N: None, NORMAL_N: True, LIMIT: True, G_REN_N: False, G_LIMIT: False}


@dataclass(frozen=True, slots=True)
class CasimirVariant:
    tag: str
    n: int | None = None

    def __post_init__(self):
        if self.tag not in _LATTICE:
            raise ValueError(f"unknown casimir variant {self.tag!r}")
        if self.tag in (NAIVE_N, NORMAL_N, G_REN_N) and self.n is None:
            raise ValueError(f"{self.tag} needs a cut-off N")


# The window-free limits are their cut-offs at each state's own bound:
# with annihilate-first ordering every contributing pair stays within the
# occupied window, so the infinite sums collapse.
_CUTOFF = {LIMIT: NORMAL_N, G_LIMIT: G_REN_N}


def _casimir_words(tag: str, n: int, zero_ok: bool):
    """The words of a cut-off Casimir on the window of one lattice.

    ``naive_N`` is sum_{i,j} E_ij E_ji.  ``normal_N`` (corr 0) and
    ``g_ren_N`` (corr 1) are 2 sum_{j<i} E_ij E_ji (raising first) plus
    the diagonal E_ii (E_ii - 2i + corr sign(i)), as the words E_ii E_ii
    of weight 1 and E_ii of weight -2i + corr sign(i).
    """
    idx = window(n, zero_ok)
    if tag == NAIVE_N:
        for i in idx:
            for j in idx:
                yield 1, ((i, j), (j, i)), ()
        return
    corr = 0 if tag == NORMAL_N else 1
    for i in idx:
        for j in idx:
            if j < i:
                yield 2, ((i, j), (j, i)), ()
    for i in idx:
        yield 1, ((i, i), (i, i)), ()
        w = -2 * i + corr * half_sign(i, zero_ok)
        if w:
            yield w, ((i, i),), ()


def casimir_apply(variant: CasimirVariant, v: Vec) -> Vec:
    """Apply the selected Casimir variant exactly.

    Windowed variants demand the support inside the window (hard error,
    like the shift operators): evaluating them across the boundary
    would produce plausible but silently truncated numbers.  The sum
    runs through the word table of the window of each state's lattice.
    """
    zero_ok = _LATTICE[variant.tag]
    for s in v.terms:
        if zero_ok is not None and s.zero_ok != zero_ok:
            raise ValueError("state lattice does not match the variant lattice")
        if variant.n is not None and s.bound() > variant.n:
            raise ValueError("support exceeds the cut-off window")
    tag, n = _CUTOFF.get(variant.tag, variant.tag), variant.n

    def images(key) -> dict:
        return _images(_word_table(_casimir_words, tag, _bound(key) if n is None else n, key[2]), key)

    return _apply(v, images, ONE)


def casimir_commutator(variant: CasimirVariant, m: int, n: int) -> LieElement:
    """Closed form of [Casimir, E_mn]: 2 * halfsign(m) * E_mn across the
    polarization, zero when m and n sit in the same half.

    The halves are those of the variant's lattice; ``naive_N`` takes the
    include-zero one."""
    if variant.n is not None and max(abs(m), abs(n)) > variant.n:
        raise ValueError("index out of the cut-off window")
    zero_ok = _LATTICE[variant.tag] is not False
    hm, hn = half_sign(m, zero_ok), half_sign(n, zero_ok)
    if hm == hn:
        return LieElement({}, 0, zero_ok)
    return LieElement({(m, n): Scalar.of(2 * hm)}, 0, zero_ok)


def num_of(w: FockState) -> int:
    """Number of antiparticle creators in the canonical word.

    For charge-0 states this is the pair count |plus| = |minus|; it is
    the count that makes the eigenvalue law

        Casimir(w) = [2 num_of(w) + 1 - (m - 1)^2] w   (charge m)

    exact on every canonical basis state of the include-zero lattice.
    """
    return len(w.minus)


def hw_state(m: int) -> FockState:
    """Charge-m highest weight vector on the include-zero lattice."""
    if m > 0:
        return FockState(tuple(range(0, m)), (), True)
    if m < 0:
        return FockState((), tuple(range(m, 0)), True)
    return FockState.vacuum(True)


def hw_weight(m: int, i: int) -> int:
    """Diagonal weight of E_ii on hw_state(m)."""
    if m > 0 and 0 <= i <= m - 1:
        return 1
    if m < 0 and m <= i < 0:
        return -1
    return 0


def _heisenberg_words(n: int, k: int):
    """The words E_{i,i+k} of s_k, i and i + k in the include-zero window."""
    idx = window(n, True)
    inside = set(idx)
    for i in idx:
        if i + k in inside:
            yield 1, ((i, i + k),), ()


def heisenberg_apply(n: int, k: int, v: Vec) -> Vec:
    """Windowed Heisenberg shift s_k = sum_i E_{i,i+k}, [s_a, s_k] = a delta_{a,-k}.

    The shifts translate the include-zero lattice, so a state of the
    exclude-zero lattice raises ``LatticeError``.  Hard interior
    precondition: every occupied |index| must stay <= N - |k|, otherwise
    the windowed sum would silently differ from the full one near the
    boundary.
    """
    if k == 0:
        raise ValueError("k must be nonzero")
    for s in v.terms:
        if not s.zero_ok:
            raise LatticeError("the Heisenberg shifts act on the include-zero lattice")
        if s.bound() > n - abs(k):
            raise ValueError("support too close to the window edge")
    return _apply(v, partial(_images, _word_table(_heisenberg_words, n, k)), ONE)


def window_identity_residual(n: int, states: list[FockState]) -> Scalar:
    """max residual of sum_{i<j, window}(E_ii - E_jj) = -2 sum_k k E_kk
    on the include-zero window, applied to the given basis states."""
    idx = window(n, True)
    best = ZERO
    for s in states:
        lhs = 0
        for a, i in enumerate(idx):
            for j in idx[a + 1 :]:
                lhs += diagonal_weight(i, s) - diagonal_weight(j, s)
        rhs = -2 * sum(k * diagonal_weight(k, s) for k in idx)
        r = abs(Scalar.of(lhs - rhs))
        if best < r:
            best = r
    return best
