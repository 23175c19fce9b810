"""Normal-ordered Casimir operators, highest weight vectors, Heisenberg shifts.

Two lattices are in play.  The include-zero lattice (plus half =
{0, 1, 2, ...}) carries the cut-off Casimir

    D^(N) = 2 sum_{j<i, |i|,|j|<=N} E_ij E_ji + sum_{|i|<=N} E_ii (E_ii - 2i)

and its window-free limit; the exclude-zero lattice carries the
renormalized variant with diagonal term E_ii (E_ii - 2i + sign(i)).
The naive double sums differ from the normal-ordered ones by the exact
window constants

    naive - normal = N(N+1)   (include-zero window),
    naive - g_ren  = N^2      (exclude-zero window),

the count of raising/lowering pairs crossing the polarization inside
the window.  Note the boundary convention forced by the vacuum sea
{k < 0}: index 0 belongs to the plus half, so the commutator table and
the cocycle treat 0 like a positive index.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fock import FockState, LieElement, diagonal_weight, half_sign, rhat_pair_state, rhat_state, window
from .linalg import Vec, _vec, add_to, lift_sum
from .scalar import ZERO, Scalar

NAIVE_N = "naive_N"
NORMAL_N = "normal_N"
LIMIT = "limit"
G_REN_N = "g_ren_N"
G_LIMIT = "g_limit"

_TAGS = (NAIVE_N, NORMAL_N, LIMIT, G_REN_N, G_LIMIT)


@dataclass(frozen=True, slots=True)
class CasimirVariant:
    tag: str
    n: int | None = None
    include0: bool = True

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown casimir variant {self.tag!r}")
        if self.tag in (NAIVE_N, NORMAL_N, G_REN_N) and self.n is None:
            raise ValueError(f"{self.tag} needs a cut-off N")
        if self.tag in (NORMAL_N, LIMIT) and not self.include0:
            raise ValueError(f"{self.tag} lives on the include-zero lattice")
        if self.tag in (G_REN_N, G_LIMIT) and self.include0:
            raise ValueError(f"{self.tag} lives on the exclude-zero lattice")


def _casimir_state(tag: str, n: int | None, include0: bool, s: FockState) -> Vec:
    if tag in (LIMIT, G_LIMIT):
        # Annihilate-first ordering: every contributing pair stays
        # within the occupied window, so the infinite sums collapse.
        n = s.bound()
    idx = window(n, include0)
    # quadratic part: 2 sum_{j<i} E_ij E_ji (raising first)
    lower = [(i, j) for i in idx for j in idx if j < i]
    quad = lift_sum(Vec.basis(s, 2), rhat_pair_state, lower)
    # diagonal part (the caller guarantees the support sits inside the
    # window, so the occupied sums are complete)
    sign_corr = 0 if tag in (NORMAL_N, LIMIT) else 1
    diag = 0
    for i in s.plus:
        diag += 1 - 2 * i + sign_corr
    for i in s.minus:
        diag += 1 + 2 * i + sign_corr
    return quad + Vec.basis(s, diag)


def casimir_apply(variant: CasimirVariant, v: Vec) -> Vec:
    """Apply the selected Casimir variant exactly.

    Windowed variants demand the support inside the window (hard error,
    like the shift operators): evaluating them across the boundary
    would produce plausible but silently truncated numbers.
    """
    for s in v.terms:
        if s.zero_ok != variant.include0:
            raise ValueError("state lattice does not match the variant lattice")
        if variant.n is not None and s.bound() > variant.n:
            raise ValueError("support exceeds the cut-off window")
    if variant.tag == NAIVE_N:
        idx = window(variant.n, variant.include0)
        return lift_sum(v, rhat_pair_state, [(i, j) for i in idx for j in idx])
    out: dict = {}
    for s, c in v.terms.items():
        for k, x in _casimir_state(variant.tag, variant.n, variant.include0, s).terms.items():
            add_to(out, k, x * c)
    return _vec(out)


def casimir_commutator(variant: CasimirVariant, m: int, n: int) -> LieElement:
    """Closed form of [Casimir, E_mn]: 2 * halfsign(m) * E_mn across the
    polarization, zero when m and n sit in the same half."""
    if variant.n is not None and max(abs(m), abs(n)) > variant.n:
        raise ValueError("index out of the cut-off window")
    include0 = variant.include0
    hm, hn = half_sign(m, include0), half_sign(n, include0)
    if hm == hn:
        return LieElement({}, 0, include0)
    return LieElement({(m, n): Scalar.of(2 * hm)}, 0, include0)


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


def heisenberg_apply(n: int, k: int, v: Vec, include0: bool = True) -> Vec:
    """Windowed shift operator s_k = sum_i E_{i,i+k}.

    With ``include0`` (the include-zero lattice) this is the Heisenberg
    shift, [s_a, s_k] = a delta_{a,-k}.  With ``include0=False`` it is the
    same window sum with every pair that touches the index 0 dropped,
    which is not a translation of the exclude-zero lattice, so it is not
    a Heisenberg shift: on the vacuum [s_a, s_-a] = a - sign(a).

    Hard interior precondition: every occupied |index| must stay
    <= N - |k|, otherwise the windowed sum would silently differ from
    the full one near the boundary.
    """
    if k == 0:
        raise ValueError("k must be nonzero")
    for s in v.terms:
        if s.bound() > n - abs(k):
            raise ValueError("support too close to the window edge")
    idx = window(n, include0)
    inside = set(idx)
    return lift_sum(v, rhat_state, [(i, i + k) for i in idx if i + k in inside])


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
