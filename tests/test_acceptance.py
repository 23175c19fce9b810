"""Acceptance criteria: every contract is exact equality, zero tolerance.

Each criterion is one test (or a few clearly named clauses) that prints
one PASS line with its runtime against the stated wall-clock budget.

Highest-weight check: ``test_c07a_hw_casimir_stated_formula`` checks the
normal-ordered Casimir D = 2 sum_{j<i} E_ij E_ji + sum_i E_ii (E_ii - 2i)
on the charge-m highest-weight vector for every m in -3..3.  Every
raising E_ij (i < j) kills that vector, so only the diagonal part acts
and the eigenvalue is sum_i w_i (w_i - 2i) with w_i = hw_weight(m, i):
-m(m-2) for m >= 0 and -m^2 for m < 0 (2|m| above -m(m-2)).  The test
asserts the annihilation, computes that sum from the weights alone, and
requires exact equality from three independent code paths (the
window-free operator, the stabilized cut-off, and the naive double sum
minus the window constant).  The general law 2*num + 1 - (m-1)^2 (c07b)
specializes to the same values.
"""

import time

from oracles import rhat_lie_apply

from gdirac.casimir import (
    G_LIMIT,
    G_REN_N,
    LIMIT,
    NAIVE_N,
    NORMAL_N,
    CasimirVariant,
    casimir_apply,
    casimir_commutator,
    heisenberg_apply,
    hw_state,
    hw_weight,
    num_of,
)
from gdirac.dirac import (
    TensorState,
    constraint_window_robust,
    dirac_apply,
    dirac_cutoff_apply,
    invariant_basis,
    rho_apply,
    spectrum_report,
    square_identity_residual,
)
from gdirac.fock import (
    PSI,
    PSI_STAR,
    FockState,
    LieElement,
    apply_field,
    bracket_central,
    fock_basis,
    ores_bracket,
    ores_cocycle,
    rhat_apply,
    schwinger,
    t_ores_apply,
)
from gdirac.linalg import Vec
from gdirac.sampling import random_vector
from gdirac.scalar import ONE, Scalar
from gdirac.spinor import (
    H_N,
    K_RAW,
    K_TILDE_N,
    SpinState,
    fermion_number_apply,
    gamma_apply,
    k_family_apply,
    ktilde_exact_apply,
    spin_basis,
    spinor_casimir_apply,
)

_BUDGETS = {1: 5, 2: 5, 3: 5, 4: 10, 5: 2, 6: 5, 7: 15, 8: 5, 9: 20, 10: 30, 11: 60}
_SPENT: dict[int, float] = {}


class _clock:
    def __init__(self, criterion: int, label: str):
        self.criterion = criterion
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        dt = time.perf_counter() - self.t0
        total = _SPENT.get(self.criterion, 0.0) + dt
        _SPENT[self.criterion] = total
        budget = _BUDGETS[self.criterion]
        verdict = "PASS" if exc_type is None else "FAIL"
        print(
            f"[C{self.criterion}] {self.label}: {verdict} in {dt:.2f}s "
            f"(criterion total {total:.2f}s < {budget}s budget)"
        )
        assert total < budget, f"criterion {self.criterion} exceeded {budget}s"
        return False


def _nz(bound):
    return [i for i in range(-bound, bound + 1) if i]


def test_c01_car_and_clifford_relations():
    with _clock(1, "CAR + Clifford anticommutators, indices <= 3"):
        count = 0
        basis = fock_basis(3)
        for i in _nz(3):
            for j in _nz(3):
                for s in basis:
                    v = Vec.basis(s)
                    mixed = apply_field(PSI, i, apply_field(PSI_STAR, j, v)) + apply_field(
                        PSI_STAR, j, apply_field(PSI, i, v)
                    )
                    assert mixed == (v if i == j else Vec()), (i, j, s)
                    ann = apply_field(PSI, i, apply_field(PSI, j, v)) + apply_field(
                        PSI, j, apply_field(PSI, i, v)
                    )
                    assert ann.is_zero(), (i, j, s)
                    cre = apply_field(PSI_STAR, i, apply_field(PSI_STAR, j, v)) + apply_field(
                        PSI_STAR, j, apply_field(PSI_STAR, i, v)
                    )
                    assert cre.is_zero(), (i, j, s)
                    count += 3
        gens = [(i, j) for i in _nz(3) for j in _nz(3) if i * j < 0]
        from gdirac.spinor import gamma_unit_state

        for s in spin_basis(3):
            for a in gens:
                for b in gens:
                    want = 2 if (a[0] == b[1] and a[1] == b[0]) else 0
                    acc = {}
                    for first, second in ((b, a), (a, b)):
                        t = gamma_unit_state(*first, s)
                        if t is None:
                            continue
                        s1, mid = t
                        t = gamma_unit_state(*second, mid)
                        if t is None:
                            continue
                        s2, end = t
                        acc[end] = acc.get(end, 0) + 2 * s1 * s2
                    acc[s] = acc.get(s, 0) - want
                    assert all(x == 0 for x in acc.values()), (a, b, s)
                    count += 1
        assert count > 1000  # thousands of checks


def test_c02_central_extension():
    with _clock(2, "[rhat, rhat] = rhat([ , ]) + cocycle, indices <= 3"):
        assert schwinger(LieElement.unit(-1, 1), LieElement.unit(1, -1)) == ONE
        basis = fock_basis(3)
        idx = _nz(3)
        for p in idx:
            for q in idx:
                a = LieElement.unit(p, q)
                for m in idx:
                    for n in idx:
                        br = bracket_central(a, LieElement.unit(m, n))
                        for s in basis:
                            v = Vec.basis(s)
                            lhs = rhat_apply(p, q, rhat_apply(m, n, v)) - rhat_apply(
                                m, n, rhat_apply(p, q, v)
                            )
                            assert lhs == rhat_lie_apply(br, v), (p, q, m, n, s)


def test_c03_orthogonal_cocycle():
    with _clock(3, "quadratic-representation cocycle on particle states <= 3"):
        A = lambda i, j: {(i, j): ONE, (j, i): -ONE}
        triples = [
            ({(1, 1): ONE}, {}, {}),
            ({(1, 2): ONE}, {}, {}),
            ({}, A(1, 2), {}),
            ({}, {}, A(1, 2)),
            ({}, {}, A(1, 3)),
            ({(2, 2): ONE}, A(2, 3), A(1, 2)),
        ]
        states = [s for s in fock_basis(3) if not s.minus]
        for x in triples:
            for y in triples:
                br = ores_bracket(x, y)
                coc = ores_cocycle(x, y)
                for s in states:
                    v = Vec.basis(s)
                    lhs = t_ores_apply(*x, t_ores_apply(*y, v)) - t_ores_apply(
                        *y, t_ores_apply(*x, v)
                    )
                    assert lhs == t_ores_apply(*br, v) + v.scaled(coc), (x, y, s)
        # worked case: pure pair-creator against pure pair-annihilator
        x, y = ({}, {}, A(1, 2)), ({}, A(1, 2), {})
        assert ores_cocycle(x, y) == Scalar.of(-1)


def test_c04_k_family():
    with _clock(4, "cut-off quadratics: commutators, relations, stabilization"):
        n = 4
        sign_pairs = [(i, j) for i in _nz(3) for j in _nz(3) if i * j > 0]
        cross = [(m, l) for m in _nz(3) for l in _nz(3) if m * l < 0]
        vecs = [Vec.basis(s) for s in spin_basis(2)] + [
            random_vector("spin", 100 + t, 3) for t in range(10)
        ]
        for i, j in sign_pairs:
            kcache = {}

            def K(v):
                out = Vec()
                for s, c in v.terms.items():
                    w = kcache.get(s)
                    if w is None:
                        w = k_family_apply(K_RAW, n, i, j, Vec.basis(s))
                        kcache[s] = w
                    out = out + w.scaled(c)
                return out

            for m, l in cross:
                for v in vecs:
                    lhs = K(gamma_apply(m, l, v)) - gamma_apply(m, l, K(v))
                    rhs = Vec()
                    if j == m:
                        rhs = rhs + gamma_apply(i, l, v)
                    if i == l:
                        rhs = rhs - gamma_apply(m, j, v)
                    assert lhs == rhs, (i, j, m, l)
        kt = lambda a, b, w: k_family_apply(K_TILDE_N, n, a, b, w)
        for i, j in sign_pairs:
            for m, l in sign_pairs:
                for v in vecs[:20]:
                    lhs = kt(i, j, kt(m, l, v)) - kt(m, l, kt(i, j, v))
                    rhs = Vec()
                    if j == m:
                        rhs = rhs + kt(i, l, v)
                    if i == l:
                        rhs = rhs - kt(m, j, v)
                    assert lhs == rhs, (i, j, m, l)
        svac = Vec.basis(SpinState.vacuum())
        for i, j in sign_pairs:
            for nn in (3, 4):
                assert k_family_apply(K_TILDE_N, nn, i, j, svac).is_zero()
        for s in spin_basis(2):
            v = Vec.basis(s)
            for nn in range(max(s.bound(), 1), max(s.bound(), 1) + 3):
                for i, j in sign_pairs:
                    if max(abs(i), abs(j)) > nn:
                        continue
                    assert k_family_apply(K_TILDE_N, nn, i, j, v) == ktilde_exact_apply(i, j, v)


def test_c05_fermion_number():
    with _clock(5, "fermion number diagonal, kernel = vacuum line"):
        kernel = []
        for s in spin_basis(3):
            v = Vec.basis(s)
            out = fermion_number_apply(v)
            assert out == v.scaled(2 * len(s.modes))
            if out.is_zero():
                kernel.append(s)
        assert kernel == [SpinState.vacuum()]
        spectrum = {2 * len(s.modes) for s in spin_basis(3)}
        assert spectrum == set(range(0, 19, 2))


def test_c06_spinor_casimir():
    with _clock(6, "spinor Casimir = N^3 on bounded states"):
        for m in (0, 1, 2):
            for s in spin_basis(m):
                v = Vec.basis(s)
                for n in range(max(m, 1), m + 3):
                    assert spinor_casimir_apply(n, v) == v.scaled(n**3), (s, n)
                    assert spinor_casimir_apply(n, v, renormalized=True).is_zero()


def test_c07a_hw_casimir_stated_formula():
    with _clock(7, "highest-weight eigenvalue -m(m-2) (m >= 0), -m^2 (m < 0), m in -3..3"):
        for m in range(-3, 4):
            n = abs(m) + 2
            w = Vec.basis(hw_state(m))
            for i in range(-n, n + 1):
                for j in range(i + 1, n + 1):
                    assert rhat_apply(i, j, w).is_zero(), f"E_{i}{j} raises hw_state({m})"
            # raising operators kill w, so only the diagonal part
            # sum_i E_ii (E_ii - 2i) of the Casimir survives
            derived = sum(hw_weight(m, i) * (hw_weight(m, i) - 2 * i) for i in range(-n, n + 1))
            stated = -m * (m - 2) if m >= 0 else -m * m
            assert derived == stated, (m, derived, stated)
            paths = [
                casimir_apply(CasimirVariant(LIMIT), w),
                casimir_apply(CasimirVariant(NORMAL_N, n), w),
                casimir_apply(CasimirVariant(NAIVE_N, n), w) - w.scaled(n * (n + 1)),
            ]
            assert paths[0] == paths[1] == paths[2], f"code paths disagree at m={m}"
            assert paths[0] == w.scaled(derived), (m, paths[0].coeff(hw_state(m)), derived)


def test_c07b_casimir_eigenvalue_law():
    with _clock(7, "general law [2*num + 1 - (m-1)^2] on bounded charge sectors"):
        for charge in range(-2, 3):
            for s in fock_basis(4, zero_ok=True, charge=charge):
                v = Vec.basis(s)
                lam = 2 * num_of(s) + 1 - (charge - 1) ** 2
                assert casimir_apply(CasimirVariant(LIMIT), v) == v.scaled(lam), s


def test_c07c_casimir_commutator_table():
    with _clock(7, "commutator table against brute force"):
        n = 3
        var = CasimirVariant(NORMAL_N, n)
        for m in range(-n, n + 1):
            for k in range(-n, n + 1):
                closed = casimir_commutator(var, m, k)
                for s in fock_basis(2, zero_ok=True):
                    v = Vec.basis(s)
                    lhs = casimir_apply(var, rhat_apply(m, k, v)) - rhat_apply(
                        m, k, casimir_apply(var, v)
                    )
                    rhs = rhat_lie_apply(closed, v) - v.scaled(closed.central)
                    assert lhs == rhs, (m, k, s)


def test_c07d_heisenberg_relations():
    with _clock(7, "[s_n, s_k] = n delta on interior states"):
        window = 12
        vac = Vec.basis(FockState.vacuum(True))
        states = [vac] + [Vec.basis(s) for s in fock_basis(1, zero_ok=True) if s.degree]
        for n in _nz(3):
            for k in _nz(3):
                for v in states:
                    lhs = heisenberg_apply(window, n, heisenberg_apply(window, k, v))
                    lhs = lhs - heisenberg_apply(window, k, heisenberg_apply(window, n, v))
                    want = v.scaled(n) if n == -k else Vec()
                    assert lhs == want, (n, k)


def test_c08_main_text_casimir():
    with _clock(8, "renormalized Casimir = 2M on charge-0, vacuum kernel"):
        g = CasimirVariant(G_LIMIT)
        kernel = []
        for s in fock_basis(4, charge=0):
            v = Vec.basis(s)
            out = casimir_apply(g, v)
            assert out == v.scaled(2 * len(s.plus)), s
            assert 2 * len(s.plus) >= 0
            if out.is_zero():
                kernel.append(s)
        assert kernel == [FockState.vacuum()]


def test_c09_dirac_operator():
    with _clock(9, "Dirac: vacuum, symmetry, equivariance, stabilization"):
        vac = Vec.basis(TensorState(FockState.vacuum(), SpinState.vacuum()))
        assert dirac_apply(vac).is_zero()
        for t in range(100):
            v = random_vector("tensor", 2 * t + 1, 3)
            w = random_vector("tensor", 2 * t + 2, 3)
            assert dirac_apply(v).inner(w) == v.inner(dirac_apply(w))
        pairs2 = [(i, j) for i in _nz(2) for j in _nz(2) if i * j > 0]
        from gdirac.dirac import tensor_states

        for state in tensor_states(2):
            v = Vec.basis(state)
            for p, q in pairs2:
                assert rho_apply(p, q, dirac_apply(v)) == dirac_apply(rho_apply(p, q, v))
        pairs3 = [(i, j) for i in _nz(3) for j in _nz(3) if i * j > 0]
        for t in range(5):
            v = random_vector("tensor", 500 + t, 3)
            for p, q in pairs3:
                assert rho_apply(p, q, dirac_apply(v)) == dirac_apply(rho_apply(p, q, v))
        for t in range(10):
            v = random_vector("tensor", 900 + t, 2)
            exact = dirac_apply(v)
            for n in (2, 3, 4):
                assert dirac_cutoff_apply(n, v) == exact


def test_c10_square_cascade():
    with _clock(10, "square identities raw / hk / final"):
        for n in (3, 4):
            for t in range(5):
                v = random_vector("tensor", 1 + 10 * t, 2)
                assert square_identity_residual(n, "raw", v) == 0
                assert square_identity_residual(n, "hk", v) == 0
        count = 0
        for pairs in range(3):
            for k in range(3):
                blk = invariant_basis(3, pairs, k)
                for v in blk.basis:
                    assert square_identity_residual(3, "final", v) == 0
                    count += 1
        assert count >= 1  # at least the vacuum line


def test_c11_spectrum_and_kernel():
    with _clock(11, "block report at trunc 2, degree <= 2; window robustness"):
        from fractions import Fraction

        rep = spectrum_report(2, 2)
        assert rep["kernel_dim"] == 1
        by_mk = {(b["M"], b["k"]): b for b in rep["blocks"]}
        assert by_mk[(0, 0)]["dim"] == 1
        for b in rep["blocks"]:
            e = Fraction(b["eig"])
            assert e >= 0 and (2 * e).denominator == 1
        null_blocks = [b for b in rep["blocks"] if b["dim"] and Fraction(b["eig"]) == 0]
        assert null_blocks == [by_mk[(0, 0)]]
        for pairs in range(3):
            for k in range(3):
                assert constraint_window_robust(2, pairs, k), (pairs, k)
