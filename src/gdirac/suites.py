"""Named verification suites behind the `verify` command.

Each suite runs a family of exact identity checks and returns a report
dict with one record per check: a stable check id, a short rendering of
the inputs, the residual (exact, as a string) and a pass flag.  All
residual contracts are zero; there are no tolerances anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from . import casimir as cas
from . import dirac as dr
from . import fock as fk
from . import spinor as sp
from .linalg import Vec, adjoint_residual, vec_sum
from .sampling import random_vector
from .scalar import ONE, ZERO, Scalar
from .serialize import scalar_to_csv


class _Report:
    def __init__(self, suite: str):
        self.suite = suite
        self.checks: list[dict] = []

    def add(self, check: str, inputs: str, residual: Scalar | int, ok: bool | None = None):
        if isinstance(residual, int):
            residual = Scalar.of(residual)
        if ok is None:
            ok = not residual
        self.checks.append(
            {
                "check": check,
                "inputs": inputs,
                "residual": scalar_to_csv(residual),
                "pass": bool(ok),
            }
        )

    def done(self) -> dict:
        self.checks.sort(key=lambda c: (c["check"], c["inputs"]))
        failures = sum(1 for c in self.checks if not c["pass"])
        return {"suite": self.suite, "failures": failures, "checks": self.checks}


def _nonzero(bound: int) -> list[int]:
    return [i for i in range(-bound, bound + 1) if i != 0]


# ---------------------------------------------------------------------------


def suite_car(max_index: int = 3, **_) -> dict:
    """Anticommutation relations of the field operators, exhaustively."""
    rep = _Report("car")
    basis = fk.fock_basis(max_index)
    idx = _nonzero(max_index)
    worst = ZERO
    count = 0
    for i in idx:
        for j in idx:
            for s in basis:
                # {psi_i, psi*_j} = delta_ij
                r = _anti_eval(fk.PSI, i, fk.PSI_STAR, j, s)
                want = Vec.basis(s) if i == j else Vec()
                worst = max(worst, (r - want).max_abs())
                # {psi_i, psi_j} = 0 and {psi*_i, psi*_j} = 0
                worst = max(worst, _anti_eval(fk.PSI, i, fk.PSI, j, s).max_abs())
                worst = max(worst, _anti_eval(fk.PSI_STAR, i, fk.PSI_STAR, j, s).max_abs())
                count += 3
    rep.add("car.relations", f"indices<= {max_index}, {count} checks", worst)
    # vacuum characterization
    vac = Vec.basis(fk.FockState.vacuum())
    bad = ZERO
    for k in range(1, max_index + 1):
        bad = bad + fk.apply_field(fk.PSI, k, vac).max_abs()
        bad = bad + fk.apply_field(fk.PSI_STAR, -k, vac).max_abs()
    rep.add("car.vacuum", f"k up to {max_index}", bad)
    # the annihilator support of a basis state is exactly its occupation set
    mism = 0
    for s in basis:
        killers = set()
        for k in range(1, max_index + 2):
            if fk.field_state(fk.PSI, k, s) is not None:
                killers.add(k)
            if fk.field_state(fk.PSI_STAR, -k, s) is not None:
                killers.add(-k)
        if killers != set(s.plus) | set(s.minus):
            mism += 1
    rep.add("car.finite-support", f"{len(basis)} states", mism)
    return rep.done()


def _anti_eval(kind1, k1, kind2, k2, s) -> Vec:
    v = Vec.basis(s)
    return fk.apply_field(kind1, k1, fk.apply_field(kind2, k2, v)) + fk.apply_field(
        kind2, k2, fk.apply_field(kind1, k1, v)
    )


def suite_clifford(max_index: int = 3, **_) -> dict:
    """{gamma_ij, gamma_mn} = 2 delta_in delta_jm on every bounded state."""
    rep = _Report("clifford")
    basis = sp.spin_basis(max_index)
    gens = [(i, j) for i in _nonzero(max_index) for j in _nonzero(max_index) if i * j < 0]
    worst = 0
    count = 0
    for i, j in gens:
        for m, n in gens:
            want = 2 if (i == n and j == m) else 0
            for s in basis:
                acc: dict = {}
                for a, b in (((i, j), (m, n)), ((m, n), (i, j))):
                    t = sp.gamma_pair_state(a, b, s)
                    if t is not None:
                        acc[t[1]] = acc.get(t[1], 0) + 2 * t[0]  # sqrt2^2 = 2
                acc[s] = acc.get(s, 0) - want
                bad = sum(abs(x) for x in acc.values())
                worst = max(worst, bad)
                count += 1
    rep.add("clifford.relations", f"indices<= {max_index}, {count} checks", worst)
    vac = Vec.basis(sp.SpinState.vacuum())
    bad = ZERO
    for i in range(1, max_index + 1):
        for j in range(1, max_index + 1):
            bad = bad + sp.gamma_apply(-i, j, vac).max_abs()
    rep.add("clifford.vacuum", f"annihilators up to {max_index}", bad)
    # vector-level generator equals sqrt(2) times the unit mode operator
    bad = ZERO
    for i, j in gens:
        for s in sp.spin_basis(2):
            lhs = sp.gamma_apply(i, j, Vec.basis(s))
            t = sp.gamma_unit_state(i, j, s)
            rhs = Vec() if t is None else Vec.basis(t[1], t[0]).scaled(Scalar.of(0, 1))
            bad = bad + (lhs - rhs).max_abs()
    rep.add("clifford.normalization", "bound 2", bad)
    return rep.done()


def suite_cocycle(max_index: int = 3, **_) -> dict:
    """Central extension of the quadratic representation, both flavours."""
    rep = _Report("cocycle")
    basis = fk.fock_basis(max_index)
    idx = _nonzero(max_index)
    units = [(p, q) for p in idx for q in idx]
    worst = ZERO
    for p, q in units:
        a = fk.LieElement.unit(p, q)
        for m, n in units:
            b = fk.LieElement.unit(m, n)
            br = fk.bracket_central(a, b)
            for s in basis:
                v = Vec.basis(s)
                lhs = fk.rhat_apply(p, q, fk.rhat_apply(m, n, v)) - fk.rhat_apply(
                    m, n, fk.rhat_apply(p, q, v)
                )
                rhs = fk.rhat_lie_apply(br, v)
                r = (lhs - rhs).max_abs()
                if worst < r:
                    worst = r
    rep.add("cocycle.central-extension", f"unit pairs <= {max_index}", worst)
    one = fk.LieElement.unit(-1, 1)
    two = fk.LieElement.unit(1, -1)
    rep.add(
        "cocycle.worked-case",
        "s(E[-1,1],E[1,-1])",
        fk.schwinger(one, two) - ONE,
    )
    # antisymmetry of the cocycle on random combinations
    bad = ZERO
    from .rng import SplitMix64

    stream = SplitMix64(11)
    for _ in range(50):
        a = fk.LieElement(
            {(idx[stream.pick(len(idx))], idx[stream.pick(len(idx))]): stream.coefficient() for _ in range(3)}
        )
        b = fk.LieElement(
            {(idx[stream.pick(len(idx))], idx[stream.pick(len(idx))]): stream.coefficient() for _ in range(3)}
        )
        bad = bad + abs(fk.schwinger(a, b) + fk.schwinger(b, a))
    rep.add("cocycle.antisymmetry", "50 random pairs", bad)
    # quadratic representation of the orthogonal algebra
    E = lambda i, j: {(i, j): ONE}
    A = lambda i, j: {(i, j): ONE, (j, i): -ONE}
    test_set = [
        (E(1, 1), {}, {}),
        ({}, {}, A(1, 2)),
        ({}, A(1, 2), {}),
        (E(1, 2), A(1, 3), A(2, 3)),
        (E(2, 2), A(2, 3), A(1, 2)),
    ]
    particle_only = [s for s in fk.fock_basis(max_index) if not s.minus]
    worst = ZERO
    for x in test_set:
        for y in test_set:
            bracket = fk.ores_bracket(x, y)
            cocycle = fk.ores_cocycle(x, y)
            for s in particle_only:
                v = Vec.basis(s)
                lhs = fk.t_ores_apply(*x, fk.t_ores_apply(*y, v)) - fk.t_ores_apply(
                    *y, fk.t_ores_apply(*x, v)
                )
                rhs = fk.t_ores_apply(*bracket, v) + v.scaled(cocycle)
                r = (lhs - rhs).max_abs()
                if worst < r:
                    worst = r
    rep.add("cocycle.orthogonal-quadratic", f"{len(test_set)}^2 pairs, bound {max_index}", worst)
    return rep.done()


def suite_k_family(max_index: int = 3, **_) -> dict:
    """Commutators, relations and stabilization of the cut-off quadratics."""
    rep = _Report("k-family")
    n = max_index + 1
    small = sp.spin_basis(2)
    rand = [random_vector("spin", 100 + t, max_index) for t in range(10)]
    sign_pairs = [(i, j) for i in _nonzero(max_index) for j in _nonzero(max_index) if i * j > 0]
    cross_pairs = [(m, l) for m in _nonzero(max_index) for l in _nonzero(max_index) if m * l < 0]

    def kately(i, j, v):
        return sp.k_family_apply(sp.K_RAW, n, i, j, v)

    worst = ZERO
    for i, j in sign_pairs:
        for m, l in cross_pairs:
            for v in [Vec.basis(s) for s in small] + rand:
                lhs = kately(i, j, sp.gamma_apply(m, l, v)) - sp.gamma_apply(
                    m, l, kately(i, j, v)
                )
                parts = []
                if j == m:
                    parts.append(sp.gamma_apply(i, l, v))
                if i == l:
                    parts.append(-sp.gamma_apply(m, j, v))
                rhs = vec_sum(parts)
                r = (lhs - rhs).max_abs()
                if worst < r:
                    worst = r
    rep.add("k-family.adjoint-commutator", f"quadruples <= {max_index}, N={n}", worst)

    worst = ZERO
    for i, j in sign_pairs:
        for m, n2 in sign_pairs:
            for v in [Vec.basis(s) for s in small] + rand[:4]:
                kt = lambda a, b, w: sp.k_family_apply(sp.K_TILDE_N, n, a, b, w)
                lhs = kt(i, j, kt(m, n2, v)) - kt(m, n2, kt(i, j, v))
                parts = []
                if j == m:
                    parts.append(kt(i, n2, v))
                if i == n2:
                    parts.append(-kt(m, j, v))
                rhs = vec_sum(parts)
                r = (lhs - rhs).max_abs()
                if worst < r:
                    worst = r
    rep.add("k-family.commutation", f"pairs <= {max_index}, N={n}, no central term", worst)

    vac = Vec.basis(sp.SpinState.vacuum())
    bad = ZERO
    for i, j in sign_pairs:
        for nn in (max_index, max_index + 1):
            bad = bad + sp.k_family_apply(sp.K_TILDE_N, nn, i, j, vac).max_abs()
    rep.add("k-family.vacuum", "all sign pairs", bad)

    worst = ZERO
    states = sp.spin_basis(2)
    for s in states:
        m0 = s.bound()
        for nn in range(max(m0, 1), max(m0, 1) + 3):
            for i, j in sign_pairs:
                if max(abs(i), abs(j)) > nn:
                    continue
                r = (
                    sp.k_family_apply(sp.K_TILDE_N, nn, i, j, Vec.basis(s))
                    - sp.ktilde_exact_apply(i, j, Vec.basis(s))
                ).max_abs()
                if worst < r:
                    worst = r
    rep.add("k-family.stabilization", "bound-2 states, N >= bound", worst)

    # H / K / K~ linkage on random vectors
    worst = ZERO
    for i, j in sign_pairs:
        for v in rand[:5]:
            h = sp.k_family_apply(sp.H_N, n, i, j, v)
            k = sp.k_family_apply(sp.K_RAW, n, i, j, v)
            kt = sp.k_family_apply(sp.K_TILDE_N, n, i, j, v)
            want_h = k - v.scaled(Scalar.of(Fraction(n, 2))) if i == j else k
            want_kt = k - v.scaled(n) if (i == j and i < 0) else k
            r = (h - want_h).max_abs() + (kt - want_kt).max_abs()
            if worst < r:
                worst = r
    rep.add("k-family.linkage", f"N={n}", worst)

    # the windowed trace sum over the whole window acts as zero
    worst = ZERO
    for s in sp.spin_basis(2):
        for nn in range(max(s.bound(), 1), max(s.bound(), 1) + 2):
            r = vec_sum(
                sp.k_family_apply(sp.K_TILDE_N, nn, i, i, Vec.basis(s)) for i in _nonzero(nn)
            ).max_abs()
            if worst < r:
                worst = r
    rep.add("k-family.trace-zero", "bound-2 states", worst)
    return rep.done()


def suite_casimir(max_index: int = 3, **_) -> dict:
    """Spinor Casimir constancy plus the Fock-space Casimir eigenvalue laws."""
    rep = _Report("casimir")
    # spinor Casimir = N^3 on bounded states
    worst = ZERO
    for m in range(0, 3):
        for s in sp.spin_basis(m):
            for nn in range(max(m, 1), max(m, 1) + 3):
                v = Vec.basis(s)
                r = (sp.spinor_casimir_apply(nn, v) - v.scaled(nn**3)).max_abs()
                r = r + sp.spinor_casimir_apply(nn, v, renormalized=True).max_abs()
                if worst < r:
                    worst = r
    rep.add("casimir.spinor-constant", "M <= 2, N in M..M+2", worst)

    # fermion number: diagonal 2k, kernel = vacuum line, trace formula
    bad = ZERO
    kernel = 0
    for s in sp.spin_basis(max_index):
        v = Vec.basis(s)
        fn = sp.fermion_number_apply(v)
        bad = bad + (fn - v.scaled(2 * len(s.modes))).max_abs()
        if fn.is_zero():
            kernel += 1
        occupied = sorted({m for m, _ in s.modes} | {-l for _, l in s.modes} | {1})
        acc = vec_sum(
            part for i in occupied for part in (sp.ktilde_exact_apply(i, i, v), -sp.ktilde_exact_apply(-i, -i, v))
        )
        bad = bad + (fn - acc).max_abs()
    rep.add("casimir.fermion-number", f"bound {max_index}", bad, ok=(not bad) and kernel == 1)

    # eigenvalue law on the include-zero lattice
    worst = ZERO
    for charge in range(-2, 3):
        for s in fk.fock_basis(max_index + 1, zero_ok=True, charge=charge):
            v = Vec.basis(s)
            out = cas.casimir_apply(cas.CasimirVariant(cas.LIMIT), v)
            lam = 2 * cas.num_of(s) + 1 - (charge - 1) ** 2
            r = (out - v.scaled(lam)).max_abs()
            if worst < r:
                worst = r
    rep.add("casimir.eigenvalue-law", f"charges -2..2, bound {max_index + 1}", worst)

    # commutator table against brute force
    worst = ZERO
    nn = max_index
    var = cas.CasimirVariant(cas.NORMAL_N, nn)
    for m in range(-max_index, max_index + 1):
        for n2 in range(-max_index, max_index + 1):
            closed = cas.casimir_commutator(var, m, n2)
            for s in fk.fock_basis(2, zero_ok=True):
                v = Vec.basis(s)
                lhs = cas.casimir_apply(var, fk.rhat_apply(m, n2, v)) - fk.rhat_apply(
                    m, n2, cas.casimir_apply(var, v)
                )
                rhs = fk.rhat_lie_apply(closed, v) - v.scaled(closed.central)
                r = (lhs - rhs).max_abs()
                if worst < r:
                    worst = r
    rep.add("casimir.commutator-table", f"indices <= {max_index}, N={nn}", worst)

    # main-text renormalized Casimir: 2M on charge-0, vacuum kernel
    bad = ZERO
    kernel = 0
    g = cas.CasimirVariant(cas.G_LIMIT, None, include0=False)
    for s in fk.fock_basis(max_index + 1, charge=0):
        v = Vec.basis(s)
        out = cas.casimir_apply(g, v)
        bad = bad + (out - v.scaled(2 * len(s.plus))).max_abs()
        if out.is_zero():
            kernel += 1
    rep.add("casimir.charge0", f"bound {max_index + 1}", bad, ok=(not bad) and kernel == 1)

    # stabilization of the cut-offs
    worst = ZERO
    for s in fk.fock_basis(2, zero_ok=True):
        v = Vec.basis(s)
        lim = cas.casimir_apply(cas.CasimirVariant(cas.LIMIT), v)
        for nn in range(s.bound() + 1, s.bound() + 4):
            r = (cas.casimir_apply(cas.CasimirVariant(cas.NORMAL_N, nn), v) - lim).max_abs()
            if worst < r:
                worst = r
    for s in fk.fock_basis(2, charge=0):
        v = Vec.basis(s)
        lim = cas.casimir_apply(cas.CasimirVariant(cas.G_LIMIT, None, False), v)
        for nn in range(max(s.bound(), 1), s.bound() + 3):
            r = (
                cas.casimir_apply(cas.CasimirVariant(cas.G_REN_N, nn, False), v) - lim
            ).max_abs()
            if worst < r:
                worst = r
    rep.add("casimir.stabilization", "bound-2 states", worst)

    # window constants between the naive and normal-ordered variants
    worst = ZERO
    for s in fk.fock_basis(2, zero_ok=True):
        v = Vec.basis(s)
        for nn in (2, 3):
            lhs = cas.casimir_apply(cas.CasimirVariant(cas.NAIVE_N, nn), v)
            rhs = cas.casimir_apply(cas.CasimirVariant(cas.NORMAL_N, nn), v) + v.scaled(
                nn * (nn + 1)
            )
            r = (lhs - rhs).max_abs()
            if worst < r:
                worst = r
    for s in fk.fock_basis(2, charge=0):
        v = Vec.basis(s)
        for nn in (2, 3):
            lhs = cas.casimir_apply(cas.CasimirVariant(cas.NAIVE_N, nn, False), v)
            rhs = cas.casimir_apply(cas.CasimirVariant(cas.G_REN_N, nn, False), v) + v.scaled(
                nn * nn
            )
            r = (lhs - rhs).max_abs()
            if worst < r:
                worst = r
    rep.add("casimir.window-constants", "N(N+1) include0 / N^2 exclude0", worst)

    rep.add(
        "casimir.window-identity",
        "include0, N=3, bound-2 states",
        cas.window_identity_residual(3, fk.fock_basis(2, zero_ok=True)),
    )
    return rep.done()


def suite_heisenberg(max_index: int = 3, **_) -> dict:
    """Shift-operator commutation relations on interior states."""
    rep = _Report("heisenberg")
    window = 4 * max_index
    vac = Vec.basis(fk.FockState.vacuum(True))
    states = [vac] + [
        Vec.basis(s) for s in fk.fock_basis(1, zero_ok=True) if s.degree
    ]
    worst = ZERO
    for n2 in _nonzero(max_index):
        for k in _nonzero(max_index):
            for v in states:
                lhs = cas.heisenberg_apply(window, n2, cas.heisenberg_apply(window, k, v)) - cas.heisenberg_apply(
                    window, k, cas.heisenberg_apply(window, n2, v)
                )
                want = v.scaled(n2) if n2 == -k else Vec()
                r = (lhs - want).max_abs()
                if worst < r:
                    worst = r
    rep.add("heisenberg.relations", f"|n|,|k| <= {max_index}, window {window}", worst)
    # the Casimir moves a lowering shift by twice the boundary-crossing block
    worst = ZERO
    var = cas.CasimirVariant(cas.NORMAL_N, window)
    for k in range(-max_index, 0):
        for v in states:
            lhs = cas.casimir_apply(var, cas.heisenberg_apply(window, k, v)) - cas.heisenberg_apply(
                window, k, cas.casimir_apply(var, v)
            )
            rhs = vec_sum(fk.rhat_apply(i, i + k, v).scaled(2) for i in range(0, -k))
            r = (lhs - rhs).max_abs()
            if worst < r:
                worst = r
    rep.add("heisenberg.casimir-shift", f"k in -{max_index}..-1", worst)
    return rep.done()


def suite_dirac_symmetry(max_index: int = 3, seed: int = 1, **_) -> dict:
    rep = _Report("dirac-symmetry")
    vac = Vec.basis(dr.TensorState(fk.FockState.vacuum(), sp.SpinState.vacuum()))
    rep.add("dirac.vacuum", "D|0> = 0", dr.dirac_apply(vac).max_abs())
    worst = ZERO
    for t in range(100):
        v = random_vector("tensor", seed + 2 * t, max_index)
        w = random_vector("tensor", seed + 2 * t + 1, max_index)
        r = abs(dr.dirac_apply(v).inner(w) - v.inner(dr.dirac_apply(w)))
        if worst < r:
            worst = r
    rep.add("dirac.symmetry", "100 seeded pairs", worst)
    worst = ZERO
    for t in range(10):
        v = random_vector("tensor", 1000 + t, 2)
        exact = dr.dirac_apply(v)
        for nn in (2, 3, 4):
            r = (dr.dirac_cutoff_apply(nn, v) - exact).max_abs()
            if worst < r:
                worst = r
    rep.add("dirac.stabilization", "bound-2 vectors, N = 2..4", worst)
    # image of a bounded vector stays finitely supported within the bound
    ok = True
    for t in range(10):
        v = random_vector("tensor", 2000 + t, max_index)
        img = dr.dirac_apply(v)
        if any(ts.bound() > max_index for ts in img.terms):
            ok = False
    rep.add("dirac.domain-closure", "10 seeded vectors", 0 if ok else 1, ok=ok)
    return rep.done()


def suite_dirac_equivariance(max_index: int = 3, **_) -> dict:
    rep = _Report("dirac-equivariance")
    worst = ZERO
    # exhaustive on the bound-2 window
    pairs2 = [(i, j) for i in _nonzero(2) for j in _nonzero(2) if i * j > 0]
    for ts in dr.tensor_states(2):
        v = Vec.basis(ts)
        for p, q in pairs2:
            r = (
                dr.rho_apply(p, q, dr.dirac_apply(v))
                - dr.dirac_apply(dr.rho_apply(p, q, v))
            ).max_abs()
            if worst < r:
                worst = r
    rep.add("equivariance.exhaustive", "all tensor states bound 2", worst)
    worst = ZERO
    pairs = [(i, j) for i in _nonzero(max_index) for j in _nonzero(max_index) if i * j > 0]
    for t in range(5):
        v = random_vector("tensor", 300 + t, max_index)
        for p, q in pairs:
            r = (
                dr.rho_apply(p, q, dr.dirac_apply(v))
                - dr.dirac_apply(dr.rho_apply(p, q, v))
            ).max_abs()
            if worst < r:
                worst = r
    rep.add("equivariance.random", f"5 seeds, bound {max_index}", worst)
    # vacuum structure of the two factors
    bad = ZERO
    vacf = Vec.basis(fk.FockState.vacuum())
    vacs = Vec.basis(sp.SpinState.vacuum())
    for p in _nonzero(max_index + 1):
        for q in _nonzero(max_index + 1):
            if not (p > 0 > q):
                bad = bad + fk.rhat_apply(p, q, vacf).max_abs()
            if p < 0 < q:
                bad = bad + sp.gamma_apply(p, q, vacs).max_abs()
    rep.add("equivariance.vacuum-structure", f"indices <= {max_index + 1}", bad)
    return rep.done()


def suite_square(form: str, trunc: int = 3, seed: int = 1, **_) -> dict:
    rep = _Report(f"square-{form}")
    if form in ("raw", "hk"):
        worst = ZERO
        for nn in (trunc, trunc + 1):
            for t in range(5):
                v = random_vector("tensor", seed + 10 * t, 2)
                r = dr.square_identity_residual(nn, form, v)
                if worst < r:
                    worst = r
        rep.add(f"square.{form}", f"N={trunc},{trunc + 1}, 5 seeds, bound 2", worst)
        return rep.done()
    if form != "final":
        raise ValueError(f"unknown square form {form!r}")
    worst = ZERO
    count = 0
    for pairs in range(0, 2):
        for k in range(0, 2):
            blk = dr.invariant_basis(trunc, pairs, k)
            for v in blk.basis:
                r = dr.square_identity_residual(trunc, "final", v)
                if worst < r:
                    worst = r
                tq = (dr.t_square_apply(v) - dr.dirac_apply(dr.dirac_apply(v)).scaled(4)).max_abs()
                if worst < tq:
                    worst = tq
                count += 1
    rep.add("square.final", f"N={trunc}, {count} invariant vectors", worst)
    return rep.done()


def suite_kernel(trunc: int = 2, degree: int = 2, **_) -> dict:
    rep = _Report("kernel")
    report = dr.spectrum_report(trunc, degree)
    ok = report["kernel_dim"] == 1
    rep.add("kernel.dimension", f"trunc {trunc}, degree {degree}", 0 if ok else 1, ok=ok)
    halfint = all(Fraction(b["eig"]) * 2 == int(Fraction(b["eig"]) * 2) and Fraction(b["eig"]) >= 0 for b in report["blocks"])
    rep.add("kernel.spectrum-halfint", "eigenvalues in (1/2)Z>=0", 0 if halfint else 1, ok=halfint)
    zero_blocks = [b for b in report["blocks"] if b["dim"] and Fraction(b["eig"]) == 0]
    ok = len(zero_blocks) == 1 and zero_blocks[0]["M"] == 0 and zero_blocks[0]["k"] == 0 and zero_blocks[0]["dim"] == 1
    rep.add("kernel.block-00", "only the (0,0) block is null", 0 if ok else 1, ok=ok)
    robust = all(
        dr.constraint_window_robust(trunc, pairs, k)
        for pairs in range(degree + 1)
        for k in range(degree + 1)
    )
    rep.add("kernel.window-robustness", f"windows {trunc + 1} vs {trunc + 2}", 0 if robust else 1, ok=robust)
    worst = ZERO
    for pairs in range(degree + 1):
        for k in range(degree + 1):
            for v in dr.invariant_basis(trunc, pairs, k).basis:
                r = dr.diagonal_casimir_apply(trunc + 1, v).max_abs()
                if worst < r:
                    worst = r
    rep.add("kernel.diagonal-casimir", "annihilates invariant vectors", worst)
    # adjointness spot checks with the exact-linalg residual oracle
    fbasis = [Vec.basis(s) for s in fk.fock_basis(2)]
    bad = ZERO
    for p, q in ((1, -1), (2, -1), (1, 1), (-2, 1)):
        bad = bad + adjoint_residual(
            lambda v, a=p, b=q: fk.rhat_apply(a, b, v),
            lambda v, a=p, b=q: fk.rhat_apply(b, a, v),
            fbasis,
        )
    rep.add("kernel.adjointness", "rhat pairs on bound-2 basis", bad)
    return rep.done()


SUITES = {
    "car": suite_car,
    "clifford": suite_clifford,
    "cocycle": suite_cocycle,
    "k-family": suite_k_family,
    "casimir": suite_casimir,
    "heisenberg": suite_heisenberg,
    "dirac-symmetry": suite_dirac_symmetry,
    "dirac-equivariance": suite_dirac_equivariance,
    "square-raw": lambda **kw: suite_square("raw", **kw),
    "square-hk": lambda **kw: suite_square("hk", **kw),
    "square-final": lambda **kw: suite_square("final", **kw),
    "kernel": suite_kernel,
}


def run_suite(name: str, **params) -> dict:
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](**params)
