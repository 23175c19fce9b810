"""Named verification suites behind the `verify` command.

Each suite runs a family of exact identity checks and returns a report
dict with one record per check: a stable check id, a short rendering of
the inputs, the residual (exact, as a string) and a pass flag.  A
check's residual is the largest one over its whole domain (states,
seeded vectors, index tuples), never a sum: non-negative values vanish
together with their maximum, so only a failing check's residual text
depends on that choice.  All residual contracts are zero; there are no
tolerances anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import chain, product

from . import casimir as cas
from . import dirac as dr
from . import fock as fk
from . import spinor as sp
from .linalg import Vec, adjoint_residual, lift, vec_sum
from .rng import SplitMix64
from .sampling import random_vector
from .scalar import ONE, SQRT2, ZERO, Scalar, _coerce


class _Report:
    def __init__(self, suite: str):
        self.suite = suite
        self.checks: list[dict] = []

    def check(self, check: str, inputs: str, residuals, ok: bool = True) -> None:
        """Record one check over ``residuals``, one residual or an iterable
        of them.  A ``Vec`` counts as its ``max_abs``, a ``Scalar``, ``int``
        or ``bool`` as its absolute value; the check records the largest
        and passes when that is zero and ``ok`` holds."""
        if isinstance(residuals, (Vec, Scalar, int)):
            residuals = (residuals,)
        worst = ZERO
        for r in residuals:
            if isinstance(r, Vec):
                r = r.max_abs()
            if r:
                r = abs(_coerce(r))
                if worst < r:
                    worst = r
        self.checks.append(
            {"check": check, "inputs": inputs, "residual": str(worst), "pass": ok and not worst}
        )

    def done(self) -> dict:
        self.checks.sort(key=lambda c: (c["check"], c["inputs"]))
        failures = sum(1 for c in self.checks if not c["pass"])
        return {"suite": self.suite, "failures": failures, "checks": self.checks}


def _bracket(a, b, v: Vec, sign: int = -1) -> Vec:
    """a(b(v)) - b(a(v)); with ``sign=1`` the anticommutator."""
    ab, ba = a(b(v)), b(a(v))
    return ab + ba if sign > 0 else ab - ba


def _delta_rhs(op, i, j, m, l, v: Vec) -> Vec:
    """delta_jm op(i, l) v - delta_il op(m, j) v: the right side of [X_ij, X_ml]."""
    return vec_sum(([op(i, l, v)] if j == m else []) + ([-op(m, j, v)] if i == l else []))


def _windows(bound: int, count: int) -> range:
    lo = max(bound, 1)
    return range(lo, lo + count)


# ---------------------------------------------------------------------------


def suite_car(max_index: int = 3, **_) -> dict:
    """Anticommutation relations of the field operators, exhaustively."""
    rep = _Report("car")
    basis = fk.fock_basis(max_index)
    idx = fk.window(max_index)
    field = lambda kind, k: partial(fk.apply_field, kind, k)
    rep.check(
        "car.relations",
        f"indices<= {max_index}, {3 * len(idx) ** 2 * len(basis)} checks",
        (
            r
            for i in idx
            for j in idx
            for v in map(Vec.basis, basis)
            for r in (
                # {psi_i, psi*_j} = delta_ij, {psi_i, psi_j} = 0, {psi*_i, psi*_j} = 0
                _bracket(field(fk.PSI, i), field(fk.PSI_STAR, j), v, 1) - v.scaled(i == j),
                _bracket(field(fk.PSI, i), field(fk.PSI, j), v, 1),
                _bracket(field(fk.PSI_STAR, i), field(fk.PSI_STAR, j), v, 1),
            )
        ),
    )
    vac = Vec.basis(fk.FockState.vacuum())
    rep.check(
        "car.vacuum",
        f"k up to {max_index}",
        (fk.apply_field(kind, sign * k, vac) for k in range(1, max_index + 1) for kind, sign in ((fk.PSI, 1), (fk.PSI_STAR, -1))),
    )
    # the annihilator support of a basis state is exactly its occupation set
    ks = range(1, max_index + 2)
    rep.check(
        "car.finite-support",
        f"{len(basis)} states",
        (
            {k for k in ks if fk.field_state(fk.PSI, k, s)} | {-k for k in ks if fk.field_state(fk.PSI_STAR, -k, s)}
            != {*s.plus, *s.minus}
            for s in basis
        ),
    )
    return rep.done()


def _clifford_defect(a, b, s) -> int:
    """Largest coefficient of ({gamma_a, gamma_b} - 2 delta) on the state s."""
    acc = {s: -2 if a == b[::-1] else 0}
    for x, y in ((a, b), (b, a)):
        t = sp.gamma_pair_state(x, y, s)
        if t is not None:
            acc[t[1]] = acc.get(t[1], 0) + 2 * t[0]  # sqrt2^2 = 2
    return max(map(abs, acc.values()))


def suite_clifford(max_index: int = 3, **_) -> dict:
    """{gamma_ij, gamma_mn} = 2 delta_in delta_jm on every bounded state."""
    rep = _Report("clifford")
    basis = sp.spin_basis(max_index)
    gens = fk.window_pairs(max_index, -1)
    rep.check(
        "clifford.relations",
        f"indices<= {max_index}, {len(gens) ** 2 * len(basis)} checks",
        (_clifford_defect(a, b, s) for a in gens for b in gens for s in basis),
    )
    vac = Vec.basis(sp.SpinState.vacuum())
    ks = range(1, max_index + 1)
    rep.check("clifford.vacuum", f"annihilators up to {max_index}", (sp.gamma_apply(-i, j, vac) for i in ks for j in ks))
    # vector-level generator equals sqrt(2) times the unit mode operator
    rep.check(
        "clifford.normalization",
        "bound 2",
        (
            sp.gamma_apply(i, j, v) - lift(v, sp.gamma_unit_state, i, j).scaled(SQRT2)
            for i, j in gens
            for v in map(Vec.basis, sp.spin_basis(2))
        ),
    )
    return rep.done()


def suite_cocycle(max_index: int = 3, **_) -> dict:
    """Central extension of the quadratic representation, both flavours."""
    rep = _Report("cocycle")
    basis = fk.fock_basis(max_index)
    idx = fk.window(max_index)
    units = list(product(idx, repeat=2))
    rep.check(
        "cocycle.central-extension",
        f"unit pairs <= {max_index}",
        (
            _bracket(partial(fk.rhat_apply, *a), partial(fk.rhat_apply, *b), v) - fk.rhat_lie_apply(br, v)
            for a in units
            for b in units
            for br in [fk.bracket_central(fk.LieElement.unit(*a), fk.LieElement.unit(*b))]
            for v in map(Vec.basis, basis)
        ),
    )
    worked = fk.schwinger(fk.LieElement.unit(-1, 1), fk.LieElement.unit(1, -1)) - ONE
    rep.check("cocycle.worked-case", "s(E[-1,1],E[1,-1])", worked)
    # antisymmetry of the cocycle on random combinations
    stream = SplitMix64(11)

    def draw():
        pick = lambda: idx[stream.pick(len(idx))]
        return fk.LieElement({(pick(), pick()): stream.coefficient() for _ in range(3)})

    rep.check(
        "cocycle.antisymmetry",
        "50 random pairs",
        (fk.schwinger(a, b) + fk.schwinger(b, a) for a, b in ((draw(), draw()) for _ in range(50))),
    )
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
    particles = [Vec.basis(s) for s in basis if not s.minus]
    rep.check(
        "cocycle.orthogonal-quadratic",
        f"{len(test_set)}^2 pairs, bound {max_index}",
        (
            _bracket(partial(fk.t_ores_apply, *x), partial(fk.t_ores_apply, *y), v)
            - fk.t_ores_apply(*bracket, v)
            - v.scaled(cocycle)
            for x in test_set
            for y in test_set
            for bracket, cocycle in [(fk.ores_bracket(x, y), fk.ores_cocycle(x, y))]
            for v in particles
        ),
    )
    return rep.done()


def suite_k_family(max_index: int = 3, **_) -> dict:
    """Commutators, relations and stabilization of the cut-off quadratics."""
    rep = _Report("k-family")
    n = max_index + 1
    states = sp.spin_basis(2)
    small = [Vec.basis(s) for s in states]
    rand = [random_vector("spin", 100 + t, max_index) for t in range(10)]
    sign_pairs = fk.window_pairs(max_index, 1)
    kraw = partial(sp.k_family_apply, sp.K_RAW, n)
    kt = partial(sp.k_family_apply, sp.K_TILDE_N, n)
    rep.check(
        "k-family.adjoint-commutator",
        f"quadruples <= {max_index}, N={n}",
        (
            _bracket(partial(kraw, i, j), partial(sp.gamma_apply, m, l), v) - _delta_rhs(sp.gamma_apply, i, j, m, l, v)
            for i, j in sign_pairs
            for m, l in fk.window_pairs(max_index, -1)
            for v in small + rand
        ),
    )
    rep.check(
        "k-family.commutation",
        f"pairs <= {max_index}, N={n}, no central term",
        (
            _bracket(partial(kt, i, j), partial(kt, m, n2), v) - _delta_rhs(kt, i, j, m, n2, v)
            for i, j in sign_pairs
            for m, n2 in sign_pairs
            for v in small + rand[:4]
        ),
    )
    vac = Vec.basis(sp.SpinState.vacuum())
    rep.check(
        "k-family.vacuum",
        "all sign pairs",
        (sp.k_family_apply(sp.K_TILDE_N, nn, i, j, vac) for i, j in sign_pairs for nn in (max_index, max_index + 1)),
    )
    rep.check(
        "k-family.stabilization",
        "bound-2 states, N >= bound",
        (
            sp.k_family_apply(sp.K_TILDE_N, nn, i, j, v) - sp.ktilde_exact_apply(i, j, v)
            for s, v in zip(states, small)
            for nn in _windows(s.bound(), 3)
            for i, j in sign_pairs
            if max(abs(i), abs(j)) <= nn
        ),
    )
    # H / K / K~ linkage on random vectors
    rep.check(
        "k-family.linkage",
        f"N={n}",
        (
            r
            for i, j in sign_pairs
            for v in rand[:5]
            for k in [kraw(i, j, v)]
            for r in (
                sp.k_family_apply(sp.H_N, n, i, j, v) - k + v.scaled(Fraction(n, 2) * (i == j)),
                kt(i, j, v) - k + v.scaled(n * (i == j < 0)),
            )
        ),
    )
    # the windowed trace sum over the whole window acts as zero
    rep.check(
        "k-family.trace-zero",
        "bound-2 states",
        (
            vec_sum(sp.k_family_apply(sp.K_TILDE_N, nn, i, i, v) for i in fk.window(nn))
            for s, v in zip(states, small)
            for nn in _windows(s.bound(), 2)
        ),
    )
    return rep.done()


def suite_casimir(max_index: int = 3, **_) -> dict:
    """Spinor Casimir constancy plus the Fock-space Casimir eigenvalue laws."""
    rep = _Report("casimir")
    # spinor Casimir = N^3 on bounded states
    rep.check(
        "casimir.spinor-constant",
        "M <= 2, N in M..M+2",
        (
            r
            for m in range(0, 3)
            for v in map(Vec.basis, sp.spin_basis(m))
            for nn in _windows(m, 3)
            for r in (sp.spinor_casimir_apply(nn, v) - v.scaled(nn**3), sp.spinor_casimir_apply(nn, v, renormalized=True))
        ),
    )

    # fermion number: diagonal 2k, kernel = vacuum line, trace formula
    spins = sp.spin_basis(max_index)
    numbers = [sp.fermion_number_apply(Vec.basis(s)) for s in spins]
    rep.check(
        "casimir.fermion-number",
        f"bound {max_index}",
        (
            r
            for s, fn in zip(spins, numbers)
            for v in [Vec.basis(s)]
            for r in (
                fn - v.scaled(2 * len(s.modes)),
                fn
                - vec_sum(
                    part
                    for i in {1, *(abs(x) for mode in s.modes for x in mode)}
                    for part in (sp.ktilde_exact_apply(i, i, v), -sp.ktilde_exact_apply(-i, -i, v))
                ),
            )
        ),
        ok=sum(not fn for fn in numbers) == 1,
    )

    # eigenvalue law on the include-zero lattice
    limit = cas.CasimirVariant(cas.LIMIT)
    rep.check(
        "casimir.eigenvalue-law",
        f"charges -2..2, bound {max_index + 1}",
        (
            cas.casimir_apply(limit, Vec.basis(s)) - Vec.basis(s, 2 * cas.num_of(s) + 1 - (charge - 1) ** 2)
            for charge in range(-2, 3)
            for s in fk.fock_basis(max_index + 1, zero_ok=True, charge=charge)
        ),
    )

    # commutator table against brute force; the window must hold the
    # bound-2 states the table is applied to
    nn = max(max_index, 2)
    var = cas.CasimirVariant(cas.NORMAL_N, nn)
    states2 = fk.fock_basis(2, zero_ok=True)
    bound2 = [Vec.basis(s) for s in states2]
    span = fk.window(max_index, zero_ok=True)
    rep.check(
        "casimir.commutator-table",
        f"indices <= {max_index}, N={nn}",
        (
            _bracket(partial(cas.casimir_apply, var), partial(fk.rhat_apply, m, n2), v)
            - fk.rhat_lie_apply(closed, v)
            + v.scaled(closed.central)
            for m in span
            for n2 in span
            for closed in [cas.casimir_commutator(var, m, n2)]
            for v in bound2
        ),
    )

    # main-text renormalized Casimir: 2M on charge-0, vacuum kernel
    g = cas.CasimirVariant(cas.G_LIMIT)
    charge0 = fk.fock_basis(max_index + 1, charge=0)
    images = [cas.casimir_apply(g, Vec.basis(s)) for s in charge0]
    rep.check(
        "casimir.charge0",
        f"bound {max_index + 1}",
        (out - Vec.basis(s, 2 * len(s.plus)) for s, out in zip(charge0, images)),
        ok=sum(not out for out in images) == 1,
    )

    # stabilization of the cut-offs
    states0 = fk.fock_basis(2, charge=0)
    g0 = [Vec.basis(s) for s in states0]
    rep.check(
        "casimir.stabilization",
        "bound-2 states",
        chain(
            (
                cas.casimir_apply(cas.CasimirVariant(cas.NORMAL_N, nn), v) - lim
                for s, v in zip(states2, bound2)
                for lim in [cas.casimir_apply(limit, v)]
                for nn in range(s.bound() + 1, s.bound() + 4)
            ),
            (
                cas.casimir_apply(cas.CasimirVariant(cas.G_REN_N, nn), v) - lim
                for s, v in zip(states0, g0)
                for lim in [cas.casimir_apply(g, v)]
                for nn in range(max(s.bound(), 1), s.bound() + 3)
            ),
        ),
    )

    # window constants between the naive and normal-ordered variants
    rep.check(
        "casimir.window-constants",
        "N(N+1) include0 / N^2 exclude0",
        chain(
            (
                cas.casimir_apply(cas.CasimirVariant(cas.NAIVE_N, nn), v)
                - cas.casimir_apply(cas.CasimirVariant(cas.NORMAL_N, nn), v)
                - v.scaled(nn * (nn + 1))
                for v in bound2
                for nn in (2, 3)
            ),
            (
                cas.casimir_apply(cas.CasimirVariant(cas.NAIVE_N, nn), v)
                - cas.casimir_apply(cas.CasimirVariant(cas.G_REN_N, nn), v)
                - v.scaled(nn * nn)
                for v in g0
                for nn in (2, 3)
            ),
        ),
    )

    rep.check(
        "casimir.window-identity",
        "include0, N=3, bound-2 states",
        cas.window_identity_residual(3, states2),
    )
    return rep.done()


def suite_heisenberg(max_index: int = 3, **_) -> dict:
    """Shift-operator commutation relations on interior states."""
    rep = _Report("heisenberg")
    window = 4 * max_index
    shift = lambda k: partial(cas.heisenberg_apply, window, k)
    states = [Vec.basis(fk.FockState.vacuum(True))] + [
        Vec.basis(s) for s in fk.fock_basis(1, zero_ok=True) if s.degree
    ]
    rep.check(
        "heisenberg.relations",
        f"|n|,|k| <= {max_index}, window {window}",
        (
            _bracket(shift(n2), shift(k), v) - v.scaled(n2 * (n2 == -k))
            for n2 in fk.window(max_index)
            for k in fk.window(max_index)
            for v in states
        ),
    )
    # the Casimir moves a lowering shift by twice the boundary-crossing block
    casimir = partial(cas.casimir_apply, cas.CasimirVariant(cas.NORMAL_N, window))
    rep.check(
        "heisenberg.casimir-shift",
        f"k in -{max_index}..-1",
        (
            _bracket(casimir, shift(k), v) - vec_sum(fk.rhat_apply(i, i + k, v).scaled(2) for i in range(0, -k))
            for k in range(-max_index, 0)
            for v in states
        ),
    )
    return rep.done()


def suite_dirac_symmetry(max_index: int = 3, seed: int = 1, **_) -> dict:
    rep = _Report("dirac-symmetry")
    vac = Vec.basis(dr.TensorState(fk.FockState.vacuum(), sp.SpinState.vacuum()))
    rep.check("dirac.vacuum", "D|0> = 0", dr.dirac_apply(vac))
    pairs = ((random_vector("tensor", seed + 2 * t, max_index), random_vector("tensor", seed + 2 * t + 1, max_index)) for t in range(100))
    rep.check(
        "dirac.symmetry",
        "100 seeded pairs",
        (dr.dirac_apply(v).inner(w) - v.inner(dr.dirac_apply(w)) for v, w in pairs),
    )
    vs = [random_vector("tensor", 1000 + t, 2) for t in range(10)]
    rep.check(
        "dirac.stabilization",
        "bound-2 vectors, N = 2..4",
        (dr.dirac_cutoff_apply(nn, v) - exact for v, exact in zip(vs, map(dr.dirac_apply, vs)) for nn in (2, 3, 4)),
    )
    # image of a bounded vector stays finitely supported within the bound
    images = [dr.dirac_apply(random_vector("tensor", 2000 + t, max_index)) for t in range(10)]
    rep.check("dirac.domain-closure", "10 seeded vectors", any(ts.bound() > max_index for img in images for ts in img.terms))
    return rep.done()


def suite_dirac_equivariance(max_index: int = 3, **_) -> dict:
    rep = _Report("dirac-equivariance")
    # exhaustive on the bound-2 window, then seeded vectors at max_index
    for check, inputs, vs, bound in (
        ("equivariance.exhaustive", "all tensor states bound 2", map(Vec.basis, dr.tensor_states(2)), 2),
        ("equivariance.random", f"5 seeds, bound {max_index}", (random_vector("tensor", 300 + t, max_index) for t in range(5)), max_index),
    ):
        pairs = fk.window_pairs(bound, 1)
        rep.check(check, inputs, (_bracket(partial(dr.rho_apply, p, q), dr.dirac_apply, v) for v in vs for p, q in pairs))
    # vacuum structure of the two factors
    vacf = Vec.basis(fk.FockState.vacuum())
    vacs = Vec.basis(sp.SpinState.vacuum())
    idx = fk.window(max_index + 1)
    rep.check(
        "equivariance.vacuum-structure",
        f"indices <= {max_index + 1}",
        chain(
            (fk.rhat_apply(p, q, vacf) for p in idx for q in idx if not p > 0 > q),
            (sp.gamma_apply(p, q, vacs) for p in idx for q in idx if p < 0 < q),
        ),
    )
    return rep.done()


def suite_square(form: str, trunc: int = 3, seed: int = 1, **_) -> dict:
    rep = _Report(f"square-{form}")
    if form != "final":
        rep.check(
            f"square.{form}",
            f"N={trunc},{trunc + 1}, 5 seeds, bound 2",
            (
                dr.square_identity_residual(nn, form, random_vector("tensor", seed + 10 * t, 2))
                for nn in (trunc, trunc + 1)
                for t in range(5)
            ),
        )
        return rep.done()
    vs = [v for pairs, k in product(range(2), repeat=2) for v in dr.invariant_basis(trunc, pairs, k).basis]
    rep.check(
        "square.final",
        f"N={trunc}, {len(vs)} invariant vectors",
        (
            r
            for v in vs
            for r in (
                dr.square_identity_residual(trunc, "final", v),
                dr.t_square_apply(v) - dr.dirac_apply(dr.dirac_apply(v)).scaled(4),
            )
        ),
    )
    return rep.done()


def suite_kernel(trunc: int = 2, degree: int = 2, **_) -> dict:
    rep = _Report("kernel")
    report = dr.spectrum_report(trunc, degree)
    blocks = list(product(range(degree + 1), repeat=2))
    rep.check("kernel.dimension", f"trunc {trunc}, degree {degree}", report["kernel_dim"] != 1)
    eigs = [Fraction(b["eig"]) for b in report["blocks"]]
    rep.check("kernel.spectrum-halfint", "eigenvalues in (1/2)Z>=0", any(e < 0 or (2 * e).denominator > 1 for e in eigs))
    null = [(b["M"], b["k"], b["dim"]) for b, e in zip(report["blocks"], eigs) if b["dim"] and not e]
    rep.check("kernel.block-00", "only the (0,0) block is null", null != [(0, 0, 1)])
    robust = all(dr.constraint_window_robust(trunc, pairs, k) for pairs, k in blocks)
    rep.check("kernel.window-robustness", f"windows {trunc + 1} vs {trunc + 2}", not robust)
    rep.check(
        "kernel.diagonal-casimir",
        "annihilates invariant vectors",
        (dr.diagonal_casimir_apply(trunc + 1, v) for pairs, k in blocks for v in dr.invariant_basis(trunc, pairs, k).basis),
    )
    # adjointness spot checks with the exact-linalg residual oracle
    fbasis = [Vec.basis(s) for s in fk.fock_basis(2)]
    rep.check(
        "kernel.adjointness",
        "rhat pairs on bound-2 basis",
        (
            adjoint_residual(partial(fk.rhat_apply, p, q), partial(fk.rhat_apply, q, p), fbasis)
            for p, q in ((1, -1), (2, -1), (1, 1), (-2, 1))
        ),
    )
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
