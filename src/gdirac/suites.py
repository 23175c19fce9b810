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
from functools import cache, partial
from itertools import chain, product

from . import casimir as cas
from . import dirac as dr
from . import fock as fk
from . import spinor as sp
from .linalg import Vec, adjoint_residual, vec_sum
from .rng import SplitMix64
from .sampling import random_vector
from .scalar import HALF, HALF_SQRT2, ONE, SQRT2, ZERO, Scalar, _coerce, _from_numerators, _numerators
from .words import _collect, _compose, _memo, _residual


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


# A bracket check is a list of ``terms`` ``(w, (f_1, f_2, ...))``, int
# weights on products of images functions, f_k acting first, and one
# scale common to them all (``words._compose``); its residual on a vector
# is the largest coefficient of the scaled sum, taken in integers with no
# vector in between (``words._residual``).  A suite builds its factors
# through ``_factors``, so each is evaluated once per basis key however
# many brackets it enters, and drops them all when it returns.


def _factors(factory):
    """``factory`` handing out one memoized images function
    (``words._memo``) per argument tuple, for the life of the result."""
    return cache(lambda *args: _memo(factory(*args)))


def _bracket_terms(a, b, sign: int) -> list:
    """The terms of a b + sign b a: the commutator for ``sign`` -1, the
    anticommutator for 1."""
    return [(1, (a, b)), (sign, (b, a))]


def _delta_terms(op, i: int, j: int, m: int, l: int) -> list:
    """The terms of -(delta_jm X_il - delta_il X_mj), minus the right side
    of [X_ij, X_ml], ``op(i, l)`` the images function of X_il."""
    return ([(-1, (op(i, l),))] if j == m else []) + ([(1, (op(m, j),))] if i == l else [])


def _u(i: int, j: int):
    """The images function of the unit mode operator u_ij = gamma_ij / sqrt2."""
    return fk._key_images(sp._unit, i, j)


def _e(p: int, q: int):
    """The images function of the matrix unit E_pq."""
    return fk._key_images(fk._rhat, p, q)


def _int(c) -> int:
    """An integral scalar as an int weight."""
    c = _coerce(c)
    if c.b or type(c.a) is not int:
        raise ValueError(f"{c} is not an integer weight")
    return c.a


def _minus_lie(a: fk.LieElement, e) -> list:
    """The terms of -sum c_pq E_pq, minus the level-1 representation of a
    finite combination without its central part, ``e(p, q)`` the images
    function of E_pq."""
    return [(-_int(c), (e(p, q),)) for (p, q), c in a.terms.items()]


def _windows(bound: int, count: int) -> range:
    lo = max(bound, 1)
    return range(lo, lo + count)


# ---------------------------------------------------------------------------


def suite_car(max_index: int = 3, **_) -> dict:
    """Anticommutation relations of the field operators, exhaustively."""
    rep = _Report("car")
    basis = fk.fock_basis(max_index)
    idx = fk.window(max_index)
    vs = [Vec.basis(s) for s in basis]
    psi = _factors(partial(fk._key_images, fk._field, False))
    star = _factors(partial(fk._key_images, fk._field, True))
    rep.check(
        "car.relations",
        f"indices<= {max_index}, {3 * len(idx) ** 2 * len(basis)} checks",
        (
            _residual(v, images, ONE)
            for i in idx
            for j in idx
            for images in map(
                _compose,
                (
                    # {psi_i, psi*_j} = delta_ij, {psi_i, psi_j} = 0, {psi*_i, psi*_j} = 0
                    _bracket_terms(psi(i), star(j), 1) + [(-(i == j), ())],
                    _bracket_terms(psi(i), psi(j), 1),
                    _bracket_terms(star(i), star(j), 1),
                ),
            )
            for v in vs
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


def suite_clifford(max_index: int = 3, **_) -> dict:
    """{gamma_ij, gamma_mn} = 2 delta_in delta_jm on every bounded state."""
    rep = _Report("clifford")
    basis = sp.spin_basis(max_index)
    gens = fk.window_pairs(max_index, -1)
    vs = [Vec.basis(s) for s in basis]
    u = _factors(_u)
    # {gamma_a, gamma_b} - 2 delta = 2 ({u_a, u_b} - delta), sqrt2^2 = 2,
    # delta = 1 exactly when b is a reversed
    two = SQRT2 * SQRT2
    rep.check(
        "clifford.relations",
        f"indices<= {max_index}, {len(gens) ** 2 * len(basis)} checks",
        (
            _residual(v, images, two)
            for a in gens
            for b in gens
            for images in [_compose(_bracket_terms(u(*a), u(*b), 1) + [(-(a == b[::-1]), ())])]
            for v in vs
        ),
    )
    vac = Vec.basis(sp.SpinState.vacuum())
    ks = range(1, max_index + 1)
    rep.check("clifford.vacuum", f"annihilators up to {max_index}", (sp.gamma_apply(-i, j, vac) for i in ks for j in ks))
    # vector-level generator equals sqrt(2) times the unit mode operator
    rep.check(
        "clifford.normalization",
        "bound 2",
        (
            sp.gamma_apply(i, j, Vec.basis(s)) - (Vec.basis(t[1], SQRT2 * t[0]) if t else Vec())
            for i, j in gens
            for s in sp.spin_basis(2)
            for t in [sp.gamma_unit_state(i, j, s)]
        ),
    )
    return rep.done()


def suite_cocycle(max_index: int = 3, **_) -> dict:
    """Central extension of the quadratic representation, both flavours."""
    rep = _Report("cocycle")
    basis = fk.fock_basis(max_index)
    idx = fk.window(max_index)
    units = list(product(idx, repeat=2))
    vs = [Vec.basis(s) for s in basis]
    e = _factors(_e)
    rep.check(
        "cocycle.central-extension",
        f"unit pairs <= {max_index}",
        (
            _residual(v, images, ONE)
            for a in units
            for b in units
            for br in [fk.bracket_central(fk.LieElement.unit(*a), fk.LieElement.unit(*b))]
            for images in [_compose(_bracket_terms(e(*a), e(*b), -1) + _minus_lie(br, e) + [(-_int(br.central), ())])]
            for v in vs
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
    # quadratic representation of the orthogonal algebra, each T(x) as
    # twice its words at scale 1/2, so the bracket check has scale 1/4
    E = lambda i, j: {(i, j): ONE}
    A = lambda i, j: {(i, j): ONE, (j, i): -ONE}
    T = lambda x: _compose([(_int(2 * c), fs) for c, fs in fk._t_ores_words(*x)])
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
            _residual(v, images, HALF * HALF)
            for x in test_set
            for y in test_set
            for bracket, cocycle in [(fk.ores_bracket(x, y), fk.ores_cocycle(x, y))]
            for images in [_compose(_bracket_terms(T(x), T(y), -1) + [(-2, (T(bracket),)), (-_int(4 * cocycle), ())])]
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
    kraw = _factors(partial(sp._k_images, sp.K_RAW, n))
    kt = _factors(partial(sp._k_images, sp.K_TILDE_N, n))
    u = _factors(_u)
    ktilde = partial(fk._key_images, sp._ktilde)
    # [K_ij, gamma_ml] = delta_jm gamma_il - delta_il gamma_mj (scale sqrt2
    # on the units), and the same with K~ in place of both
    rep.check(
        "k-family.adjoint-commutator",
        f"quadruples <= {max_index}, N={n}",
        (
            _residual(v, images, SQRT2)
            for i, j in sign_pairs
            for m, l in fk.window_pairs(max_index, -1)
            for images in [_compose(_bracket_terms(kraw(i, j), u(m, l), -1) + _delta_terms(u, i, j, m, l))]
            for v in small + rand
        ),
    )
    rep.check(
        "k-family.commutation",
        f"pairs <= {max_index}, N={n}, no central term",
        (
            _residual(v, images, ONE)
            for i, j in sign_pairs
            for m, n2 in sign_pairs
            for images in [_compose(_bracket_terms(kt(i, j), kt(m, n2), -1) + _delta_terms(kt, i, j, m, n2))]
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
            _residual(v, _compose([(1, (sp._k_images(sp.K_TILDE_N, nn, i, j),)), (-1, (ktilde(i, j),))]), ONE)
            for s, v in zip(states, small)
            for nn in _windows(s.bound(), 3)
            for i, j in sign_pairs
            if max(abs(i), abs(j)) <= nn
        ),
    )
    # H / K / K~ linkage on random vectors; H is 2 H at scale 1/2
    rep.check(
        "k-family.linkage",
        f"N={n}",
        (
            r
            for i, j in sign_pairs
            for hk, kk in [
                (
                    _compose([(1, (sp._k_images(sp.H_N, n, i, j),)), (-2, (kraw(i, j),)), (n * (i == j), ())]),
                    _compose([(1, (kt(i, j),)), (-1, (kraw(i, j),)), (n * (i == j < 0), ())]),
                )
            ]
            for v in rand[:5]
            for r in (_residual(v, hk, HALF), _residual(v, kk, ONE))
        ),
    )
    # the windowed trace sum over the whole window acts as zero
    rep.check(
        "k-family.trace-zero",
        "bound-2 states",
        (
            _residual(v, _compose([(1, (sp._k_images(sp.K_TILDE_N, nn, i, i),)) for i in fk.window(nn)]), ONE)
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
    casimir = _memo(cas._casimir_images(var))
    e = _factors(_e)
    rep.check(
        "casimir.commutator-table",
        f"indices <= {max_index}, N={nn}",
        (
            _residual(v, images, ONE)
            for m in span
            for n2 in span
            for images in [_compose(_bracket_terms(casimir, e(m, n2), -1) + _minus_lie(cas.casimir_commutator(var, m, n2), e))]
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
    shift = _factors(partial(cas._shift_images, window))
    states = [Vec.basis(fk.FockState.vacuum(True))] + [
        Vec.basis(s) for s in fk.fock_basis(1, zero_ok=True) if s.degree
    ]
    rep.check(
        "heisenberg.relations",
        f"|n|,|k| <= {max_index}, window {window}",
        (
            _residual(v, images, ONE)
            for n2 in fk.window(max_index)
            for k in fk.window(max_index)
            for images in [_compose(_bracket_terms(shift(n2), shift(k), -1) + [(-n2 * (n2 == -k), ())])]
            for v in states
        ),
    )
    # the Casimir moves a lowering shift by twice the boundary-crossing block
    casimir = cas._casimir_images(cas.CasimirVariant(cas.NORMAL_N, window))
    rep.check(
        "heisenberg.casimir-shift",
        f"k in -{max_index}..-1",
        (
            _residual(v, images, ONE)
            for k in range(-max_index, 0)
            for images in [_compose(_bracket_terms(casimir, shift(k), -1) + [(-2, (_e(i, i + k),)) for i in range(-k)])]
            for v in states
        ),
    )
    return rep.done()


def _symmetry_defect(v: Vec, w: Vec) -> Scalar:
    """<D v, w> - <v, D w>, in integers.

    Each pairing is read off the ``_collect`` numerators of the exact
    D's integer images (sqrt(2) D) against the numerators of the other
    vector; both are then over the one denominator den_v den_w, and only
    their difference becomes a scalar, scaled once by sqrt(2)/2.
    """

    def pairing(x: Vec, y: Vec) -> tuple[int, int, int]:
        den_x, acc_a, acc_b = _collect(x, dr._dirac_images)
        den_y, nums = _numerators(y.terms.values())
        a = b = 0
        for s, (c, d) in zip(y.terms, nums):
            p = acc_a.get(s.mask_key)
            if p is not None:
                q = acc_b.get(s.mask_key, 0)
                # (p + q sqrt2)(c + d sqrt2)
                a += p * c + 2 * q * d
                b += p * d + q * c
        return a, b, den_x * den_y

    a1, b1, den = pairing(v, w)
    a2, b2, _ = pairing(w, v)
    return HALF_SQRT2 * _from_numerators(a1 - a2, b1 - b2, den)


def suite_dirac_symmetry(max_index: int = 3, seed: int = 1, **_) -> dict:
    rep = _Report("dirac-symmetry")
    vac = Vec.basis(dr.TensorState(fk.FockState.vacuum(), sp.SpinState.vacuum()))
    rep.check("dirac.vacuum", "D|0> = 0", dr.dirac_apply(vac))
    pairs = ((random_vector("tensor", seed + 2 * t, max_index), random_vector("tensor", seed + 2 * t + 1, max_index)) for t in range(100))
    rep.check("dirac.symmetry", "100 seeded pairs", (_symmetry_defect(v, w) for v, w in pairs))
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
    dirac = _memo(dr._dirac_images)
    rho = _factors(dr._rho_images)
    # exhaustive on the bound-2 window, then seeded vectors at max_index
    for check, inputs, vs, bound in (
        ("equivariance.exhaustive", "all tensor states bound 2", map(Vec.basis, dr.tensor_states(2)), 2),
        ("equivariance.random", f"5 seeds, bound {max_index}", (random_vector("tensor", 300 + t, max_index) for t in range(5)), max_index),
    ):
        # [rho(E_pq), D], D at scale sqrt(2)/2 on its integer images
        brackets = [_compose(_bracket_terms(rho(p, q), dirac, -1)) for p, q in fk.window_pairs(bound, 1)]
        rep.check(check, inputs, (_residual(v, images, HALF_SQRT2) for v in vs for images in brackets))
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
