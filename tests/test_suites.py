"""The check runner of the verify suites, including its failing path."""

import json
import weakref

import pytest

from gdirac import casimir, dirac, fock, spinor, suites
from gdirac.cli import main
from gdirac.linalg import Vec
from gdirac.scalar import Scalar
from gdirac.suites import _Report, run_suite


def test_report_check_records_the_largest_absolute_residual():
    rep = _Report("unit")
    rep.check("negative", "scalar", Scalar.of(-1))
    rep.check("ints", "iterable", [0, 3, -5])
    rep.check("vectors", "max_abs", [Vec(), Vec.basis(fock.FockState.vacuum(), Scalar.of(0, -2))])
    rep.check("zero-vec", "vector", Vec())
    rep.check("not-ok", "zero residual", 0, ok=False)
    rep.check("zeros", "mixed", [Vec(), Scalar.of(0), 0, False])
    report = rep.done()
    got = {c["check"]: (c["residual"], c["pass"]) for c in report["checks"]}
    assert got == {
        "negative": ("1", False),
        "ints": ("5", False),
        "vectors": ("0+2√2", False),
        "zero-vec": ("0", True),
        "not-ok": ("0", False),
        "zeros": ("0", True),
    }
    assert report["failures"] == 4


def test_nonzero_residual_fails_verify(capsys, monkeypatch):
    # the CAR brackets compose the fields' integer images, made by the
    # images adapter of the key cores; doubling them must surface as a
    # failing relation
    key_images = fock._key_images

    def doubled(core, *args):
        images = key_images(core, *args)
        return lambda key: {s: 2 * w for s, w in images(key).items()}

    monkeypatch.setattr(fock, "_key_images", doubled)
    assert main(["verify", "car", "--max-index", "2"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["failures"] >= 1
    (relations,) = [c for c in report["checks"] if c["check"] == "car.relations"]
    assert relations["pass"] is False and relations["residual"] != "0"


def _doubled(images):
    return lambda key: {k: 2 * w for k, w in images(key).items()}


def _broken(mutation: str):
    """``(module, name, fake)``: one ingredient of the bracket checks
    broken, to be monkeypatched over ``module.name``."""
    bracket_central, delta_terms, compose, unit = fock.bracket_central, suites._delta_terms, suites._compose, suites._u
    ores_bracket = fock.ores_bracket
    key_images, k_images, casimir_images = fock._key_images, spinor._k_images, casimir._casimir_images

    def units_doubled(core, *args):
        images = key_images(core, *args)
        return _doubled(images) if (core, args) in ((fock._rhat, (1, -1)), (fock._field, (False, 1))) else images

    def c_negated(x, y):
        d, b, c = ores_bracket(x, y)
        return d, b, {k: -w for k, w in c.items()}

    def k12_doubled(family, n, i, j):
        images = k_images(family, n, i, j)
        return _doubled(images) if (i, j) == (1, 2) else images

    return {
        # a commutator where an anticommutator belongs, and back
        "bracket-sign": (suites, "_bracket_terms", lambda a, b, sign: [(1, (a, b)), (-sign, (b, a))]),
        "central": (fock, "bracket_central", lambda a, b: fock.LieElement(bracket_central(a, b).terms, 0)),
        "delta-sign": (suites, "_delta_terms", lambda *args: [(-w, fs) for w, fs in delta_terms(*args)]),
        # psi_1 and E_{1,-1} alone, among the factors of their suites
        "units-doubled": (fock, "_key_images", units_doubled),
        "k12-doubled": (spinor, "_k_images", k12_doubled),
        "casimir-doubled": (casimir, "_casimir_images", lambda variant: _doubled(casimir_images(variant))),
        "rho-fock-only": (dirac, "_rho_images", lambda p, q: key_images(fock._rhat, p, q)),
        # every unit u_ab of the suites doubled
        "units-u-doubled": (suites, "_u", lambda i, j: _doubled(unit(i, j))),
        # every identity term at twice its weight: a delta, a central
        # charge or a window constant; the delta of clifford weighs -2
        "identity-doubled": (suites, "_compose", lambda terms: compose([(w if fs else 2 * w, fs) for w, fs in terms])),
        # the closed forms of the orthogonal extension: c'' of the
        # bracket negated, and the cocycle dropped
        "ores-c-negated": (fock, "ores_bracket", c_negated),
        "ores-cocycle-zero": (fock, "ores_cocycle", lambda x, y: Scalar.of(0)),
    }[mutation]


# The failing checks of each suite at --max-index 2 under each mutation,
# and their residuals, as recorded before the suites memoized their
# factors: a memo must neither hide a failure nor change its text.  The
# clifford entries were recorded when its relations became a composed
# bracket of units; under "identity-doubled" the other suites fail as
# they did before.
BROKEN = {
    "bracket-sign": {
        "car": {"car.relations": "2"},
        "clifford": {"clifford.relations": "4"},
        "cocycle": {"cocycle.central-extension": "2", "cocycle.orthogonal-quadratic": "2"},
        "k-family": {"k-family.adjoint-commutator": "0+48√2", "k-family.commutation": "56"},
        "casimir": {"casimir.commutator-table": "10"},
        "dirac-equivariance": {"equivariance.exhaustive": "0+3√2", "equivariance.random": "0+21√2"},
    },
    "central": {"cocycle": {"cocycle.central-extension": "1"}},
    "delta-sign": {"k-family": {"k-family.adjoint-commutator": "0+18√2", "k-family.commutation": "28"}},
    "units-doubled": {
        "car": {"car.relations": "1"},
        "cocycle": {"cocycle.central-extension": "1", "cocycle.orthogonal-quadratic": "2"},
    },
    "k12-doubled": {
        "k-family": {"k-family.adjoint-commutator": "0+9√2", "k-family.commutation": "14", "k-family.stabilization": "1"}
    },
    "casimir-doubled": {
        "casimir": {
            "casimir.charge0": "6",
            "casimir.commutator-table": "2",
            "casimir.eigenvalue-law": "7",
            "casimir.window-constants": "12",
        }
    },
    "rho-fock-only": {"dirac-equivariance": {"equivariance.exhaustive": "0+1/2√2", "equivariance.random": "0+5√2"}},
    "units-u-doubled": {"clifford": {"clifford.relations": "6"}},
    "identity-doubled": {
        "car": {"car.relations": "1"},
        "clifford": {"clifford.relations": "2"},
        "cocycle": {"cocycle.central-extension": "1", "cocycle.orthogonal-quadratic": "1"},
        "k-family": {"k-family.linkage": "24"},
    },
    "ores-c-negated": {"cocycle": {"cocycle.orthogonal-quadratic": "2"}},
    "ores-cocycle-zero": {"cocycle": {"cocycle.orthogonal-quadratic": "1"}},
}
BRACKET_SUITES = ("car", "clifford", "cocycle", "k-family", "casimir", "dirac-equivariance")


@pytest.mark.parametrize("mutation", sorted(BROKEN))
def test_a_broken_ingredient_fails_the_recorded_checks(mutation, monkeypatch):
    monkeypatch.setattr(*_broken(mutation))
    got = {}
    for name in BRACKET_SUITES:
        failing = {c["check"]: c["residual"] for c in run_suite(name, max_index=2)["checks"] if not c["pass"]}
        if failing:
            got[name] = failing
    assert got == BROKEN[mutation]


@pytest.mark.parametrize("name", [*BRACKET_SUITES, "heisenberg"])
def test_no_memo_outlives_its_suite_call(name, monkeypatch):
    memo, refs = suites._memo, []

    def tracked(images):
        m = memo(images)
        refs.append(weakref.ref(m.__self__))
        return m

    monkeypatch.setattr(suites, "_memo", tracked)
    assert run_suite(name, max_index=1)["failures"] == 0
    assert refs and all(r() is None for r in refs)
