"""Sparse vectors, exact nullspaces, adjoint residuals."""

import os
import subprocess
import sys
from pathlib import Path

from gdirac.fock import PSI, PSI_STAR, apply_field, fock_basis, rhat_apply
from gdirac.linalg import (
    ExactMatrix,
    Vec,
    adjoint_residual,
    span_rank,
    spans_equal,
)
from gdirac.rng import SplitMix64
from gdirac.scalar import ONE, SQRT2, ZERO, Scalar, _coerce

SRC = str(Path(__file__).resolve().parent.parent / "src")


def from_dense(rows) -> ExactMatrix:
    """The matrix of dense rows of scalars or rationals; zeros are not stored."""
    ncols = len(rows[0]) if rows else 0
    assert all(len(row) == ncols for row in rows), "ragged matrix"
    return ExactMatrix([{j: c for j, x in enumerate(row) if (c := _coerce(x))} for row in rows], ncols)


def apply_vec(m: ExactMatrix, v: Vec) -> Vec:
    """m v, for a vector keyed by column index."""
    assert all(0 <= j < m.ncols for j in v.terms), "dimension mismatch"
    return Vec({i: sum((c * v.coeff(j) for j, c in row.items()), ZERO) for i, row in enumerate(m.rows)})


def test_vec_canonical_form():
    v = Vec({1: ONE, 2: ZERO})
    assert len(v) == 1
    assert (v - v).is_zero()
    w = Vec.basis(1) + Vec.basis(2).scaled(SQRT2)
    assert w.coeff(2) == SQRT2
    assert w.inner(Vec.basis(2)) == SQRT2


def test_vec_linearity_example():
    s, t = Vec.basis("s"), Vec.basis("t")
    assert (s.scaled(2) + t).inner(s) == Scalar.of(2)


def test_nullspace_rank_one():
    m = from_dense([[1, 1], [1, 1]])
    basis = m.nullspace()
    assert len(basis) == 1
    assert m.rank() == 1
    for v in basis:
        assert all(not c for c in apply_vec(m, v).terms.values())
    # same line as (1, -1)
    assert spans_equal(basis, [Vec({0: ONE, 1: -ONE})])


def test_nullspace_identity():
    m = from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert m.nullspace() == []
    assert m.rank() == 3


def test_nullspace_sqrt2_row():
    m = from_dense([[ONE, SQRT2]])
    basis = m.nullspace()
    assert len(basis) == 1
    v = basis[0]
    # 1 * v0 + sqrt2 * v1 = 0, i.e. the (sqrt2, -1) line up to scaling
    assert v.coeff(0) + SQRT2 * v.coeff(1) == ZERO
    assert spans_equal(basis, [Vec({0: SQRT2, 1: -ONE})])


def test_rank_nullity_randomized():
    stream = SplitMix64(7)
    for _ in range(40):
        nrows = 1 + stream.pick(5)
        ncols = 1 + stream.pick(5)
        rows = [
            [Scalar.of(stream.coefficient(), stream.pick(3) - 1) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        m = from_dense(rows)
        basis = m.nullspace()
        assert m.rank() + len(basis) == ncols
        for v in basis:
            assert apply_vec(m, v).is_zero()
    assert span_rank([]) == 0


def test_nullspace_row_leading_before_a_pivot():
    # the second row leads at column 0 and meets the pivot column 1 of the
    # first; the kernel is the line (1, -1, 1)
    m = from_dense([[0, 1, 1], [1, 1, 0]])
    assert m.nullspace() == [Vec({0: ONE, 1: -ONE, 2: ONE})]


def test_nullspace_sparse_randomized():
    # sparse rows in arbitrary order: later rows often lead before
    # earlier pivots
    stream = SplitMix64(11)
    for _ in range(200):
        nrows = 1 + stream.pick(6)
        ncols = 2 + stream.pick(6)
        rows = [
            [Scalar.of(stream.coefficient()) if stream.pick(3) == 0 else ZERO for _ in range(ncols)]
            for _ in range(nrows)
        ]
        m = from_dense(rows)
        basis = m.nullspace()
        assert m.rank() + len(basis) == ncols
        for v in basis:
            assert apply_vec(m, v).is_zero()


def test_vec_module_axioms_randomized():
    stream = SplitMix64(99)
    keys = list(range(6))
    for _ in range(200):
        draw = lambda: Vec(
            {keys[stream.pick(6)]: Scalar.of(stream.coefficient()) for _ in range(3)}
        )
        u, v, w = draw(), draw(), draw()
        c = Scalar.of(stream.coefficient(), stream.coefficient())
        assert u + v == v + u
        assert (u + v) + w == u + (v + w)
        assert (u + v).scaled(c) == u.scaled(c) + v.scaled(c)
        assert u + (-u) == Vec()
        assert u.inner(v + w) == u.inner(v) + u.inner(w)
        assert u.inner(v) == v.inner(u)


def test_adjoint_residual_zero_operator():
    zero = lambda v: Vec()
    vs = [Vec.basis(s) for s in fock_basis(2)]
    assert adjoint_residual(zero, zero, vs) == ZERO


def test_adjoint_residual_field_operators():
    vs = [Vec.basis(s) for s in fock_basis(2)]
    r = adjoint_residual(
        lambda v: apply_field(PSI_STAR, 1, v), lambda v: apply_field(PSI, 1, v), vs
    )
    assert r == ZERO


def test_adjoint_residual_rhat():
    vs = [Vec.basis(s) for s in fock_basis(2)]
    r = adjoint_residual(
        lambda v: rhat_apply(1, -1, v), lambda v: rhat_apply(-1, 1, v), vs
    )
    assert r == ZERO
    # a deliberate non-adjoint pair gives a nonzero residual
    r = adjoint_residual(
        lambda v: rhat_apply(1, -1, v), lambda v: rhat_apply(1, -1, v), vs
    )
    assert r != ZERO


# Runs in its own interpreter, so the other tests keep their modules.
_REIMPORT = """
import gc, importlib, sys, weakref
ref = weakref.ref(importlib.import_module("gdirac").linalg.Vec)
for _ in range(5):
    for name in [m for m in sys.modules if m == "gdirac" or m.startswith("gdirac.")]:
        del sys.modules[name]
    importlib.import_module("gdirac")
gc.collect()
print("alive" if ref() is not None else "freed")
"""


def test_reimport_frees_old_modules():
    # An import-time typing alias such as Callable[[Vec], Vec] sits in
    # typing's cache and keeps Vec, and through its methods' globals the
    # whole previous import of the package, alive.
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _REIMPORT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "freed"
