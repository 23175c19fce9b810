"""The benchmark tracer's bindings resolve on the library.

``perfbench/tracing.py`` wraps library functions by (module, name).  A
renamed helper would otherwise surface only in a ``--trace 1`` run, so its
tables are read here, from the file's source, without importing the
benchmark package or writing anything next to it.
"""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
# the modules the tracer patches, as the benchmark hands them over
MODULES = ("casimir", "dirac", "fock", "linalg", "scalar", "serialize", "spinor", "suites")


def _tracing():
    module = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def _library():
    return types.SimpleNamespace(**{name: importlib.import_module(f"gdirac.{name}") for name in MODULES})


def test_every_traced_name_resolves():
    tracing, g = _tracing(), _library()
    names = [*tracing.VECTOR_OPS, *tracing.STATE_MAPS, *(c[:2] for c in tracing.COMPOSITES), ("dirac", "_block_states")]
    missing = [f"{mod}.{name}" for mod, name in names if not callable(getattr(getattr(g, mod), name, None))]
    assert not missing


def test_install_and_remove_restore_every_binding():
    tracing, g = _tracing(), _library()
    before = {name: dict(vars(getattr(g, name))) for name in MODULES}
    tracer = tracing.Tracer(g)
    try:
        tracer.install()
        assert g.dirac.square_identity_residual is not before["dirac"]["square_identity_residual"]
    finally:
        tracer.remove()
    assert {name: dict(vars(getattr(g, name))) for name in MODULES} == before


def test_the_counted_constructors_own_their_post_init():
    # the tracer counts ``fock.FockState.new`` and ``spinor.SpinState.new``
    # by setting ``__post_init__`` on each class: it must be the class's
    # own, so that ``Tracer.remove`` puts back exactly what was there, and
    # it runs once per validating construction, never in ``from_mask_key``
    g = _library()
    fock, spin = g.fock.FockState, g.spinor.SpinState
    before = {cls: vars(cls).get("__post_init__") for cls in (fock, spin)}
    assert all(before.values())
    tracer = _tracing().Tracer(g)
    try:
        tracer.install()
        fock((1, 3), (-2,))
        spin(((1, -2),))
        assert tracer.counts == {"fock.FockState.new": 1, "spinor.SpinState.new": 1}
        fock.from_mask_key(0b1010, 0b10, False, 0)
        spin.from_mask_key(0, 0, False, 0b101)
        g.dirac.TensorState.from_mask_key(0b10, 0b1, False, 0b1)
        assert tracer.counts == {"fock.FockState.new": 1, "spinor.SpinState.new": 1}
    finally:
        tracer.remove()
    assert {cls: vars(cls).get("__post_init__") for cls in (fock, spin)} == before
