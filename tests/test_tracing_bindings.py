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
