"""No dead API in the library.

Every top-level function and class under ``src/gdirac`` must be reached
from somewhere: referenced by name elsewhere in the package, exported in
``gdirac.__all__``, or bound by name in the benchmark tracer's tables
(``perfbench/tracing.py``, read from its source, as
``test_tracing_bindings`` does).  The ``serialize.*_from_json`` decoders
of the report format are named exceptions: they are the report reader's
half of the format, which the package itself never reads back.
An oracle that only tests call belongs in ``tests/oracles.py``.
"""

import ast
from collections import defaultdict
from pathlib import Path

import gdirac

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gdirac"
TRACING = ROOT / "perfbench" / "tracing.py"
TABLES = ("VECTOR_OPS", "STATE_MAPS", "COMPOSITES")


def _traced_names() -> set[str]:
    """The names in the tracer's tables of ``(module, name, ...)`` tuples."""
    names = set()
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id in TABLES for t in node.targets):
            names |= {ast.literal_eval(entry)[1] for entry in node.value.elts}
    return names


def _excepted(module: str, name: str) -> bool:
    return module == "serialize" and name.endswith("_from_json")


def dead_api() -> list[str]:
    """``module.name`` of every top-level definition of the package that
    nothing reaches."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    # name -> the Name and Attribute nodes that use it, anywhere in src
    uses = defaultdict(set)
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                uses[n.id].add(id(n))
            elif isinstance(n, ast.Attribute):
                uses[n.attr].add(id(n))
    reachable = set(gdirac.__all__) | _traced_names()
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name in reachable or _excepted(module, node.name):
                continue
            # a use inside the definition itself does not count
            if not uses[node.name] - {id(n) for n in ast.walk(node)}:
                dead.append(f"{module}.{node.name}")
    return dead


def test_the_tracer_tables_are_read():
    assert {"field_state", "mode_state", "ktilde_state_terms", "dirac_apply", "run_suite"} <= _traced_names()


def test_every_top_level_definition_is_reached():
    assert dead_api() == []
