"""The runtime is stdlib-only: every import of the package is relative
or names a module of the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gdirac"


def test_every_import_is_relative_or_from_the_standard_library():
    modules = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules.append((path.name, node.module))
    assert modules
    outside = [(name, m) for name, m in modules if m.partition(".")[0] not in sys.stdlib_module_names]
    assert not outside
