"""Only ``words`` knows the format of a word table.

Every other module under ``src/gdirac`` reaches a table through the
images function that ``words._table_images`` makes of it: none imports
the kernel ``_images`` or the table cache ``_word_table``, nor reads
them as attributes.  The verify suites build no table of their own, so
``suites.py`` defines no words function (a ``*_words`` generator of the
words of a table); a bracket there is a ``words._compose`` of images
factors.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gdirac"
TABLE_NAMES = {"_images", "_word_table"}


def table_access(source: str) -> list[str]:
    """The imports and attribute reads of ``TABLE_NAMES`` in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [f"import {a.name}" for a in node.names if a.name in TABLE_NAMES]
        elif isinstance(node, ast.Attribute) and node.attr in TABLE_NAMES:
            found.append(f".{node.attr}")
    return found


def words_functions(source: str) -> list[str]:
    """The functions of ``source``, at any depth, named ``*_words``."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.endswith("_words")
    ]


def test_the_guards_see_what_they_look_for():
    assert table_access("from .words import _apply, _images\n") == ["import _images"]
    assert table_access("from . import words\nf = words._word_table\n") == ["._word_table"]
    assert table_access("from .words import _table_images\n") == []
    assert words_functions("def suite():\n    def _pair_words(a):\n        yield 1, (), (a,)\n") == ["_pair_words"]
    words = (SRC / "words.py").read_text()
    assert {"_images", "_word_table", "_table_images"} <= {n.name for n in ast.parse(words).body if isinstance(n, ast.FunctionDef)}


def test_only_words_reads_the_tables():
    found = {
        path.name: hits
        for path in sorted(SRC.glob("*.py"))
        if path.name != "words.py" and (hits := table_access(path.read_text()))
    }
    assert found == {}


def test_the_suites_define_no_words_function():
    assert words_functions((SRC / "suites.py").read_text()) == []
