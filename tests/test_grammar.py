"""Every Python file of the checkout parses with the grammar of Python 3.10,
the oldest version pyproject.toml's `requires-python` admits, whatever the
interpreter running the tests. `ast.parse` checks it without writing
bytecode into the checkout, as `py_compile` would."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for folder in ("src", "tests", "perfbench")
                 for path in (ROOT / folder).rglob("*.py"))


def test_every_source_file_parses_with_the_python_310_grammar():
    assert len(SOURCES) > 20, SOURCES
    for path in SOURCES:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_the_python_310_grammar_rejects_except_star():
    # except* is 3.11 syntax, which a 3.10 interpreter cannot import
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))
