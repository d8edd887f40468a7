"""Source rules for the package, checked on its syntax trees.

No `assert` statement: `python -O` strips them, so a check written that way
silently disappears.  No `AssertionError`: every library self-check raises
the one `SelfCheckError`, which the CLI maps to exit code 3.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "squashcube"
SOURCES = sorted(PACKAGE.rglob("*.py"))


def test_package_sources_found():
    assert PACKAGE / "__init__.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_assert_and_no_assertion_error(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            problems.append(f"line {node.lineno}: assert statement")
        elif isinstance(node, ast.Name) and node.id == "AssertionError":
            problems.append(f"line {node.lineno}: AssertionError")
    assert not problems, problems
