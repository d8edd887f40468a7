"""Source rules for the package, checked on its syntax trees.

No `assert` statement: `python -O` strips them, so a check written that way
silently disappears.  No `AssertionError`: every library self-check raises
the one `SelfCheckError`, which the CLI maps to exit code 3.  No true
division and no float logarithm, square root, ceiling or floor from `math`:
no floating point may decide a bound or a verdict, so integer arithmetic
(`//`, `int.bit_length`, `math.isqrt`) does those jobs.  The packed word
format belongs to the search: no module but `search.py` defines, imports or
reads the names of its layout, filter and lex-leader step.
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


FLOAT_MATH = {"sqrt", "ceil", "floor"}


def _float_math(name):
    return name in FLOAT_MATH or name.startswith("log")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_true_division_and_no_float_math(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            problems.append(f"line {node.lineno}: true division")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and _float_math(node.attr)
        ):
            problems.append(f"line {node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            problems.extend(
                f"line {node.lineno}: from math import {a.name}"
                for a in node.names
                if _float_math(a.name)
            )
    assert not problems, problems


PACKED_NAMES = {"pack_word", "unpack_word", "distance_filter", "canonical_step",
                "STEP_TABLE_WORDS"}


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p != PACKAGE / "search.py"],
    ids=lambda p: str(p.relative_to(PACKAGE)),
)
def test_only_the_search_knows_the_packed_word_format(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name.rpartition(".")[2] for a in node.names]
        else:
            continue
        problems.extend(f"line {node.lineno}: {name}" for name in names
                        if name in PACKED_NAMES)
    assert not problems, problems
