"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vpwave"


def test_no_assert_statements():
    # ``python -O`` strips asserts; invariants must raise typed errors.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/vpwave: {found}"
